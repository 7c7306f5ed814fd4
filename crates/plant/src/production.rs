//! The production line: creation jobs and collection.
//!
//! A creation request flows through: PPP golden-image matching → network
//! lease → clone-and-activate on the VMM backend → residual DAG actions as
//! guest/host steps with per-action error policies → final classad.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_dag::{Action, ActionKind, ErrorPolicy};
use vmplants_simkit::obs::{Obs, SpanId, TrackId};
use vmplants_simkit::{Engine, SimDuration, SimTime};
use vmplants_virt::guest::GuestScript;
use vmplants_virt::hypervisor::CloneStats;
use vmplants_virt::{timing, ImageFiles, VirtError, VmSpec, VmState, VmmType};
use vmplants_vnet::ServiceError;
use vmplants_warehouse::GoldenId;

use crate::daemon::{CloneLogEntry, DoneAd, DoneCount, Plant};
use crate::infosys::{state_value, VmRecord};
use crate::order::{PlantError, VmId};
use crate::protocol::SharedOrder;

/// Attributes a VM's classad ends up with besides its actions' outputs:
/// twelve written at creation, `state`, the monitor's four, and
/// `clone_s`, `config_s` and `create_s`.
const VM_ATTRS: usize = 20;

/// In-flight creation job state.
struct Job {
    plant: Plant,
    vmid: VmId,
    /// The order being produced (shared with the request that carried it).
    order: SharedOrder,
    clone_dir: String,
    /// The residual actions still to run, as node indices of the order's
    /// DAG in schedule order.
    schedule: Vec<usize>,
    idx: usize,
    attempts_on_current: u32,
    /// The failed action whose `ErrorPolicy::Recover` sequence is
    /// running, and the next index within that sequence.
    recovery: Option<(Action, usize)>,
    /// Whether the current action already had its one post-recovery retry.
    recovered_once: bool,
    created_at: SimTime,
    clone_stats: Option<CloneStats>,
    config_started: SimTime,
    /// Plant incarnation when the job started. A continuation that finds
    /// the plant on a later epoch knows [`Plant::host_crashed`] already
    /// reclaimed the job's record (with its lease) and files.
    epoch: u64,
    done: Option<DoneAd>,
    obs: Obs,
    obs_track: TrackId,
    /// The job's `produce` span, parented under the order's trace context.
    span: SpanId,
}

type JobRef = Rc<RefCell<Job>>;

/// Entry point called by [`Plant::create`].
pub(crate) fn start_creation(plant: Plant, engine: &mut Engine, order: SharedOrder, done: DoneAd) {
    // Phase 1 (synchronous planning) under one borrow.
    let planned = {
        let mut state = plant.inner.borrow_mut();

        if !state.net.domains().contains(&order.client_domain) {
            let err = ServiceError::UnknownDomain(order.client_domain.clone());
            drop(state);
            return fail_now(engine, done, err.into());
        }

        // A shop retrying an order it believes lost may re-dispatch a
        // VMID this plant is still producing; refuse rather than corrupt
        // the info system.
        if let Some(id) = &order.vm_id {
            if state.info.get(id).is_some() {
                drop(state);
                return fail_now(
                    engine,
                    done,
                    PlantError::InvalidOrder(format!("VM id '{}' already in production", id.0)),
                );
            }
        }

        // PPP: golden-image matching (hardware filter + the three DAG
        // tests).
        let golden: Option<(
            GoldenId,
            Rc<ImageFiles>,
            Vec<usize>,
            vmplants_dag::PerformedLog,
        )> = {
            let warehouse = state.warehouse.borrow();
            warehouse
                .lookup(&order.spec, &order.dag)
                .map(|(img, report)| {
                    (
                        img.id.clone(),
                        Rc::clone(&img.files),
                        report.residual,
                        img.performed.clone(),
                    )
                })
        };
        let Some((golden_id, image_files, residual, inherited_log)) = golden else {
            drop(state);
            return fail_now(engine, done, PlantError::NoGoldenImage);
        };

        // Content-addressed warehouse: make sure the winner's state files
        // are on the export (transparently re-deriving an evicted golden
        // from its DAG — the delay is charged below), note the demand for
        // the replication policy, and pick the server to clone from (hot
        // goldens fan out across the replica set).
        let (rederive_delay, fetch_nfs) = {
            let mut warehouse = state.warehouse.borrow_mut();
            let delay = match warehouse.ensure_resident(&state.nfs, &golden_id) {
                Ok(d) => d,
                Err(e) => {
                    drop(warehouse);
                    drop(state);
                    return fail_now(
                        engine,
                        done,
                        PlantError::Virt(vmplants_virt::VirtError::Io(e)),
                    );
                }
            };
            warehouse.maybe_replicate(&state.nfs, &golden_id);
            let server = warehouse.fetch_server_for(&golden_id, &state.config.name);
            (delay, server)
        };

        // Network lease: host-only network (+ bridge if fresh) and a
        // client-domain IP/MAC.
        let lease = match state.net.lease(&order.client_domain, &order.proxy) {
            Ok(lease) => lease,
            Err(e) => {
                drop(state);
                return fail_now(engine, done, e.into());
            }
        };

        // Identify and record the VM (the shop assigns VMIDs; a plant
        // generates one only for direct requests).
        let seq = state.next_vm;
        state.next_vm += 1;
        let vmid = order
            .vm_id
            .clone()
            .unwrap_or_else(|| VmId(format!("vm-{}-{:04}", state.config.name, seq)));
        // A pre-created spare of the same golden short-circuits cloning
        // (§6's speculative pre-creation).
        let spare = state
            .spares
            .get_mut(&golden_id)
            .and_then(Vec::pop);
        // The record being inserted below pins the golden against
        // eviction (its clone tree links into the golden's files). An
        // adopted spare hands over the pin it took at pre-creation.
        {
            let mut warehouse = state.warehouse.borrow_mut();
            if spare.is_some() {
                warehouse.unpin(&golden_id);
            }
            warehouse.pin(&golden_id);
        }
        let clone_dir = match &spare {
            Some(s) => s.clone_dir.clone(),
            None => format!("/clones/{}", vmid.0),
        };
        // Sized for every attribute the VM's classad will hold, so no
        // binding grows it.
        let outputs: usize = order.dag.actions().map(|a| a.outputs.len()).sum();
        let mut classad = ClassAd::with_capacity(VM_ATTRS + outputs);
        classad.set_value("vmid", vmid.0.as_str());
        classad.set_value("plant", plant.shared_name());
        classad.set_value("host", state.host.shared_name());
        classad.set_value("memory_mb", order.spec.memory_mb);
        classad.set_value("disk_gb", order.spec.disk_gb);
        classad.set_value("os", order.spec.os.as_str());
        classad.set_display("vmm", order.spec.vmm);
        classad.set_value("golden_id", golden_id.0.as_str());
        classad.set_value("client_domain", order.client_domain.as_str());
        classad.set_display("network", lease.network);
        // The lease's addresses go into the classad up front (§3.1: the
        // classad is how clients learn how to reach their VM); a
        // configure-mac-ip DAG action applies them *inside* the guest.
        classad.set_display("ip_address", lease.ip);
        classad.set_display("mac_address", lease.mac);
        // The record appends `state` and the host's monitor attributes,
        // and keeps the lease.
        let record = VmRecord::new(
            vmid.clone(),
            order.spec.clone(),
            classad,
            clone_dir.clone(),
            lease,
            Rc::clone(&order.proxy),
            golden_id,
            inherited_log,
            engine.now(),
            &state.host,
        );
        state.info.insert(record);

        let hv = Rc::clone(&state.hypervisor);
        let host = state.host.clone();
        // Clone from the nearest replica when the golden is replicated.
        let nfs = fetch_nfs.unwrap_or_else(|| state.nfs.clone());
        let ppp_overhead = SimDuration::from_secs_f64(
            state.rng.borrow_mut().uniform(0.15, 0.45),
        );
        (
            vmid,
            clone_dir,
            residual,
            hv,
            host,
            nfs,
            image_files,
            ppp_overhead,
            spare,
            rederive_delay,
        )
    };
    let (
        vmid,
        clone_dir,
        schedule,
        hv,
        host,
        nfs,
        image_files,
        ppp_overhead,
        spare,
        rederive_delay,
    ) = planned;

    let (epoch, obs, obs_track) = {
        let state = plant.inner.borrow();
        (state.epoch, state.obs.clone(), state.obs_track)
    };
    let span = obs.span_start(order.trace_parent, obs_track, "produce", engine.now());
    obs.span_attr(span, "vmid", &vmid);
    // The PPP's own planning/matching overhead elapses before cloning.
    obs.span(span, obs_track, "ppp", engine.now(), engine.now() + ppp_overhead);
    let job = Rc::new(RefCell::new(Job {
        plant: plant.clone(),
        vmid,
        order,
        clone_dir,
        schedule,
        idx: 0,
        attempts_on_current: 0,
        recovery: None,
        recovered_once: false,
        created_at: engine.now(),
        clone_stats: None,
        config_started: engine.now(),
        epoch,
        done: Some(done),
        obs: obs.clone(),
        obs_track,
        span,
    }));

    // Phase 2: clone-and-activate after the PPP's planning overhead —
    // unless a spare was adopted, in which case only a short adoption
    // step (re-registering the clone with the VMM) stands in for the
    // whole cloning phase.
    if let Some(spare) = spare {
        let adopt = {
            let state = plant.inner.borrow();
            let secs = state.rng.borrow_mut().uniform(0.3, 0.7);
            SimDuration::from_secs_f64(secs)
        };
        let job2 = Rc::clone(&job);
        obs.span(
            span,
            obs_track,
            "adopt_spare",
            engine.now() + ppp_overhead,
            engine.now() + ppp_overhead + adopt,
        );
        engine.schedule(ppp_overhead + adopt, move |engine| {
            // The spare's own (historical) clone cost is not this
            // request's cost; expose the adoption latency instead.
            let stats = CloneStats {
                copied_bytes: 0,
                links_created: spare.stats.links_created,
                transfer: SimDuration::ZERO,
                activate: adopt,
                total: adopt,
            };
            on_cloned(engine, &job2, stats);
        });
        return;
    }
    // An evicted golden was re-derived from its DAG during planning; the
    // simulated re-derivation time elapses before cloning starts. ZERO on
    // the (default) always-resident path, leaving event order untouched.
    if rederive_delay > SimDuration::ZERO {
        obs.span(
            span,
            obs_track,
            "rederive",
            engine.now() + ppp_overhead,
            engine.now() + ppp_overhead + rederive_delay,
        );
    }
    engine.schedule(ppp_overhead + rederive_delay, move |engine| {
        let job2 = Rc::clone(&job);
        // Pin the produce span as the ambient parent for the phase spans
        // the backend records (clone_disk / copy_vmss / resume / boot).
        let prev = obs.set_ambient(span);
        let j = job.borrow();
        hv.instantiate(
            engine,
            &image_files,
            &j.order.spec,
            &host,
            &nfs,
            &j.clone_dir,
            Box::new(move |engine, res| match res {
                Err(e) => {
                    // The backend released the memory registration itself;
                    // reclaim the lease, files, and the record.
                    cleanup_without_destroy(engine, &job2, PlantError::Virt(e));
                }
                Ok(stats) => on_cloned(engine, &job2, stats),
            }),
        );
        obs.set_ambient(prev);
    });
}

/// Entry point called by [`Plant::prewarm`]: sequentially clone `count`
/// spares of the golden matching `spec`/`dag`.
pub(crate) fn prewarm_spares(
    plant: Plant,
    engine: &mut Engine,
    spec: VmSpec,
    dag: vmplants_dag::ConfigDag,
    count: usize,
    done: DoneCount,
) {
    let golden = {
        let state = plant.inner.borrow();
        let warehouse = state.warehouse.borrow();
        warehouse
            .lookup(&spec, &dag)
            .map(|(img, _)| (img.id.clone(), Rc::clone(&img.files)))
    };
    let Some((golden_id, image_files)) = golden else {
        engine.schedule(SimDuration::ZERO, move |engine| {
            done(engine, Err(PlantError::NoGoldenImage))
        });
        return;
    };
    prewarm_one(plant, engine, spec, golden_id, image_files, count, 0, done);
}

#[allow(clippy::too_many_arguments)]
fn prewarm_one(
    plant: Plant,
    engine: &mut Engine,
    spec: VmSpec,
    golden_id: vmplants_warehouse::GoldenId,
    image_files: Rc<ImageFiles>,
    want: usize,
    have: usize,
    done: DoneCount,
) {
    if have >= want {
        engine.schedule(SimDuration::ZERO, move |engine| done(engine, Ok(have)));
        return;
    }
    let (hv, host, nfs, clone_dir, epoch) = {
        let mut state = plant.inner.borrow_mut();
        let seq = state.next_spare;
        state.next_spare += 1;
        // Re-derive the golden if eviction dropped it (prewarm is
        // background work, so no extra delay is charged), and pin it for
        // the duration of the clone and the spare's shelf life.
        {
            let mut warehouse = state.warehouse.borrow_mut();
            let _ = warehouse.ensure_resident(&state.nfs, &golden_id);
            warehouse.pin(&golden_id);
        }
        (
            Rc::clone(&state.hypervisor),
            state.host.clone(),
            state.nfs.clone(),
            format!("/spares/{}-{:04}", state.config.name, seq),
            state.epoch,
        )
    };
    let plant2 = plant.clone();
    let spec2 = spec.clone();
    let image_for_call = Rc::clone(&image_files);
    let dir_for_record = clone_dir.clone();
    hv.instantiate(
        engine,
        &image_for_call,
        &spec,
        &host,
        &nfs,
        &clone_dir,
        Box::new(move |engine, res| match res {
            Ok(stats) => {
                {
                    let mut state = plant2.inner.borrow_mut();
                    // A crash since this spare started wiped the spare
                    // tree; don't record a clone that no longer exists.
                    if state.epoch != epoch {
                        state.warehouse.borrow_mut().unpin(&golden_id);
                        drop(state);
                        engine.schedule(SimDuration::ZERO, move |engine| done(engine, Ok(have)));
                        return;
                    }
                    state
                        .spares
                        .entry(golden_id.clone())
                        .or_default()
                        .push(crate::daemon::Spare {
                            clone_dir: dir_for_record,
                            stats,
                        });
                    // The pin taken before cloning now belongs to the
                    // recorded spare (released on adoption or crash).
                }
                prewarm_one(
                    plant2, engine, spec2, golden_id, image_files, want, have + 1, done,
                );
            }
            // A failed spare is not fatal: report what was built.
            Err(_) => {
                plant2
                    .inner
                    .borrow()
                    .warehouse
                    .borrow_mut()
                    .unpin(&golden_id);
                engine.schedule(SimDuration::ZERO, move |engine| done(engine, Ok(have)));
            }
        }),
    );
}

fn fail_now(engine: &mut Engine, done: DoneAd, err: PlantError) {
    engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
}

/// Epoch guard for job continuations. When the plant went through
/// [`Plant::host_crashed`] since this job started, the crash path already
/// dropped the record, released the lease, and wiped the clone files —
/// the continuation must only report failure, never re-run cleanup.
/// Returns `true` (after settling the job with `PlantDown`) in that case.
fn crashed_out(engine: &mut Engine, job: &JobRef) -> bool {
    let stale = {
        let j = job.borrow();
        let current = j.plant.inner.borrow().epoch;
        current != j.epoch
    };
    if !stale {
        return false;
    }
    let done = {
        let mut j = job.borrow_mut();
        let done = j.done.take();
        // Several continuations may observe the crash; settle the span
        // only alongside the (single) settlement of the job itself.
        if done.is_some() {
            j.obs.span_attr(j.span, "outcome", "crashed");
            j.obs.span_end(j.span, engine.now());
        }
        done
    };
    if let Some(done) = done {
        done(engine, Err(PlantError::PlantDown));
    }
    true
}

fn on_cloned(engine: &mut Engine, job: &JobRef, stats: CloneStats) {
    if crashed_out(engine, job) {
        return;
    }
    let guest_ready = {
        let mut j = job.borrow_mut();
        j.clone_stats = Some(stats.clone());
        let plant = j.plant.clone();
        let mut state = plant.inner.borrow_mut();
        let resident_before = state.host.vm_count().saturating_sub(1);
        state.clone_log.push(CloneLogEntry {
            vm: j.vmid.clone(),
            memory_mb: j.order.spec.memory_mb,
            stats: stats.clone(),
            resident_before,
        });
        let activate_state = match j.order.spec.vmm {
            VmmType::VmwareLike => VmState::Resuming,
            VmmType::UmlLike => VmState::Booting,
        };
        if let Some(record) = state.info.get_mut(&j.vmid) {
            record.transition(activate_state);
            record.transition(VmState::Configuring);
            record.set_value("clone_s", stats.total.as_secs_f64());
        }
        let pressure = state.host.pressure_factor();
        let guest_ready = {
            let mut rng = state.rng.borrow_mut();
            // Guest wake-up plus background cluster interference.
            timing::sample_guest_ready(&mut rng, pressure) + timing::sample_interference(&mut rng)
        };
        j.config_started = engine.now();
        j.obs.span(
            j.span,
            j.obs_track,
            "guest_ready",
            engine.now(),
            engine.now() + guest_ready,
        );
        drop(state);
        guest_ready
    };
    let job2 = Rc::clone(job);
    engine.schedule(guest_ready, move |engine| {
        run_next_action(engine, &job2);
    });
}

/// Execute the next schedule entry (or a pending recovery action).
fn run_next_action(engine: &mut Engine, job: &JobRef) {
    if crashed_out(engine, job) {
        return;
    }
    // Recovery sub-sequence takes precedence.
    let recovery_action = {
        let mut j = job.borrow_mut();
        let j = &mut *j;
        match &mut j.recovery {
            Some((failed, next)) => match &failed.on_error {
                ErrorPolicy::Recover(actions) if *next < actions.len() => {
                    let action = actions[*next].clone();
                    *next += 1;
                    Some(action)
                }
                _ => {
                    // Recovery finished: retry the original action once.
                    j.recovery = None;
                    j.recovered_once = true;
                    None
                }
            },
            None => None,
        }
    };
    if let Some(action) = recovery_action {
        return execute_action(engine, job, action, true);
    }
    let next = {
        let j = job.borrow();
        let node = j.schedule.get(j.idx);
        node.map(|&node| j.order.dag.action_at(node).clone())
    };
    match next {
        Some(action) => execute_action(engine, job, action, false),
        None => finish_creation(engine, job),
    }
}

fn execute_action(engine: &mut Engine, job: &JobRef, action: Action, is_recovery: bool) {
    match action.kind {
        ActionKind::Host => execute_host_action(engine, job, action, is_recovery),
        ActionKind::Guest => execute_guest_action(engine, job, action, is_recovery),
    }
}

/// Host actions run on the plant itself. `configure-mac-ip` applies the
/// network lease (this is where the classad gets its real IP and MAC);
/// other host actions are generic host-side steps.
fn execute_host_action(engine: &mut Engine, job: &JobRef, action: Action, is_recovery: bool) {
    let (plant, duration) = {
        let j = job.borrow();
        let plant = j.plant.clone();
        let state = plant.inner.borrow();
        let pressure = state.host.pressure_factor();
        let duration =
            timing::sample_action(&mut state.rng.borrow_mut(), action.nominal_ms, pressure);
        drop(state);
        (plant, duration)
    };
    let job2 = Rc::clone(job);
    let action_started = engine.now();
    engine.schedule(duration, move |engine| {
        if crashed_out(engine, &job2) {
            return;
        }
        {
            let j = job2.borrow();
            let span = j
                .obs
                .span(j.span, j.obs_track, "host_action", action_started, engine.now());
            j.obs.span_attr(span, "action", &action.id);
            let mut state = plant.inner.borrow_mut();
            if let Some(record) = state.info.get_mut(&j.vmid) {
                if action.command == "configure-mac-ip" {
                    let (ip, mac) = (record.lease.ip, record.lease.mac);
                    record.set_display("ip_address", ip);
                    record.set_display("mac_address", mac);
                } else {
                    for output in &action.outputs {
                        record.set_value(output.clone(), format!("{}-{}", action.command, output));
                    }
                }
                if !is_recovery {
                    record.performed.push(action.clone());
                }
            }
        }
        advance_after_success(engine, &job2, is_recovery);
    });
}

fn execute_guest_action(engine: &mut Engine, job: &JobRef, action: Action, is_recovery: bool) {
    let j = job.borrow();
    let plant = j.plant.clone();
    let (hv, host) = {
        let state = plant.inner.borrow();
        (Rc::clone(&state.hypervisor), state.host.clone())
    };
    let script = GuestScript {
        action_id: &action.id,
        command: &action.command,
        params: &action.params,
        nominal_ms: action.nominal_ms,
        outputs: &action.outputs,
    };
    let job2 = Rc::clone(job);
    let ran = action.clone();
    // Pin the produce span so the backend's guest_script span nests
    // under it.
    let prev = j.obs.set_ambient(j.span);
    hv.exec_script(
        engine,
        &host,
        &j.clone_dir,
        &script,
        Box::new(move |engine, res| {
            if crashed_out(engine, &job2) {
                return;
            }
            match res {
                Ok(stats) => {
                    {
                        let j = job2.borrow();
                        let mut state = plant.inner.borrow_mut();
                        if let Some(record) = state.info.get_mut(&j.vmid) {
                            for (name, value) in stats.outputs {
                                record.set_value(name, value);
                            }
                            if !is_recovery {
                                record.performed.push(ran);
                            }
                        }
                    }
                    advance_after_success(engine, &job2, is_recovery);
                }
                Err(e) => on_action_failure(engine, &job2, ran, e, is_recovery),
            }
        }),
    );
    j.obs.set_ambient(prev);
}

fn advance_after_success(engine: &mut Engine, job: &JobRef, is_recovery: bool) {
    {
        let mut j = job.borrow_mut();
        if !is_recovery && j.recovery.is_none() {
            j.idx += 1;
            j.attempts_on_current = 0;
            j.recovered_once = false;
        }
        // Recovery actions do not advance the main index; run_next_action
        // continues the recovery sequence (or retries the original).
    }
    run_next_action(engine, job);
}

fn on_action_failure(
    engine: &mut Engine,
    job: &JobRef,
    action: Action,
    err: VirtError,
    is_recovery: bool,
) {
    // A failing *recovery* action aborts outright.
    if is_recovery {
        return abort_creation(
            engine,
            job,
            PlantError::ActionFailed {
                action_id: action.id.clone(),
                reason: format!("recovery action failed: {err}"),
            },
        );
    }
    let decision = {
        let mut j = job.borrow_mut();
        j.attempts_on_current += 1;
        match &action.on_error {
            ErrorPolicy::Abort => Decision::Abort,
            ErrorPolicy::Ignore => Decision::Ignore,
            ErrorPolicy::Retry(n) => {
                if j.attempts_on_current <= *n {
                    Decision::RetrySame
                } else {
                    Decision::Abort
                }
            }
            ErrorPolicy::Recover(_) => {
                if j.recovered_once {
                    Decision::Abort
                } else {
                    j.recovery = Some((action.clone(), 0));
                    Decision::RetrySame // run_next_action picks recovery up
                }
            }
        }
    };
    match decision {
        Decision::Abort => abort_creation(
            engine,
            job,
            PlantError::ActionFailed {
                action_id: action.id.clone(),
                reason: err.to_string(),
            },
        ),
        Decision::Ignore => {
            {
                let j = job.borrow_mut();
                let plant = j.plant.clone();
                let mut state = plant.inner.borrow_mut();
                if let Some(record) = state.info.get_mut(&j.vmid) {
                    let prior = record.get_str("ignored_failures").unwrap_or_default();
                    let entry = if prior.is_empty() {
                        action.id.clone()
                    } else {
                        format!("{prior},{}", action.id)
                    };
                    record.set_value("ignored_failures", entry);
                }
            }
            advance_after_success(engine, job, false)
        }
        Decision::RetrySame => run_next_action(engine, job),
    }
}

enum Decision {
    Abort,
    Ignore,
    RetrySame,
}

fn finish_creation(engine: &mut Engine, job: &JobRef) {
    let (done, result) = {
        let mut j = job.borrow_mut();
        let plant = j.plant.clone();
        let mut guard = plant.inner.borrow_mut();
        let state = &mut *guard;
        let now = engine.now();
        // The record can vanish mid-creation only through a crash path
        // that raced past the epoch guard or an external collect; report
        // the VM lost rather than panicking.
        let result = match state.info.start_running(&j.vmid, now) {
            Some(record) => {
                let total = now.since(j.created_at);
                let config = now.since(j.config_started);
                record.set_value("config_s", config.as_secs_f64());
                record.set_value("create_s", total.as_secs_f64());
                Ok(state
                    .info
                    .classad(&j.vmid, now, &state.host)
                    .expect("record just updated"))
            }
            None => Err(PlantError::UnknownVm(j.vmid.clone())),
        };
        drop(guard);
        if result.is_err() {
            j.obs.span_attr(j.span, "outcome", "lost");
        }
        j.obs.span_end(j.span, now);
        (j.done.take(), result)
    };
    if let Some(done) = done {
        done(engine, result);
    }
}

/// Abort a creation whose VM is already resident: destroy it, release the
/// lease, drop the record.
fn abort_creation(engine: &mut Engine, job: &JobRef, err: PlantError) {
    if crashed_out(engine, job) {
        return;
    }
    let (plant, hv, host, spec, clone_dir, vmid) = {
        let j = job.borrow();
        let plant = j.plant.clone();
        let state = plant.inner.borrow();
        let hv = Rc::clone(&state.hypervisor);
        let host = state.host.clone();
        drop(state);
        (
            plant,
            hv,
            host,
            j.order.spec.clone(),
            j.clone_dir.clone(),
            j.vmid.clone(),
        )
    };
    {
        let mut state = plant.inner.borrow_mut();
        if let Some(record) = state.info.get_mut(&vmid) {
            record.transition(VmState::Failed(err.to_string()));
        }
    }
    let job2 = Rc::clone(job);
    hv.destroy(
        engine,
        &host,
        &spec,
        &clone_dir,
        Box::new(move |engine, _| {
            if crashed_out(engine, &job2) {
                return;
            }
            let done = {
                let mut j = job2.borrow_mut();
                j.plant.inner.borrow_mut().drop_vm(&j.vmid);
                j.obs.span_attr(j.span, "outcome", "failed");
                j.obs.span_end(j.span, engine.now());
                j.done.take()
            };
            if let Some(done) = done {
                done(engine, Err(err));
            }
        }),
    );
}

/// Abort a creation whose clone never became resident (the backend already
/// released the memory registration): just reclaim lease, files, record.
fn cleanup_without_destroy(engine: &mut Engine, job: &JobRef, err: PlantError) {
    if crashed_out(engine, job) {
        return;
    }
    let done = {
        let mut j = job.borrow_mut();
        let plant = j.plant.clone();
        {
            let mut state = plant.inner.borrow_mut();
            state.host.disk.remove_tree(&format!("{}/", j.clone_dir));
            state.drop_vm(&j.vmid);
        }
        j.obs.span_attr(j.span, "outcome", "failed");
        j.obs.span_end(j.span, engine.now());
        j.done.take()
    };
    if let Some(done) = done {
        done(engine, Err(err));
    }
}

/// Entry point called by [`Plant::collect`].
pub(crate) fn collect_vm(plant: Plant, engine: &mut Engine, id: VmId, done: DoneAd) {
    let found = {
        let mut guard = plant.inner.borrow_mut();
        let state = &mut *guard;
        let classad = state.info.classad(&id, engine.now(), &state.host);
        match (classad, state.info.get_mut(&id)) {
            (Some(classad), Some(record)) => {
                // Until the record is dropped below, the VM takes no
                // further publish, migrate or collect.
                record.begin_collect();
                Some((
                    Rc::clone(&state.hypervisor),
                    state.host.clone(),
                    record.spec.clone(),
                    record.clone_dir.clone(),
                    classad,
                ))
            }
            _ => None,
        }
    };
    // The record can vanish between the caller's check and this call
    // when a crash drains the information system.
    let Some((hv, host, spec, clone_dir, mut classad)) = found else {
        return fail_now(engine, done, PlantError::UnknownVm(id));
    };
    let plant2 = plant.clone();
    let epoch = plant.inner.borrow().epoch;
    hv.destroy(
        engine,
        &host,
        &spec,
        &clone_dir,
        Box::new(move |engine, res| {
            {
                let mut state = plant2.inner.borrow_mut();
                if state.epoch == epoch {
                    // The record is dropped below, so its classad is not
                    // rewritten to `collected`; only the step is checked.
                    if let Some(record) = state.info.get(&id) {
                        record.check_transition(&VmState::Collected);
                    }
                    state.drop_vm(&id);
                }
            }
            classad.set_value("state", state_value(&VmState::Collected));
            classad.set_value("collected_s", engine.now().as_secs_f64());
            match res {
                Ok(()) => done(engine, Ok(classad)),
                Err(e) => done(engine, Err(PlantError::Virt(e))),
            }
        }),
    );
}
