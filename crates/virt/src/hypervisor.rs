//! The simulated VMM backend serving both of §4.1's production lines.
//!
//! One [`Hypervisor`] runs one clone lifecycle — link the golden disk,
//! fetch the small state files over NFS, hold a CPU slot, activate — and
//! branches on the spec's [`VmmType`] only where the lines differ:
//!
//! * VMware GSX: copy the config file, base redo log and memory-state
//!   file, let the copy settle against the local disk, then **resume** the
//!   checkpoint. "The memory state … needs to be copied because of an
//!   implementation-dependent restriction imposed by VMware GSX" (footnote
//!   2) — which is exactly why larger-memory VMs clone slower in Figure 4.
//! * UML: add a copy-on-write overlay per extent, then **boot** ("the
//!   current UML production line boots the virtual machine after
//!   cloning", §4.1), giving the 76 s average of §4.3 — or resume, when
//!   the image carries an SBUML-style memory snapshot
//!   ([`ImageFiles::plan_uml_checkpoint`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use vmplants_cluster::files::{FileKind, StoreError};
use vmplants_cluster::host::Host;
use vmplants_cluster::nfs::NfsServer;
use vmplants_simkit::obs::{Obs, SpanId, TrackId};
use vmplants_simkit::{Engine, SimDuration, SimRng, SimTime};

use crate::guest::GuestScript;
use crate::image::ImageFiles;
use crate::timing::TimingModel;
use crate::vm::{VmSpec, VmmType};

/// Errors surfaced by the backends.
#[derive(Clone, Debug, PartialEq)]
pub enum VirtError {
    /// A file operation failed (missing golden file, disk full, …).
    Io(StoreError),
    /// The spec cannot be served by this backend.
    UnsupportedSpec(String),
    /// A guest script reported failure.
    GuestFailure {
        /// DAG node label of the failing action.
        action_id: String,
        /// The daemon's error report.
        reason: String,
    },
    /// The host crashed (or was already down) while the operation ran.
    HostDown(String),
}

impl std::fmt::Display for VirtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VirtError::Io(e) => write!(f, "I/O error: {e}"),
            VirtError::UnsupportedSpec(msg) => write!(f, "unsupported spec: {msg}"),
            VirtError::GuestFailure { action_id, reason } => {
                write!(f, "guest action '{action_id}' failed: {reason}")
            }
            VirtError::HostDown(name) => write!(f, "host {name} is down"),
        }
    }
}

impl std::error::Error for VirtError {}

impl From<StoreError> for VirtError {
    fn from(e: StoreError) -> Self {
        VirtError::Io(e)
    }
}

/// Completion callback type used across the backends.
pub type Done<T> = Box<dyn FnOnce(&mut Engine, Result<T, VirtError>)>;

/// Timing breakdown of a clone-and-activate operation, the quantity behind
/// Figures 5 and 6.
#[derive(Clone, Debug, PartialEq)]
pub struct CloneStats {
    /// Bytes physically copied (config, plus redo log and memory state
    /// where the image has them).
    pub copied_bytes: u64,
    /// Symlinks (or COW overlays) created instead of copies.
    pub links_created: usize,
    /// Link + copy phase duration.
    pub transfer: SimDuration,
    /// Resume (VMware-like, checkpointed UML) or boot (UML-like) duration.
    pub activate: SimDuration,
    /// End-to-end: request to VM running.
    pub total: SimDuration,
}

/// Result of one guest script execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecStats {
    /// Wall time of the ISO round plus the script run.
    pub duration: SimDuration,
    /// `(attribute, value)` outputs reported by the guest daemon.
    pub outputs: Vec<(String, String)>,
}

/// The simulated VMM: one backend for both production lines, sharing one
/// timing model and one random stream.
pub struct Hypervisor {
    timing: TimingModel,
    rng: Rc<RefCell<SimRng>>,
    /// Probability any single guest script execution fails (fault
    /// injection for error-policy tests; 0 by default).
    exec_failure_rate: f64,
    /// Monotonic nonce for synthesized guest outputs.
    nonce: Cell<u64>,
    /// Observability handle (disabled by default) and the track the phase
    /// spans land on. Interior-mutable so a shared backend can be wired up.
    obs: RefCell<Obs>,
    obs_track: Cell<TrackId>,
}

impl Hypervisor {
    /// Backend with the default timing model.
    pub fn new(rng: Rc<RefCell<SimRng>>) -> Hypervisor {
        Hypervisor::with_timing(TimingModel::default(), rng)
    }

    /// Backend with an explicit timing model (ablations).
    pub fn with_timing(timing: TimingModel, rng: Rc<RefCell<SimRng>>) -> Hypervisor {
        Hypervisor {
            timing,
            rng,
            exec_failure_rate: 0.0,
            nonce: Cell::new(0),
            obs: RefCell::new(Obs::disabled()),
            obs_track: Cell::new(TrackId::DEFAULT),
        }
    }

    /// Enable fault injection on guest scripts.
    pub fn set_exec_failure_rate(&mut self, rate: f64) {
        self.exec_failure_rate = rate.clamp(0.0, 1.0);
    }

    /// Attach an observability handle and the track clone-phase spans are
    /// drawn on. The phase breakdown (`clone_disk`, `copy_vmss`/`copy_state`,
    /// `resume`/`boot`, `guest_script`) is recorded under the *ambient*
    /// parent span pinned by the caller around `instantiate`/`exec_script`.
    pub fn set_obs(&self, obs: &Obs, track: TrackId) {
        *self.obs.borrow_mut() = obs.clone();
        self.obs_track.set(track);
    }

    /// Snapshot `(obs, track, ambient parent)` synchronously on entry to an
    /// instrumented operation; the ambient pin is only valid during the
    /// caller's stack frame, never across scheduled callbacks.
    fn obs_ctx(&self) -> ObsCtx {
        let obs = self.obs.borrow().clone();
        let parent = obs.ambient();
        ObsCtx {
            parent,
            track: self.obs_track.get(),
            obs,
        }
    }

    fn next_nonce(&self) -> u64 {
        let n = self.nonce.get();
        self.nonce.set(n + 1);
        n
    }

    /// Clone `image` into `clone_dir` on `host` and bring the VM to the
    /// running state. Registers the VM's memory with the host on success.
    /// The image must be laid out for `spec.vmm`: only VMware-like images
    /// carry a base redo log, and a VMware clone needs a memory state to
    /// resume from.
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        &self,
        engine: &mut Engine,
        image: &ImageFiles,
        spec: &VmSpec,
        host: &Host,
        nfs: &NfsServer,
        clone_dir: &str,
        done: Done<CloneStats>,
    ) {
        let uml = spec.vmm == VmmType::UmlLike;
        let refusal = match spec.vmm {
            VmmType::UmlLike if image.base_redo.is_some() => {
                Some("a UML VM cannot clone a VMware image")
            }
            VmmType::VmwareLike if image.base_redo.is_none() || image.memory_state.is_none() => {
                Some("image has no VMware checkpoint to resume from")
            }
            _ => None,
        };
        if let Some(msg) = refusal {
            let err = VirtError::UnsupportedSpec(msg.into());
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        if !host.is_up() {
            let err = VirtError::HostDown(host.name());
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        let started = engine.now();
        let octx = self.obs_ctx();
        let copy_pairs = image.copy_set(clone_dir);
        let links = image.link_set(clone_dir);
        // The VM's memory is committed up front (GSX reserves it when the
        // clone is registered), so the clone itself feels the pressure it
        // creates — this is the Figure 6 mechanism.
        let epoch = host.boot_epoch();
        host.register_vm(spec.memory_mb);
        let pressure = host.pressure_factor();
        let setup = {
            let mut rng = self.rng.borrow_mut();
            let cow = if uml {
                self.timing.sample_cow_setup(&mut rng)
            } else {
                SimDuration::ZERO
            };
            cow + self.timing.sample_links(&mut rng, links.len())
        };
        let resumes = image.memory_state.is_some();
        let timing = self.timing.clone();
        let rng = Rc::clone(&self.rng);
        let host = host.clone();
        let nfs = nfs.clone();
        let mem = spec.memory_mb;

        engine.schedule(setup, move |engine| {
            if !host.same_boot(epoch) {
                // Crashed while linking; the crash already zeroed the books.
                return done(engine, Err(VirtError::HostDown(host.name())));
            }
            let links_created = links.len();
            for (link, target) in links {
                // UML clones write to a fresh (empty) overlay per extent.
                let overlay = uml.then(|| format!("{link}.cow"));
                host.disk.link(link, target);
                if let Some(overlay) = overlay {
                    let _ = host.disk.put(overlay, 4 * 1024, FileKind::RedoLog);
                }
            }
            let copy_started = engine.now();
            let link_span = octx.span("clone_disk", started, copy_started);
            octx.obs.span_attr(link_span, "links", links_created);
            let disk = host.disk.clone();
            nfs.fetch_all(engine, copy_pairs, &disk, move |engine, res| {
                if !host.same_boot(epoch) {
                    return done(engine, Err(VirtError::HostDown(host.name())));
                }
                let copied = match res {
                    Ok(b) => b,
                    Err(e) => {
                        host.unregister_vm_epoch(mem, epoch);
                        return done(engine, Err(VirtError::Io(e)));
                    }
                };
                let (settle, activate) = {
                    let mut rng = rng.borrow_mut();
                    // VMware's write side can bound the copy: at high
                    // warehouse bandwidths the node's local SCSI disk
                    // (pipelined with the network) becomes the bottleneck,
                    // and page-cache write pressure and cluster noise
                    // stretch the copy beyond the raw transfer time.
                    let settle = (!uml).then(|| {
                        let copy_elapsed = engine.now().since(copy_started);
                        let disk_floor =
                            SimDuration::from_secs_f64(copied as f64 / host.spec().disk_bw);
                        let noise = timing.sample_copy_noise(&mut rng);
                        let stretch =
                            (TimingModel::copy_pressure_factor(pressure) * noise - 1.0).max(0.0);
                        disk_floor.saturating_sub(copy_elapsed)
                            + copy_elapsed.max(disk_floor).mul_f64(stretch)
                    });
                    let activate = if resumes {
                        timing.sample_resume(&mut rng, mem, host.pressure_factor())
                    } else {
                        timing.sample_boot(&mut rng, mem, host.pressure_factor())
                    };
                    (settle, activate)
                };
                // The settle (I/O) runs gate-free; activation is CPU-bound
                // and holds one of the node's CPU slots, so concurrent
                // clones on one host serialize here.
                let run = move |engine: &mut Engine| {
                    let copy_name = if uml { "copy_state" } else { "copy_vmss" };
                    let copy_span = octx.span(copy_name, copy_started, engine.now());
                    octx.obs.span_attr(copy_span, "bytes", copied);
                    let gate = host.cpu_gate.clone();
                    let gate_release = gate.clone();
                    gate.acquire(engine, move |engine| {
                        engine.schedule(activate, move |engine| {
                            gate_release.release(engine);
                            if !host.same_boot(epoch) {
                                return done(engine, Err(VirtError::HostDown(host.name())));
                            }
                            let now = engine.now();
                            octx.span(
                                if resumes { "resume" } else { "boot" },
                                SimTime::from_millis(now.as_millis() - activate.as_millis()),
                                now,
                            );
                            let total = now.since(started);
                            done(
                                engine,
                                Ok(CloneStats {
                                    copied_bytes: copied,
                                    links_created,
                                    transfer: total.saturating_sub(activate),
                                    activate,
                                    total,
                                }),
                            );
                        });
                    });
                };
                match settle {
                    Some(settle) => {
                        engine.schedule(settle, run);
                    }
                    None => run(engine),
                }
            });
        });
    }

    /// Execute one configuration script in the (running) guest via the
    /// ISO/CD-ROM path: ISO, attach, poll, run, collect.
    pub fn exec_script(
        &self,
        engine: &mut Engine,
        host: &Host,
        clone_dir: &str,
        script: &GuestScript,
        done: Done<ExecStats>,
    ) {
        if !host.is_up() {
            let err = VirtError::HostDown(host.name());
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        let octx = self.obs_ctx();
        let epoch = host.boot_epoch();
        let pressure = host.pressure_factor();
        let (round, run, fails) = {
            let mut rng = self.rng.borrow_mut();
            (
                self.timing.sample_iso_round(&mut rng),
                self.timing
                    .sample_action(&mut rng, script.nominal_ms, pressure),
                rng.chance(self.exec_failure_rate),
            )
        };
        // The ISO appears on the host disk for the duration of the round.
        let iso_path = [
            clone_dir.trim_end_matches('/'),
            "/config-",
            &script.action_id,
            ".iso",
        ]
        .concat();
        if let Err(e) = host.disk.put(&iso_path, script.iso_bytes(), FileKind::IsoImage) {
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(engine, Err(VirtError::Io(e)))
            });
            return;
        }
        let started = engine.now();
        let outputs = script.synthesize_outputs(self.next_nonce());
        let action_id = script.action_id.clone();
        let host = host.clone();
        engine.schedule(round + run, move |engine| {
            if !host.same_boot(epoch) {
                // The crash took the guest (and the ISO) with it.
                return done(engine, Err(VirtError::HostDown(host.name())));
            }
            let _ = host.disk.remove(&iso_path);
            let span = octx.span("guest_script", started, engine.now());
            octx.obs.span_attr(span, "action", &action_id);
            if fails {
                octx.obs.span_attr(span, "outcome", "failed");
                done(
                    engine,
                    Err(VirtError::GuestFailure {
                        action_id,
                        reason: "script exited nonzero (injected)".into(),
                    }),
                );
            } else {
                done(
                    engine,
                    Ok(ExecStats {
                        duration: engine.now().since(started),
                        outputs,
                    }),
                );
            }
        });
    }

    /// Tear a VM down: unregister its memory and reclaim its files.
    pub fn destroy(
        &self,
        engine: &mut Engine,
        host: &Host,
        spec: &VmSpec,
        clone_dir: &str,
        done: Done<()>,
    ) {
        let delay = self.timing.sample_destroy(&mut self.rng.borrow_mut());
        let host = host.clone();
        let epoch = host.boot_epoch();
        let mem = spec.memory_mb;
        let dir = [clone_dir.trim_end_matches('/'), "/"].concat();
        engine.schedule(delay, move |engine| {
            if host.same_boot(epoch) {
                host.unregister_vm(mem);
                host.disk.remove_tree(&dir);
            }
            // A crash mid-destroy leaves nothing to tear down: the crash
            // handler already evicted the VM, so destroy is idempotent.
            done(engine, Ok(()));
        });
    }
}

/// Per-operation observability context: the handle, the backend's track,
/// and the ambient parent span captured synchronously at operation entry.
/// Cloned into the completion closures so phases can be recorded
/// retroactively at the instant their duration becomes known — recording
/// never consumes RNG draws or simulated time.
#[derive(Clone)]
struct ObsCtx {
    parent: SpanId,
    track: TrackId,
    obs: Obs,
}

impl ObsCtx {
    /// Record a closed phase span under the captured parent.
    fn span(&self, name: &str, start: SimTime, end: SimTime) -> SpanId {
        self.obs.span(self.parent, self.track, name, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::files::gb;
    use vmplants_cluster::host::HostSpec;

    fn setup() -> (Engine, Host, NfsServer, Rc<RefCell<SimRng>>) {
        let engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("node0"));
        let nfs = NfsServer::new("storage");
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(42)));
        (engine, host, nfs, rng)
    }

    fn golden(nfs: &NfsServer, vmm: VmmType, mem: u64) -> ImageFiles {
        let img = ImageFiles::plan(&format!("/warehouse/g{mem}"), vmm, mem, gb(2));
        img.materialize(&nfs.store, mem, gb(2)).unwrap();
        img
    }

    fn run_instantiate(
        hv: &Hypervisor,
        engine: &mut Engine,
        img: &ImageFiles,
        spec: &VmSpec,
        host: &Host,
        nfs: &NfsServer,
    ) -> Result<CloneStats, VirtError> {
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        hv.instantiate(
            engine,
            img,
            spec,
            host,
            nfs,
            "/clones/vm1",
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        engine.run();
        Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
    }

    #[test]
    fn vmware_clone_32mb_lands_near_ten_seconds() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 32);
        let hv = Hypervisor::new(rng);
        let stats =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(32), &host, &nfs).unwrap();
        let secs = stats.total.as_secs_f64();
        assert!((7.0..14.0).contains(&secs), "clone took {secs}s");
        assert_eq!(stats.links_created, 16);
        // Copied: config + redo + 32MB memory.
        assert_eq!(
            stats.copied_bytes,
            crate::image::CONFIG_BYTES + crate::image::BASE_REDO_BYTES + 32 * 1024 * 1024
        );
        assert_eq!(host.vm_count(), 1);
        // Disk extents are links, not copies: local usage far below 2 GB.
        assert!(host.disk.used_bytes() < 100 * 1024 * 1024);
    }

    #[test]
    fn vmware_clone_scales_with_memory_size() {
        let (mut engine, host, nfs, rng) = setup();
        let img32 = golden(&nfs, VmmType::VmwareLike, 32);
        let img256 = golden(&nfs, VmmType::VmwareLike, 256);
        let hv = Hypervisor::new(rng);
        let s32 =
            run_instantiate(&hv, &mut engine, &img32, &VmSpec::mandrake(32), &host, &nfs).unwrap();
        let s256 = run_instantiate(
            &hv,
            &mut engine,
            &img256,
            &VmSpec::mandrake(256),
            &host,
            &nfs,
        )
        .unwrap();
        assert!(
            s256.total.as_secs_f64() > 2.5 * s32.total.as_secs_f64(),
            "256MB ({}) should be much slower than 32MB ({})",
            s256.total,
            s32.total
        );
        let secs256 = s256.total.as_secs_f64();
        assert!((30.0..48.0).contains(&secs256), "256MB clone {secs256}s");
    }

    #[test]
    fn uml_clone_boots_in_about_76_seconds() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::UmlLike, 32);
        let hv = Hypervisor::new(rng);
        let stats = run_instantiate(&hv, &mut engine, &img, &VmSpec::uml(32), &host, &nfs).unwrap();
        let secs = stats.total.as_secs_f64();
        assert!((70.0..84.0).contains(&secs), "UML clone-and-boot {secs}s");
        assert!(stats.activate.as_secs_f64() > 60.0, "boot dominates");
    }

    #[test]
    fn uml_checkpoint_resume_skips_the_boot() {
        let (mut engine, host, nfs, rng) = setup();
        let img = ImageFiles::plan_uml_checkpoint("/warehouse/sbuml32", 32, gb(2));
        img.materialize(&nfs.store, 32, gb(2)).unwrap();
        let hv = Hypervisor::new(rng);
        let stats = run_instantiate(&hv, &mut engine, &img, &VmSpec::uml(32), &host, &nfs).unwrap();
        let secs = stats.total.as_secs_f64();
        // Resume path: ~COW setup + config/snapshot copy + resume — about
        // an order of magnitude under the 76 s boot.
        assert!((5.0..16.0).contains(&secs), "checkpoint clone {secs}s");
        // Snapshot bytes were copied (config + 32 MB memory).
        assert_eq!(
            stats.copied_bytes,
            crate::image::CONFIG_BYTES + 32 * 1024 * 1024
        );
        // The same golden without its snapshot boots.
        let plain = golden(&nfs, VmmType::UmlLike, 32);
        let hv_boot = Hypervisor::new(Rc::new(RefCell::new(SimRng::seed_from_u64(43))));
        let boot_stats =
            run_instantiate(&hv_boot, &mut engine, &plain, &VmSpec::uml(32), &host, &nfs).unwrap();
        assert!(boot_stats.total.as_secs_f64() > 60.0);
    }

    #[test]
    fn wrong_vmm_type_is_rejected() {
        let (vmware, uml) = (VmSpec::mandrake(32), VmSpec::uml(32));
        // (refused spec, the image layout it is offered, a valid spec)
        for (spec, layout, next) in [
            (&uml, VmmType::VmwareLike, &vmware),
            (&vmware, VmmType::UmlLike, &uml),
        ] {
            let clone_time = |refuse_first: bool| {
                let (mut engine, host, nfs, rng) = setup();
                let hv = Hypervisor::new(rng);
                let wrong = ImageFiles::plan("/warehouse/wrong", layout, 32, gb(2));
                wrong.materialize(&nfs.store, 32, gb(2)).unwrap();
                if refuse_first {
                    let err =
                        run_instantiate(&hv, &mut engine, &wrong, spec, &host, &nfs).unwrap_err();
                    assert!(
                        matches!(err, VirtError::UnsupportedSpec(_)),
                        "{spec:?}: {err:?}"
                    );
                    assert_eq!(host.vm_count(), 0, "no registration on failure");
                }
                let right = golden(&nfs, next.vmm, 32);
                run_instantiate(&hv, &mut engine, &right, next, &host, &nfs)
                    .unwrap()
                    .total
            };
            assert_eq!(
                clone_time(true),
                clone_time(false),
                "the refusal drew no random numbers"
            );
        }
    }

    #[test]
    fn missing_golden_files_fail_and_release_memory() {
        let (mut engine, host, nfs, rng) = setup();
        // Plan but do not materialize: the fetch will fail.
        let img = ImageFiles::plan("/warehouse/ghost", VmmType::VmwareLike, 32, gb(2));
        let hv = Hypervisor::new(rng);
        let err =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(32), &host, &nfs).unwrap_err();
        assert!(matches!(err, VirtError::Io(_)));
        assert_eq!(host.vm_count(), 0, "memory released on failure");
    }

    #[test]
    fn exec_script_runs_and_reports_outputs() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 32);
        let hv = Hypervisor::new(rng);
        run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(32), &host, &nfs).unwrap();
        let script = GuestScript {
            action_id: "D".into(),
            command: "configure-mac-ip".into(),
            params: Default::default(),
            nominal_ms: Some(2_000),
            outputs: vec!["ip_address".into()],
        };
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        let before = engine.now();
        hv.exec_script(
            &mut engine,
            &host,
            "/clones/vm1",
            &script,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        engine.run();
        let stats = out.borrow().clone().unwrap().unwrap();
        assert_eq!(stats.outputs.len(), 1);
        assert_eq!(stats.outputs[0].0, "ip_address");
        let secs = engine.now().since(before).as_secs_f64();
        assert!((2.0..15.0).contains(&secs), "exec took {secs}s");
        // The transient ISO was cleaned up.
        assert!(!host.disk.exists("/clones/vm1/config-D.iso"));
    }

    #[test]
    fn injected_failures_surface_as_guest_failures() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 32);
        let mut hv = Hypervisor::new(rng);
        hv.set_exec_failure_rate(1.0);
        run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(32), &host, &nfs).unwrap();
        let script = GuestScript {
            action_id: "E".into(),
            command: "create-user".into(),
            params: Default::default(),
            nominal_ms: None,
            outputs: vec![],
        };
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        hv.exec_script(
            &mut engine,
            &host,
            "/clones/vm1",
            &script,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        engine.run();
        let res = out.borrow().clone().unwrap();
        assert!(matches!(
            res,
            Err(VirtError::GuestFailure { ref action_id, .. }) if action_id == "E"
        ));
    }

    #[test]
    fn host_crash_mid_clone_aborts_with_typed_error() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 256);
        let hv = Hypervisor::new(rng);
        let out: Rc<RefCell<Option<Result<CloneStats, VirtError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        hv.instantiate(
            &mut engine,
            &img,
            &VmSpec::mandrake(256),
            &host,
            &nfs,
            "/clones/vm1",
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        // A 256MB clone takes ~40s; crash the host mid-copy at t=10 and
        // fail the transfer feeding it, as the plant's crash handler does.
        let h2 = host.clone();
        let n2 = nfs.clone();
        engine.schedule(SimDuration::from_secs(10), move |e| {
            h2.crash();
            n2.fail_transfers_to(e, &h2.disk);
        });
        engine.run();
        let res = out.borrow_mut().take().expect("callback ran");
        assert!(
            matches!(res, Err(VirtError::HostDown(_))),
            "got {res:?}"
        );
        // The crash zeroed the books; no stale unregister corrupted them.
        assert_eq!(host.vm_count(), 0);
        assert_eq!(host.committed_mb(), 0);
        // The CPU gate fully recovered (no leaked slots).
        assert_eq!(host.cpu_gate.free(), host.cpu_gate.capacity());
    }

    #[test]
    fn nfs_outage_mid_clone_fails_with_unavailable_and_releases_memory() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 256);
        let hv = Hypervisor::new(rng);
        let out: Rc<RefCell<Option<Result<CloneStats, VirtError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        hv.instantiate(
            &mut engine,
            &img,
            &VmSpec::mandrake(256),
            &host,
            &nfs,
            "/clones/vm1",
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        let n2 = nfs.clone();
        engine.schedule(SimDuration::from_secs(10), move |e| {
            n2.set_offline(e);
        });
        engine.run();
        let res = out.borrow_mut().take().expect("callback ran");
        assert!(
            matches!(res, Err(VirtError::Io(StoreError::Unavailable(_)))),
            "got {res:?}"
        );
        // The host survived, so the up-front memory commit was rolled back.
        assert_eq!(host.vm_count(), 0);
        assert_eq!(host.committed_mb(), 0);
    }

    #[test]
    fn instantiate_on_a_down_host_fails_immediately() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 64);
        let hv = Hypervisor::new(rng);
        host.crash();
        let res = run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(64), &host, &nfs);
        assert!(matches!(res, Err(VirtError::HostDown(_))));
        assert_eq!(host.vm_count(), 0);
    }

    #[test]
    fn destroy_releases_everything() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 64);
        let hv = Hypervisor::new(rng);
        run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(64), &host, &nfs).unwrap();
        assert_eq!(host.vm_count(), 1);
        assert!(host.disk.file_count() > 0);
        let done = Rc::new(RefCell::new(false));
        let d2 = Rc::clone(&done);
        hv.destroy(
            &mut engine,
            &host,
            &VmSpec::mandrake(64),
            "/clones/vm1",
            Box::new(move |_, res| {
                res.unwrap();
                *d2.borrow_mut() = true;
            }),
        );
        engine.run();
        assert!(*done.borrow());
        assert_eq!(host.vm_count(), 0);
        assert_eq!(host.disk.file_count(), 0);
    }

    #[test]
    fn pressure_slows_later_clones() {
        // Fill the host with 15 64MB VMs, then compare a clone on a loaded
        // host against one on a fresh host — the Figure 6 mechanism.
        let (mut engine, fresh, nfs, _) = setup();
        // This ratio check is sample-path sensitive; seed 17 is a
        // representative path for the in-tree xoshiro256++ stream.
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(17)));
        let loaded = Host::new(HostSpec::e1350_node("node1"));
        for _ in 0..15 {
            loaded.register_vm(64);
        }
        let img = golden(&nfs, VmmType::VmwareLike, 64);
        let hv = Hypervisor::new(rng);
        let fast =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(64), &fresh, &nfs).unwrap();
        let slow =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(64), &loaded, &nfs).unwrap();
        assert!(
            slow.total.as_secs_f64() > 1.4 * fast.total.as_secs_f64(),
            "loaded {} vs fresh {}",
            slow.total,
            fast.total
        );
    }
}
