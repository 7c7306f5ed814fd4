//! The two simulated VMM backends behind one trait.
//!
//! * [`VmwareLike`] — §4.1's VMware GSX production line: clone by
//!   symlinking the 16 base-disk extents, copying the config file, base
//!   redo log and memory-state file, then **resuming** the checkpoint.
//!   "The memory state … needs to be copied because of an
//!   implementation-dependent restriction imposed by VMware GSX" (footnote
//!   2) — which is exactly why larger-memory VMs clone slower in Figure 4.
//! * [`UmlLike`] — the UML production line: copy-on-write overlay plus a
//!   full **boot** ("the current UML production line boots the virtual
//!   machine after cloning", §4.1), giving the 76 s average of §4.3.
//!
//! Both also support the *baseline* strategy (full disk copy instead of
//! links) so experiment E4 can compare the two.

use std::cell::RefCell;
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
    /// Bytes physically copied (config + redo + memory state, or the whole
    /// disk in full-copy mode).
    pub copied_bytes: u64,
    /// Symlinks (or COW overlays) created instead of copies.
    pub links_created: usize,
    /// Link + copy phase duration.
    pub transfer: SimDuration,
    /// Resume (VMware-like) or boot (UML-like) duration.
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

/// How a backend materializes the base virtual disk for a clone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskStrategy {
    /// Symbolic links / COW overlays sharing the golden disk (the paper's
    /// mechanism).
    Linked,
    /// Full copy of every extent — the baseline of §4.3's "210 seconds"
    /// comparison.
    FullCopy,
}

/// A simulated virtual machine monitor.
pub trait Hypervisor {
    /// Which technology this backend provides.
    fn vmm_type(&self) -> VmmType;

    /// Clone `image` into `clone_dir` on `host` and bring the VM to the
    /// running state. Registers the VM's memory with the host on success.
    #[allow(clippy::too_many_arguments)]
    fn instantiate(
        &self,
        engine: &mut Engine,
        image: &ImageFiles,
        spec: &VmSpec,
        host: &Host,
        nfs: &NfsServer,
        clone_dir: &str,
        done: Done<CloneStats>,
    );

    /// Execute one configuration script in the (running) guest via the
    /// ISO/CD-ROM path.
    fn exec_script(
        &self,
        engine: &mut Engine,
        host: &Host,
        spec: &VmSpec,
        clone_dir: &str,
        script: &GuestScript,
        done: Done<ExecStats>,
    );

    /// Tear a VM down: unregister its memory and reclaim its files.
    fn destroy(
        &self,
        engine: &mut Engine,
        host: &Host,
        spec: &VmSpec,
        clone_dir: &str,
        done: Done<()>,
    );

    /// Attach an observability handle and the track clone-phase spans are
    /// drawn on. Backends record their phase breakdown (`clone_disk`,
    /// `copy_vmss`, `resume`/`boot`, `guest_script`) under the *ambient*
    /// parent span pinned by the caller around `instantiate`/`exec_script`
    /// (the trait signatures stay parent-free). Default: no-op.
    fn set_obs(&self, _obs: &Obs, _track: TrackId) {}
}

/// State shared by both backend implementations.
struct BackendCore {
    timing: TimingModel,
    rng: Rc<RefCell<SimRng>>,
    disk_strategy: DiskStrategy,
    /// Probability any single guest script execution fails (fault
    /// injection for error-policy tests; 0 by default).
    exec_failure_rate: f64,
    /// Monotonic nonce for synthesized guest outputs.
    nonce: std::cell::Cell<u64>,
    /// Observability handle (disabled by default) and the track the phase
    /// spans land on. Interior-mutable because the trait hands out `&self`.
    obs: RefCell<Obs>,
    obs_track: std::cell::Cell<TrackId>,
}

impl BackendCore {
    fn new(timing: TimingModel, rng: Rc<RefCell<SimRng>>) -> BackendCore {
        BackendCore {
            timing,
            rng,
            disk_strategy: DiskStrategy::Linked,
            exec_failure_rate: 0.0,
            nonce: std::cell::Cell::new(0),
            obs: RefCell::new(Obs::disabled()),
            obs_track: std::cell::Cell::new(TrackId::DEFAULT),
        }
    }

    fn set_obs(&self, obs: &Obs, track: TrackId) {
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

    /// Shared guest-script execution path (identical for both VMMs: ISO,
    /// attach, poll, run, collect).
    fn exec_script_impl(
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

    fn destroy_impl(
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

/// Plan of the transfer phase, shared by both backends.
struct TransferPlan {
    copy_pairs: Vec<(String, String)>,
    links: Vec<(String, Rc<str>)>,
}

fn build_transfer_plan(
    image: &ImageFiles,
    clone_dir: &str,
    strategy: DiskStrategy,
) -> TransferPlan {
    let mut copy_pairs = image.copy_set(clone_dir);
    let mut links = Vec::new();
    match strategy {
        DiskStrategy::Linked => {
            links = image.link_set(clone_dir);
        }
        DiskStrategy::FullCopy => {
            let clone_dir = clone_dir.trim_end_matches('/');
            for src in &image.disk_extents {
                let file_name = src.rsplit('/').next().expect("non-empty path");
                copy_pairs.push((String::from(&**src), [clone_dir, "/", file_name].concat()));
            }
        }
    }
    TransferPlan {
        copy_pairs,
        links,
    }
}

/// The VMware-GSX-like backend.
pub struct VmwareLike {
    core: BackendCore,
}

impl VmwareLike {
    /// Backend with the default timing model.
    pub fn new(rng: Rc<RefCell<SimRng>>) -> VmwareLike {
        VmwareLike::with_timing(TimingModel::default(), rng)
    }

    /// Backend with an explicit timing model (ablations).
    pub fn with_timing(timing: TimingModel, rng: Rc<RefCell<SimRng>>) -> VmwareLike {
        VmwareLike {
            core: BackendCore::new(timing, rng),
        }
    }

    /// Switch between linked and full-copy disk strategies (experiment E4).
    pub fn set_disk_strategy(&mut self, strategy: DiskStrategy) {
        self.core.disk_strategy = strategy;
    }

    /// Enable fault injection on guest scripts.
    pub fn set_exec_failure_rate(&mut self, rate: f64) {
        self.core.exec_failure_rate = rate.clamp(0.0, 1.0);
    }
}

impl Hypervisor for VmwareLike {
    fn vmm_type(&self) -> VmmType {
        VmmType::VmwareLike
    }

    fn set_obs(&self, obs: &Obs, track: TrackId) {
        self.core.set_obs(obs, track);
    }

    fn instantiate(
        &self,
        engine: &mut Engine,
        image: &ImageFiles,
        spec: &VmSpec,
        host: &Host,
        nfs: &NfsServer,
        clone_dir: &str,
        done: Done<CloneStats>,
    ) {
        if spec.vmm != VmmType::VmwareLike {
            let msg = format!("VmwareLike cannot host a {} VM", spec.vmm);
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(engine, Err(VirtError::UnsupportedSpec(msg)))
            });
            return;
        }
        if image.memory_state.is_none() {
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(
                    engine,
                    Err(VirtError::UnsupportedSpec(
                        "image has no memory state to resume from".into(),
                    )),
                )
            });
            return;
        }
        if !host.is_up() {
            let err = VirtError::HostDown(host.name());
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        let started = engine.now();
        let octx = self.core.obs_ctx();
        let plan = build_transfer_plan(image, clone_dir, self.core.disk_strategy);
        // The VM's memory is committed up front (GSX reserves it when the
        // clone is registered), so the clone itself feels the pressure it
        // creates — this is the Figure 6 mechanism.
        let epoch = host.boot_epoch();
        host.register_vm(spec.memory_mb);
        let pressure = host.pressure_factor();
        let link_time = self
            .core
            .timing
            .sample_links(&mut self.core.rng.borrow_mut(), plan.links.len());
        let timing = self.core.timing.clone();
        let rng = Rc::clone(&self.core.rng);
        let host2 = host.clone();
        let nfs2 = nfs.clone();
        let mem = spec.memory_mb;
        let links = plan.links;
        let copy_pairs = plan.copy_pairs;

        engine.schedule(link_time, move |engine| {
            if !host2.same_boot(epoch) {
                // Crashed while linking; the crash already zeroed the books.
                return done(engine, Err(VirtError::HostDown(host2.name())));
            }
            let links_created = links.len();
            for (link, target) in links {
                host2.disk.link(link, target);
            }
            let copy_started = engine.now();
            let host3 = host2.clone();
            let link_span = octx.span("clone_disk", started, copy_started);
            octx.obs.span_attr(link_span, "links", links_created);
            nfs2.fetch_all(
                engine,
                copy_pairs,
                &host3.disk.clone(),
                move |engine, res| {
                    if !host3.same_boot(epoch) {
                        return done(engine, Err(VirtError::HostDown(host3.name())));
                    }
                    let copied = match res {
                        Ok(b) => b,
                        Err(e) => {
                            host3.unregister_vm_epoch(mem, epoch);
                            done(engine, Err(VirtError::Io(e)));
                            return;
                        }
                    };
                    // The write side can bound the copy: at high warehouse
                    // bandwidths the node's local SCSI disk (pipelined with
                    // the network) becomes the bottleneck.
                    let copy_elapsed = engine.now().since(copy_started);
                    let disk_floor = SimDuration::from_secs_f64(
                        copied as f64 / host3.spec().disk_bw,
                    );
                    let disk_wait = disk_floor.saturating_sub(copy_elapsed);
                    // Page-cache write pressure and cluster noise stretch
                    // the copy beyond the raw transfer time.
                    let (settle, resume) = {
                        let mut rng = rng.borrow_mut();
                        let noise = timing.sample_copy_noise(&mut rng);
                        let stretch =
                            (TimingModel::copy_pressure_factor(pressure) * noise - 1.0).max(0.0);
                        (
                            disk_wait + copy_elapsed.max(disk_floor).mul_f64(stretch),
                            timing.sample_resume(&mut rng, mem, host3.pressure_factor()),
                        )
                    };
                    // The settle (I/O) runs gate-free; the resume itself is
                    // CPU-bound and holds one of the node's CPU slots, so
                    // concurrent clones on one host serialize here.
                    engine.schedule(settle, move |engine| {
                        let copy_span = octx.span("copy_vmss", copy_started, engine.now());
                        octx.obs.span_attr(copy_span, "bytes", copied);
                        let gate = host3.cpu_gate.clone();
                        let gate_release = gate.clone();
                        gate.acquire(engine, move |engine| {
                            engine.schedule(resume, move |engine| {
                                gate_release.release(engine);
                                if !host3.same_boot(epoch) {
                                    return done(
                                        engine,
                                        Err(VirtError::HostDown(host3.name())),
                                    );
                                }
                                let now = engine.now();
                                octx.span(
                                    "resume",
                                    SimTime::from_millis(
                                        now.as_millis() - resume.as_millis(),
                                    ),
                                    now,
                                );
                                let total = engine.now().since(started);
                                done(
                                    engine,
                                    Ok(CloneStats {
                                        copied_bytes: copied,
                                        links_created,
                                        transfer: total.saturating_sub(resume),
                                        activate: resume,
                                        total,
                                    }),
                                );
                            });
                        });
                    });
                },
            );
        });
    }

    fn exec_script(
        &self,
        engine: &mut Engine,
        host: &Host,
        _spec: &VmSpec,
        clone_dir: &str,
        script: &GuestScript,
        done: Done<ExecStats>,
    ) {
        self.core.exec_script_impl(engine, host, clone_dir, script, done);
    }

    fn destroy(
        &self,
        engine: &mut Engine,
        host: &Host,
        spec: &VmSpec,
        clone_dir: &str,
        done: Done<()>,
    ) {
        self.core.destroy_impl(engine, host, spec, clone_dir, done);
    }
}

/// The User-Mode-Linux-like backend.
///
/// By default clones boot from scratch (the prototype's behaviour). When
/// the golden image carries an SBUML-style memory snapshot
/// ([`crate::image::ImageFiles::plan_uml_checkpoint`]) and
/// [`UmlLike::set_checkpoint_resume`] is enabled, clones resume from the
/// snapshot instead — the §4.3 "on-going experimental studies" path.
pub struct UmlLike {
    core: BackendCore,
    checkpoint_resume: bool,
}

impl UmlLike {
    /// Backend with the default timing model.
    pub fn new(rng: Rc<RefCell<SimRng>>) -> UmlLike {
        UmlLike::with_timing(TimingModel::default(), rng)
    }

    /// Backend with an explicit timing model.
    pub fn with_timing(timing: TimingModel, rng: Rc<RefCell<SimRng>>) -> UmlLike {
        UmlLike {
            core: BackendCore::new(timing, rng),
            checkpoint_resume: false,
        }
    }

    /// Enable fault injection on guest scripts.
    pub fn set_exec_failure_rate(&mut self, rate: f64) {
        self.core.exec_failure_rate = rate.clamp(0.0, 1.0);
    }

    /// Enable SBUML-style checkpoint resume for images that carry a
    /// memory snapshot (no effect on snapshot-less images).
    pub fn set_checkpoint_resume(&mut self, enabled: bool) {
        self.checkpoint_resume = enabled;
    }
}

impl Hypervisor for UmlLike {
    fn vmm_type(&self) -> VmmType {
        VmmType::UmlLike
    }

    fn set_obs(&self, obs: &Obs, track: TrackId) {
        self.core.set_obs(obs, track);
    }

    fn instantiate(
        &self,
        engine: &mut Engine,
        image: &ImageFiles,
        spec: &VmSpec,
        host: &Host,
        nfs: &NfsServer,
        clone_dir: &str,
        done: Done<CloneStats>,
    ) {
        if spec.vmm != VmmType::UmlLike {
            let msg = format!("UmlLike cannot host a {} VM", spec.vmm);
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(engine, Err(VirtError::UnsupportedSpec(msg)))
            });
            return;
        }
        if !host.is_up() {
            let err = VirtError::HostDown(host.name());
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        let started = engine.now();
        let octx = self.core.obs_ctx();
        let plan = build_transfer_plan(image, clone_dir, DiskStrategy::Linked);
        let epoch = host.boot_epoch();
        host.register_vm(spec.memory_mb);
        let (cow, link_time) = {
            let mut rng = self.core.rng.borrow_mut();
            (
                self.core.timing.sample_cow_setup(&mut rng),
                self.core
                    .timing
                    .sample_links(&mut rng, plan.links.len()),
            )
        };
        let timing = self.core.timing.clone();
        let rng = Rc::clone(&self.core.rng);
        let host2 = host.clone();
        let nfs2 = nfs.clone();
        let mem = spec.memory_mb;
        let links = plan.links;
        let copy_pairs = plan.copy_pairs;
        let resume_from_snapshot = self.checkpoint_resume && image.memory_state.is_some();
        engine.schedule(cow + link_time, move |engine| {
            if !host2.same_boot(epoch) {
                return done(engine, Err(VirtError::HostDown(host2.name())));
            }
            // COW overlays: a fresh (empty) overlay file per extent plus
            // read-only links to the shared base.
            let links_created = links.len();
            for (link, target) in links {
                let overlay = format!("{link}.cow");
                host2.disk.link(link, target);
                let _ = host2.disk.put(overlay, 4 * 1024, FileKind::RedoLog);
            }
            let host3 = host2.clone();
            let copy_started = engine.now();
            let link_span = octx.span("clone_disk", started, copy_started);
            octx.obs.span_attr(link_span, "links", links_created);
            nfs2.fetch_all(engine, copy_pairs, &host3.disk.clone(), move |engine, res| {
                if !host3.same_boot(epoch) {
                    return done(engine, Err(VirtError::HostDown(host3.name())));
                }
                let copied = match res {
                    Ok(b) => b,
                    Err(e) => {
                        host3.unregister_vm_epoch(mem, epoch);
                        done(engine, Err(VirtError::Io(e)));
                        return;
                    }
                };
                let copy_span = octx.span("copy_state", copy_started, engine.now());
                octx.obs.span_attr(copy_span, "bytes", copied);
                let boot = if resume_from_snapshot {
                    timing.sample_resume(&mut rng.borrow_mut(), mem, host3.pressure_factor())
                } else {
                    timing.sample_boot(&mut rng.borrow_mut(), mem, host3.pressure_factor())
                };
                // Booting is CPU-bound: hold one of the node's CPU slots.
                let gate = host3.cpu_gate.clone();
                let gate_release = gate.clone();
                gate.acquire(engine, move |engine| {
                    engine.schedule(boot, move |engine| {
                        gate_release.release(engine);
                        if !host3.same_boot(epoch) {
                            return done(engine, Err(VirtError::HostDown(host3.name())));
                        }
                        let now = engine.now();
                        octx.span(
                            if resume_from_snapshot { "resume" } else { "boot" },
                            SimTime::from_millis(now.as_millis() - boot.as_millis()),
                            now,
                        );
                        let total = engine.now().since(started);
                        done(
                            engine,
                            Ok(CloneStats {
                                copied_bytes: copied,
                                links_created,
                                transfer: total.saturating_sub(boot),
                                activate: boot,
                                total,
                            }),
                        );
                    });
                });
            });
        });
    }

    fn exec_script(
        &self,
        engine: &mut Engine,
        host: &Host,
        _spec: &VmSpec,
        clone_dir: &str,
        script: &GuestScript,
        done: Done<ExecStats>,
    ) {
        self.core.exec_script_impl(engine, host, clone_dir, script, done);
    }

    fn destroy(
        &self,
        engine: &mut Engine,
        host: &Host,
        spec: &VmSpec,
        clone_dir: &str,
        done: Done<()>,
    ) {
        self.core.destroy_impl(engine, host, spec, clone_dir, done);
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
        hv: &dyn Hypervisor,
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
        let hv = VmwareLike::new(rng);
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
        let hv = VmwareLike::new(rng);
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
    fn full_copy_strategy_reproduces_the_210s_baseline() {
        let (mut engine, host, nfs, _) = setup();
        // This envelope test is sample-path sensitive; seed 17 is a
        // representative path for the in-tree xoshiro256++ stream.
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(17)));
        let img = golden(&nfs, VmmType::VmwareLike, 256);
        let mut hv = VmwareLike::new(rng);
        hv.set_disk_strategy(DiskStrategy::FullCopy);
        let stats = run_instantiate(
            &hv,
            &mut engine,
            &img,
            &VmSpec::mandrake(256),
            &host,
            &nfs,
        )
        .unwrap();
        let secs = stats.total.as_secs_f64();
        assert!(
            (215.0..260.0).contains(&secs),
            "full copy took {secs}s (2GB disk + 256MB memory + resume)"
        );
        assert_eq!(stats.links_created, 0);
        assert!(stats.copied_bytes > gb(2));
    }

    #[test]
    fn uml_clone_boots_in_about_76_seconds() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::UmlLike, 32);
        let hv = UmlLike::new(rng);
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
        let mut hv = UmlLike::new(rng);
        hv.set_checkpoint_resume(true);
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
        // Without the flag, the same image still boots.
        let rng2 = Rc::new(RefCell::new(SimRng::seed_from_u64(43)));
        let hv_boot = UmlLike::new(rng2);
        let boot_stats =
            run_instantiate(&hv_boot, &mut engine, &img, &VmSpec::uml(32), &host, &nfs).unwrap();
        assert!(boot_stats.total.as_secs_f64() > 60.0);
    }

    #[test]
    fn wrong_vmm_type_is_rejected() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 32);
        let hv = VmwareLike::new(rng);
        let err =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::uml(32), &host, &nfs).unwrap_err();
        assert!(matches!(err, VirtError::UnsupportedSpec(_)));
        assert_eq!(host.vm_count(), 0, "no registration on failure");
    }

    #[test]
    fn missing_golden_files_fail_and_release_memory() {
        let (mut engine, host, nfs, rng) = setup();
        // Plan but do not materialize: the fetch will fail.
        let img = ImageFiles::plan("/warehouse/ghost", VmmType::VmwareLike, 32, gb(2));
        let hv = VmwareLike::new(rng);
        let err =
            run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(32), &host, &nfs).unwrap_err();
        assert!(matches!(err, VirtError::Io(_)));
        assert_eq!(host.vm_count(), 0, "memory released on failure");
    }

    #[test]
    fn exec_script_runs_and_reports_outputs() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 32);
        let hv = VmwareLike::new(rng);
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
            &VmSpec::mandrake(32),
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
        let mut hv = VmwareLike::new(rng);
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
            &VmSpec::mandrake(32),
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
        let hv = VmwareLike::new(rng);
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
        let hv = VmwareLike::new(rng);
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
        let hv = VmwareLike::new(rng);
        host.crash();
        let res = run_instantiate(&hv, &mut engine, &img, &VmSpec::mandrake(64), &host, &nfs);
        assert!(matches!(res, Err(VirtError::HostDown(_))));
        assert_eq!(host.vm_count(), 0);
    }

    #[test]
    fn destroy_releases_everything() {
        let (mut engine, host, nfs, rng) = setup();
        let img = golden(&nfs, VmmType::VmwareLike, 64);
        let hv = VmwareLike::new(rng);
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
        // Sample-path-sensitive ratio check; see the full-copy test above.
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(17)));
        let loaded = Host::new(HostSpec::e1350_node("node1"));
        for _ in 0..15 {
            loaded.register_vm(64);
        }
        let img = golden(&nfs, VmmType::VmwareLike, 64);
        let hv = VmwareLike::new(rng);
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
