//! The NFS-served VM warehouse path.
//!
//! §4.2: "The VM warehouse is accessible from each cluster node via a
//! network file system (NFS) mount served by a dual Pentium-3 … storage
//! server … connected … by a 100 Mbit/s switched Ethernet network."
//!
//! The model: one [`FairShare`] pipe (the storage server's 100 Mbit/s NIC —
//! always the bottleneck against the nodes' gigabit NICs) plus a per-file
//! request overhead covering NFS lookup/open round-trips. Calibration
//! anchor (§4.3): the 2 GB golden disk "spanned across 16 files … takes 210
//! seconds to be fully copied" ⇒ effective ~10 MB/s plus ~0.3 s/file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_simkit::obs::{Counter, Obs, SpanId, TrackId};
use vmplants_simkit::resource::{FairShare, JobId};
use vmplants_simkit::{Engine, SimDuration};

use crate::files::{FileStore, StoreError};

/// Effective NFS throughput on the 100 Mbit/s path, bytes/sec.
pub const DEFAULT_NFS_BW: f64 = 10.0 * 1024.0 * 1024.0;
/// Per-file request overhead (lookup/open/close round trips).
pub const PER_FILE_OVERHEAD: SimDuration = SimDuration::from_millis(300);

/// A transfer completion, shared between the normal path and the abort
/// path; whichever side takes it first wins.
type SharedDone = Rc<RefCell<Option<Box<dyn FnOnce(&mut Engine, TransferResult)>>>>;

/// A transfer the server is currently moving: enough to abort the pipe job
/// and fail the caller when the server (or the destination host) dies.
struct Inflight {
    /// The pipe job (None while still in the per-file-overhead window).
    job: Option<JobId>,
    /// Destination store, to support failing transfers towards one host.
    dst_store: FileStore,
    /// The caller's completion.
    done: SharedDone,
}

struct NfsState {
    name: String,
    online: bool,
    nominal_bw: f64,
    inflight: BTreeMap<u64, Inflight>,
    next_transfer: u64,
    obs: Obs,
    obs_track: TrackId,
    fetches: Counter,
    fetched_bytes: Counter,
    failed_fetches: Counter,
}

/// The storage server: a file store reachable through a shared pipe.
#[derive(Clone)]
pub struct NfsServer {
    /// The exported warehouse tree.
    pub store: FileStore,
    /// The server's network pipe (fair-shared among concurrent transfers).
    pub pipe: FairShare,
    state: Rc<RefCell<NfsState>>,
}

/// Outcome passed to transfer callbacks.
pub type TransferResult = Result<u64, StoreError>;

impl NfsServer {
    /// A server with the default §4.2 calibration.
    pub fn new(name: impl Into<String>) -> NfsServer {
        NfsServer::with_params(name, DEFAULT_NFS_BW)
    }

    /// A server with an explicit bandwidth (the E12 ablation sweeps it).
    pub(crate) fn with_params(name: impl Into<String>, bandwidth: f64) -> NfsServer {
        let name = name.into();
        NfsServer {
            store: FileStore::new(),
            pipe: FairShare::new(bandwidth),
            state: Rc::new(RefCell::new(NfsState {
                name,
                online: true,
                nominal_bw: bandwidth,
                inflight: BTreeMap::new(),
                next_transfer: 0,
                obs: Obs::disabled(),
                obs_track: TrackId::DEFAULT,
                fetches: Counter::new(),
                fetched_bytes: Counter::new(),
                failed_fetches: Counter::new(),
            })),
        }
    }

    /// Attach an observability handle: transfer counters are registered as
    /// `nfs.*` metrics and — when tracing is enabled — every completed
    /// fetch is recorded as an `nfs_fetch` span on the `nfs` track.
    pub fn set_obs(&self, obs: &Obs) {
        let mut state = self.state.borrow_mut();
        obs.register_counter("nfs.fetches", &state.fetches);
        obs.register_counter("nfs.fetched_bytes", &state.fetched_bytes);
        obs.register_counter("nfs.failed_fetches", &state.failed_fetches);
        state.obs_track = obs.track("nfs");
        state.obs = obs.clone();
    }

    /// Server name.
    pub fn name(&self) -> String {
        self.state.borrow().name.clone()
    }

    /// True when the server is reachable.
    pub(crate) fn is_online(&self) -> bool {
        self.state.borrow().online
    }

    /// Take the server offline: every in-flight transfer is aborted and
    /// fails with [`StoreError::Unavailable`]; new fetches fail immediately
    /// until [`NfsServer::set_online`].
    pub fn set_offline(&self, engine: &mut Engine) {
        let victims: Vec<Inflight> = {
            let mut state = self.state.borrow_mut();
            state.online = false;
            std::mem::take(&mut state.inflight).into_values().collect()
        };
        let name = self.name();
        for victim in victims {
            if let Some(job) = victim.job {
                self.pipe.abort(engine, job);
            }
            if let Some(done) = victim.done.borrow_mut().take() {
                let err = StoreError::Unavailable(format!("nfs server {name} offline"));
                engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            }
        }
    }

    /// Bring the server back into service at nominal bandwidth.
    pub fn set_online(&self, engine: &mut Engine) {
        let nominal = {
            let mut state = self.state.borrow_mut();
            state.online = true;
            state.nominal_bw
        };
        self.pipe.set_capacity(engine, nominal);
    }

    /// Serve at `factor` of nominal bandwidth (a degraded window; pass 1.0
    /// to restore). In-flight transfers keep their progress and share the
    /// new rate.
    pub fn set_bandwidth_factor(&self, engine: &mut Engine, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth factor must be positive"
        );
        let nominal = self.state.borrow().nominal_bw;
        self.pipe.set_capacity(engine, nominal * factor);
    }

    /// Abort and fail every in-flight transfer destined for `dst` (used
    /// when the receiving host crashes: the write side of the copy is
    /// gone, so the transfer cannot complete).
    pub fn fail_transfers_to(&self, engine: &mut Engine, dst: &FileStore) {
        let victims: Vec<Inflight> = {
            let mut state = self.state.borrow_mut();
            let ids: Vec<u64> = state
                .inflight
                .iter()
                .filter(|(_, t)| t.dst_store.same_store(dst))
                .map(|(&id, _)| id)
                .collect();
            ids.iter()
                .filter_map(|id| state.inflight.remove(id))
                .collect()
        };
        for victim in victims {
            if let Some(job) = victim.job {
                self.pipe.abort(engine, job);
            }
            if let Some(done) = victim.done.borrow_mut().take() {
                let err = StoreError::Unavailable("destination host down".into());
                engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            }
        }
    }

    /// Copy one file from the export to a destination store, consuming
    /// simulated time on the shared pipe. The destination entry appears
    /// when the transfer completes; `done` then receives the byte count.
    ///
    /// Missing sources fail *immediately* (the NFS lookup fails before any
    /// data moves).
    pub(crate) fn fetch<F>(
        &self,
        engine: &mut Engine,
        src: impl Into<Rc<str>>,
        dst_store: &FileStore,
        dst: impl Into<String>,
        done: F,
    ) where
        F: FnOnce(&mut Engine, TransferResult) + 'static,
    {
        let src = src.into();
        if !self.is_online() {
            let err = StoreError::Unavailable(format!("nfs server {} offline", self.name()));
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            return;
        }
        let (bytes, kind) = match (self.store.resolved_size(&src), self.store.resolved_kind(&src)) {
            (Ok(b), Ok(k)) => (b, k),
            (Err(e), _) | (_, Err(e)) => {
                engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(e)));
                return;
            }
        };
        let dst_store = dst_store.clone();
        let dst = dst.into();
        // Wrap the completion with the observability bookkeeping: count
        // bytes/failures and record the fetch's [start, end] window as a
        // retroactive span (both no-ops beyond a Cell store when disabled).
        let (obs, obs_track, fetched_bytes, failed_fetches) = {
            let state = self.state.borrow();
            state.fetches.inc();
            (
                state.obs.clone(),
                state.obs_track,
                state.fetched_bytes.clone(),
                state.failed_fetches.clone(),
            )
        };
        let started = engine.now();
        let done = move |engine: &mut Engine, result: TransferResult| {
            match &result {
                Ok(bytes) => {
                    fetched_bytes.add(*bytes);
                    let span =
                        obs.span(SpanId::NONE, obs_track, "nfs_fetch", started, engine.now());
                    obs.span_attr(span, "file", &src);
                    obs.span_attr(span, "bytes", bytes);
                }
                Err(e) => {
                    failed_fetches.inc();
                    let span =
                        obs.span(SpanId::NONE, obs_track, "nfs_fetch", started, engine.now());
                    obs.span_attr(span, "file", &src);
                    obs.span_attr(span, "error", e);
                }
            }
            done(engine, result)
        };
        // The completion is shared between the normal path and the failure
        // paths (outage, destination crash); whichever takes it first wins.
        let done: SharedDone = Rc::new(RefCell::new(Some(Box::new(done))));
        let transfer_id = {
            let mut state = self.state.borrow_mut();
            let id = state.next_transfer;
            state.next_transfer += 1;
            state.inflight.insert(
                id,
                Inflight {
                    job: None,
                    dst_store: dst_store.clone(),
                    done: Rc::clone(&done),
                },
            );
            id
        };
        let this = self.clone();
        // Overhead first (request round-trips), then the data on the pipe.
        engine.schedule(PER_FILE_OVERHEAD, move |engine| {
            // An outage (or destination crash) during the overhead window
            // already failed the caller and dropped the entry.
            if !this.state.borrow().inflight.contains_key(&transfer_id) {
                return;
            }
            let completer = this.clone();
            let job = this.pipe.submit(engine, bytes as f64, move |engine| {
                if completer
                    .state
                    .borrow_mut()
                    .inflight
                    .remove(&transfer_id)
                    .is_none()
                {
                    return;
                }
                if let Some(done) = done.borrow_mut().take() {
                    let result = dst_store.put(dst, bytes, kind).map(|()| bytes);
                    done(engine, result);
                }
            });
            if let Some(t) = this.state.borrow_mut().inflight.get_mut(&transfer_id) {
                t.job = Some(job);
            }
        });
    }

    /// Copy a set of files sequentially (the Perl cloning scripts of §4.1
    /// copy one file at a time). `done` receives the total bytes moved, or
    /// the first error.
    pub fn fetch_all<F>(
        &self,
        engine: &mut Engine,
        pairs: Vec<(Rc<str>, String)>,
        dst_store: &FileStore,
        done: F,
    ) where
        F: FnOnce(&mut Engine, TransferResult) + 'static,
    {
        self.fetch_all_from(engine, pairs.into_iter(), dst_store.clone(), 0, done);
    }

    /// Fetch the remaining `pairs`, each moved into its transfer, then
    /// report `moved` plus their bytes.
    fn fetch_all_from<F>(
        &self,
        engine: &mut Engine,
        mut pairs: std::vec::IntoIter<(Rc<str>, String)>,
        dst_store: FileStore,
        moved: u64,
        done: F,
    ) where
        F: FnOnce(&mut Engine, TransferResult) + 'static,
    {
        let Some((src, dst)) = pairs.next() else {
            engine.schedule(SimDuration::ZERO, move |engine| done(engine, Ok(moved)));
            return;
        };
        let this = self.clone();
        self.fetch(engine, src, &dst_store.clone(), dst, move |engine, res| match res {
            Ok(bytes) => this.fetch_all_from(engine, pairs, dst_store, moved + bytes, done),
            Err(e) => done(engine, Err(e)),
        });
    }

    /// Estimated wall time to move `bytes` across `files` files with the
    /// pipe otherwise idle (used by bidding estimates).
    pub fn estimate(&self, bytes: u64, files: usize) -> SimDuration {
        self.pipe.estimate(bytes as f64) + PER_FILE_OVERHEAD * files as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::{gb, mb, FileKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn golden_disk_full_copy_takes_about_210_seconds() {
        // The §4.3 anchor: 2 GB in 16 files over the default pipe.
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        let extent = gb(2) / 16;
        let mut pairs = Vec::new();
        for i in 0..16 {
            nfs.store
                .put(format!("/warehouse/golden/disk{i}"), extent, FileKind::DiskExtent)
                .unwrap();
            pairs.push((
                format!("/warehouse/golden/disk{i}").into(),
                format!("/local/clone/disk{i}"),
            ));
        }
        let local = FileStore::new();
        let finished = Rc::new(RefCell::new(None));
        let f = Rc::clone(&finished);
        nfs.fetch_all(&mut engine, pairs, &local, move |engine, res| {
            assert_eq!(res.unwrap(), gb(2));
            *f.borrow_mut() = Some(engine.now().as_secs_f64());
        });
        engine.run();
        let t = finished.borrow().expect("copy completed");
        // 2048 MB / 10 MB/s = 204.8 s + 16 * 0.3 s = 209.6 s.
        assert!((t - 209.6).abs() < 1.0, "t={t}");
        assert_eq!(local.used_bytes(), gb(2));
        assert_eq!(local.file_count(), 16);
    }

    #[test]
    fn memory_state_copy_scales_with_size() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store
            .put("/warehouse/g/mem", mb(256), FileKind::MemoryState)
            .unwrap();
        let local = FileStore::new();
        let t = Rc::new(RefCell::new(0.0));
        let t2 = Rc::clone(&t);
        nfs.fetch(&mut engine, "/warehouse/g/mem", &local, "/c/mem", move |e, res| {
            res.unwrap();
            *t2.borrow_mut() = e.now().as_secs_f64();
        });
        engine.run();
        // 256 MB / 10 MB/s = 25.6 s + 0.3 s overhead.
        assert!((*t.borrow() - 25.9).abs() < 0.1, "t={}", t.borrow());
    }

    #[test]
    fn missing_source_fails_without_consuming_time() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        let local = FileStore::new();
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        nfs.fetch(&mut engine, "/nope", &local, "/x", move |e, res| {
            *r.borrow_mut() = Some((res, e.now().as_millis()));
        });
        engine.run();
        let (res, at) = result.borrow().clone().unwrap();
        assert!(res.is_err());
        assert_eq!(at, 0);
        assert!(!local.exists("/x"));
    }

    #[test]
    fn fetch_all_stops_at_first_error() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store.put("/a", mb(1), FileKind::Generic).unwrap();
        let local = FileStore::new();
        let result = Rc::new(RefCell::new(None));
        let r = Rc::clone(&result);
        nfs.fetch_all(
            &mut engine,
            vec![
                ("/a".into(), "/la".into()),
                ("/missing".into(), "/lb".into()),
                ("/a".into(), "/lc".into()),
            ],
            &local,
            move |_, res| {
                *r.borrow_mut() = Some(res);
            },
        );
        engine.run();
        assert!(result.borrow().as_ref().unwrap().is_err());
        assert!(local.exists("/la"));
        assert!(!local.exists("/lc"), "later transfers never ran");
    }

    #[test]
    fn concurrent_transfers_share_the_pipe() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store.put("/f1", mb(100), FileKind::Generic).unwrap();
        nfs.store.put("/f2", mb(100), FileKind::Generic).unwrap();
        let local = FileStore::new();
        let times: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        for src in ["/f1", "/f2"] {
            let t = Rc::clone(&times);
            nfs.fetch(&mut engine, src, &local, format!("/l{src}"), move |e, res| {
                res.unwrap();
                t.borrow_mut().push(e.now().as_secs_f64());
            });
        }
        engine.run();
        // Two 100 MB transfers sharing 10 MB/s: both done near 20.3 s, not
        // 10.3 s.
        for &t in times.borrow().iter() {
            assert!((t - 20.3).abs() < 0.2, "t={t}");
        }
    }

    #[test]
    fn estimate_matches_idle_transfer() {
        let nfs = NfsServer::new("storage");
        let est = nfs.estimate(mb(100), 1);
        assert!((est.as_secs_f64() - 10.3).abs() < 0.05, "{est}");
    }

    #[test]
    fn outage_fails_inflight_and_new_transfers_until_recovery() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store.put("/f", mb(100), FileKind::Generic).unwrap();
        let local = FileStore::new();
        let results: Rc<RefCell<Vec<(f64, TransferResult)>>> = Rc::new(RefCell::new(Vec::new()));
        let r1 = Rc::clone(&results);
        // 100 MB at 10 MB/s would finish at ~10.3 s; outage at t=5 kills it.
        nfs.fetch(&mut engine, "/f", &local, "/l1", move |e, res| {
            r1.borrow_mut().push((e.now().as_secs_f64(), res));
        });
        let n2 = nfs.clone();
        let local2 = local.clone();
        let r2 = Rc::clone(&results);
        engine.schedule(SimDuration::from_secs(5), move |e| {
            n2.set_offline(e);
            assert!(n2.state.borrow().inflight.is_empty());
            // A fetch attempted during the outage fails immediately.
            n2.fetch(e, "/f", &local2, "/l2", move |e, res| {
                r2.borrow_mut().push((e.now().as_secs_f64(), res));
            });
        });
        let n3 = nfs.clone();
        let local3 = local.clone();
        let r3 = Rc::clone(&results);
        engine.schedule(SimDuration::from_secs(60), move |e| {
            n3.set_online(e);
            n3.fetch(e, "/f", &local3, "/l3", move |e, res| {
                r3.borrow_mut().push((e.now().as_secs_f64(), res));
            });
        });
        engine.run();
        let results = results.borrow();
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0].1, Err(StoreError::Unavailable(_))));
        assert!((results[0].0 - 5.0).abs() < 0.01, "failed at outage time");
        assert!(matches!(results[1].1, Err(StoreError::Unavailable(_))));
        assert_eq!(results[2].1, Ok(mb(100)));
        assert!((results[2].0 - 70.3).abs() < 0.05, "t={}", results[2].0);
        assert!(!local.exists("/l1"), "aborted transfer left no file");
        assert!(local.exists("/l3"));
    }

    #[test]
    fn degraded_window_stretches_transfers() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store.put("/f", mb(100), FileKind::Generic).unwrap();
        let local = FileStore::new();
        let t = Rc::new(RefCell::new(0.0));
        let t2 = Rc::clone(&t);
        nfs.fetch(&mut engine, "/f", &local, "/l", move |e, res| {
            res.unwrap();
            *t2.borrow_mut() = e.now().as_secs_f64();
        });
        // Quarter bandwidth from t=0.3+5 on: 50 MB moved by then, the
        // remaining 50 MB at 2.5 MB/s takes 20 s → total ≈ 25.3 s.
        let n2 = nfs.clone();
        engine.schedule(SimDuration::from_secs_f64(5.3), move |e| {
            n2.set_bandwidth_factor(e, 0.25);
        });
        engine.run();
        assert!((*t.borrow() - 25.3).abs() < 0.05, "t={}", t.borrow());
        assert!(nfs.is_online());
    }

    #[test]
    fn destination_crash_fails_only_transfers_to_that_host() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        nfs.store.put("/f", mb(50), FileKind::Generic).unwrap();
        let doomed = FileStore::new();
        let healthy = FileStore::new();
        let results: Rc<RefCell<Vec<(String, TransferResult)>>> =
            Rc::new(RefCell::new(Vec::new()));
        for (label, store) in [("doomed", &doomed), ("healthy", &healthy)] {
            let r = Rc::clone(&results);
            nfs.fetch(&mut engine, "/f", store, "/l", move |_, res| {
                r.borrow_mut().push((label.into(), res));
            });
        }
        let n2 = nfs.clone();
        let doomed2 = doomed.clone();
        engine.schedule(SimDuration::from_secs(2), move |e| {
            n2.fail_transfers_to(e, &doomed2);
        });
        engine.run();
        let results = results.borrow();
        assert_eq!(results.len(), 2);
        let get = |label: &str| {
            results
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, r)| r.clone())
                .unwrap()
        };
        assert!(matches!(get("doomed"), Err(StoreError::Unavailable(_))));
        assert_eq!(get("healthy"), Ok(mb(50)));
        assert!(!doomed.exists("/l"));
        assert!(healthy.exists("/l"));
    }

    #[test]
    fn empty_fetch_all_completes_immediately() {
        let mut engine = Engine::new();
        let nfs = NfsServer::new("storage");
        let local = FileStore::new();
        let hit = Rc::new(RefCell::new(false));
        let h = Rc::clone(&hit);
        nfs.fetch_all(&mut engine, vec![], &local, move |_, res| {
            assert_eq!(res.unwrap(), 0);
            *h.borrow_mut() = true;
        });
        engine.run();
        assert!(*hit.borrow());
    }
}
