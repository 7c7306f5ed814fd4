//! Contended resources.
//!
//! Two resource models cover everything the VMPlants substrate needs:
//!
//! * [`FairShare`] — **processor sharing**: `n` concurrent jobs each receive
//!   `capacity / n` units of service per second. This is the standard fluid
//!   model for a shared Ethernet link, an NFS server's disk arm, or a CPU
//!   running several compute jobs. Completion times are re-predicted every
//!   time a job arrives or departs.
//! * [`Gate`] — a counted semaphore with a FIFO wait queue, for resources
//!   with a hard concurrency bound (e.g. the number of outstanding RPC slots
//!   an NFS server accepts, or host-only networks at a plant).
//!
//! Both are cheap `Rc` handles so domain components can clone and capture
//! them in event closures.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use crate::engine::{Engine, EventId};
use crate::time::{SimDuration, SimTime};

/// Identifier of a job submitted to a [`FairShare`] resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JobId(u64);

type Callback = Box<dyn FnOnce(&mut Engine)>;

struct Job {
    remaining: f64,
    on_complete: Option<Callback>,
}

struct FairShareInner {
    /// Service capacity in work units per (virtual) second.
    capacity: f64,
    jobs: HashMap<u64, Job>,
    next_job: u64,
    last_settle: SimTime,
    /// Bumped on every membership change; stale completion events compare
    /// their captured epoch and become no-ops.
    epoch: u64,
    pending_event: Option<EventId>,
    /// Total work units served, for utilisation reporting.
    served: f64,
}

/// A processor-sharing resource. See module docs.
pub struct FairShare {
    inner: Rc<RefCell<FairShareInner>>,
}

impl Clone for FairShare {
    fn clone(&self) -> Self {
        FairShare {
            inner: Rc::clone(&self.inner),
        }
    }
}

// One millionth of a work unit: jobs whose remaining work dips below this
// after settling are considered complete (absorbs f64 rounding from the
// millisecond-quantized completion events).
const WORK_EPSILON: f64 = 1e-6;

impl FairShare {
    /// Create a resource with the given capacity in work units per second.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "FairShare capacity must be positive and finite"
        );
        FairShare {
            inner: Rc::new(RefCell::new(FairShareInner {
                capacity,
                jobs: HashMap::new(),
                next_job: 0,
                last_settle: SimTime::ZERO,
                epoch: 0,
                pending_event: None,
                served: 0.0,
            })),
        }
    }

    /// Number of jobs currently in service.
    pub fn active_jobs(&self) -> usize {
        self.inner.borrow().jobs.len()
    }

    /// Total work units served so far.
    pub fn total_served(&self) -> f64 {
        self.inner.borrow().served
    }

    /// Nominal capacity in work units per second.
    pub fn capacity(&self) -> f64 {
        self.inner.borrow().capacity
    }

    /// Submit a job requiring `work` units of service; `on_complete` runs
    /// when the job finishes. Zero-work jobs complete via an immediate event.
    pub fn submit<F>(&self, engine: &mut Engine, work: f64, on_complete: F) -> JobId
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        assert!(work.is_finite() && work >= 0.0, "job work must be >= 0");
        let id = {
            let mut inner = self.inner.borrow_mut();
            inner.settle(engine.now());
            let id = inner.next_job;
            inner.next_job += 1;
            inner.jobs.insert(
                id,
                Job {
                    remaining: work,
                    on_complete: Some(Box::new(on_complete)),
                },
            );
            inner.epoch += 1;
            id
        };
        self.reschedule(engine);
        JobId(id)
    }

    /// Abort a job in service. Its completion callback is dropped without
    /// running. Returns `true` if the job was still active.
    pub fn abort(&self, engine: &mut Engine, job: JobId) -> bool {
        let existed = {
            let mut inner = self.inner.borrow_mut();
            inner.settle(engine.now());
            let existed = inner.jobs.remove(&job.0).is_some();
            if existed {
                inner.epoch += 1;
            }
            existed
        };
        if existed {
            self.reschedule(engine);
        }
        existed
    }

    /// Change the service capacity in place. In-flight jobs keep the
    /// progress they have already accrued and share the new rate from `now`
    /// on — the model for a degraded (or repaired) link or disk.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn set_capacity(&self, engine: &mut Engine, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "FairShare capacity must be positive and finite"
        );
        {
            let mut inner = self.inner.borrow_mut();
            inner.settle(engine.now());
            inner.capacity = capacity;
            inner.epoch += 1;
        }
        self.reschedule(engine);
    }

    /// Predicted duration for `work` units if submitted now and membership
    /// never changed (a lower bound used by cost estimators).
    pub fn estimate(&self, work: f64) -> SimDuration {
        let inner = self.inner.borrow();
        let n = inner.jobs.len() as f64 + 1.0;
        SimDuration::from_secs_f64(work * n / inner.capacity)
    }

    /// Cancel any pending completion event and schedule one for the job
    /// closest to finishing.
    fn reschedule(&self, engine: &mut Engine) {
        let (event_to_cancel, next_fire, epoch) = {
            let mut inner = self.inner.borrow_mut();
            let cancel = inner.pending_event.take();
            let n = inner.jobs.len() as f64;
            let next = inner
                .jobs
                .values()
                .map(|j| j.remaining)
                .fold(f64::INFINITY, f64::min);
            let fire = if next.is_finite() {
                // Ceil to the next millisecond so the event never fires
                // before the job has logically finished.
                let secs = next * n / inner.capacity;
                Some(SimDuration::from_millis((secs * 1000.0).ceil() as u64))
            } else {
                None
            };
            (cancel, fire, inner.epoch)
        };
        if let Some(ev) = event_to_cancel {
            engine.cancel(ev);
        }
        if let Some(delay) = next_fire {
            let handle = self.clone();
            let id = engine.schedule(delay, move |engine| {
                handle.on_completion_event(engine, epoch);
            });
            self.inner.borrow_mut().pending_event = Some(id);
        }
    }

    fn on_completion_event(&self, engine: &mut Engine, epoch: u64) {
        let finished: Vec<Callback> = {
            let mut inner = self.inner.borrow_mut();
            if inner.epoch != epoch {
                // Membership changed since this event was scheduled; a fresh
                // event is already queued.
                return;
            }
            inner.pending_event = None;
            inner.settle(engine.now());
            let done_ids: Vec<u64> = inner
                .jobs
                .iter()
                .filter(|(_, j)| j.remaining <= WORK_EPSILON)
                .map(|(&id, _)| id)
                .collect();
            let mut callbacks = Vec::with_capacity(done_ids.len());
            let mut ids = done_ids;
            // Deterministic completion order for simultaneous finishers.
            ids.sort_unstable();
            for id in ids {
                let mut job = inner.jobs.remove(&id).expect("job vanished");
                if let Some(cb) = job.on_complete.take() {
                    callbacks.push(cb);
                }
            }
            if !callbacks.is_empty() {
                inner.epoch += 1;
            }
            callbacks
        };
        self.reschedule(engine);
        for cb in finished {
            cb(engine);
        }
    }
}

impl FairShareInner {
    /// Advance every active job's progress to `now`.
    fn settle(&mut self, now: SimTime) {
        let elapsed = now.since_saturating(self.last_settle).as_secs_f64();
        self.last_settle = now;
        if elapsed == 0.0 || self.jobs.is_empty() {
            return;
        }
        let share = self.capacity * elapsed / self.jobs.len() as f64;
        for job in self.jobs.values_mut() {
            let progress = share.min(job.remaining);
            job.remaining -= progress;
            self.served += progress;
        }
    }
}

/// A counted semaphore with a FIFO wait queue.
pub struct Gate {
    inner: Rc<RefCell<GateInner>>,
}

struct GateInner {
    name: String,
    free: usize,
    capacity: usize,
    waiters: VecDeque<Callback>,
}

impl Clone for Gate {
    fn clone(&self) -> Self {
        Gate {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Gate {
    /// A gate admitting at most `capacity` concurrent holders.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "Gate capacity must be at least 1");
        Gate {
            inner: Rc::new(RefCell::new(GateInner {
                name: name.into(),
                free: capacity,
                capacity,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Currently free slots.
    pub fn free(&self) -> usize {
        self.inner.borrow().free
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Acquire a slot; `holder` runs (via an immediate event if a slot is
    /// free, else when one frees up). The holder must eventually call
    /// [`Gate::release`].
    pub fn acquire<F>(&self, engine: &mut Engine, holder: F)
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        if inner.free > 0 {
            inner.free -= 1;
            drop(inner);
            engine.schedule(SimDuration::ZERO, holder);
        } else {
            inner.waiters.push_back(Box::new(holder));
        }
    }

    /// Release a slot, handing it to the longest-waiting acquirer if any.
    ///
    /// # Panics
    ///
    /// Panics on over-release (more releases than acquisitions).
    pub fn release(&self, engine: &mut Engine) {
        let next = {
            let mut inner = self.inner.borrow_mut();
            if let Some(waiter) = inner.waiters.pop_front() {
                Some(waiter)
            } else {
                assert!(
                    inner.free < inner.capacity,
                    "Gate '{}' over-released",
                    inner.name
                );
                inner.free += 1;
                None
            }
        };
        if let Some(waiter) = next {
            engine.schedule(SimDuration::ZERO, waiter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn finish_times(capacity: f64, jobs: &[(u64, f64)]) -> Vec<(usize, f64)> {
        // jobs: (start_delay_secs, work_units)
        let mut engine = Engine::new();
        let link = FairShare::new(capacity);
        let done: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        for (idx, &(delay, work)) in jobs.iter().enumerate() {
            let link = link.clone();
            let done = Rc::clone(&done);
            engine.schedule(SimDuration::from_secs(delay), move |engine| {
                let done = Rc::clone(&done);
                link.submit(engine, work, move |engine| {
                    done.borrow_mut().push((idx, engine.now().as_secs_f64()));
                });
            });
        }
        engine.run();
        let result = done.borrow().clone();
        result
    }

    #[test]
    fn single_job_takes_work_over_capacity() {
        let times = finish_times(10.0, &[(0, 100.0)]);
        assert_eq!(times.len(), 1);
        assert!((times[0].1 - 10.0).abs() < 0.01, "got {}", times[0].1);
    }

    #[test]
    fn two_simultaneous_jobs_share_capacity() {
        // Two 100-unit jobs on a 10-unit/s link: each sees 5 units/s, both
        // finish at t=20.
        let times = finish_times(10.0, &[(0, 100.0), (0, 100.0)]);
        assert_eq!(times.len(), 2);
        for &(_, t) in &times {
            assert!((t - 20.0).abs() < 0.01, "got {t}");
        }
    }

    #[test]
    fn late_arrival_slows_in_flight_job() {
        // Job A: 100 units at t=0. Job B: 50 units at t=5.
        // t in [0,5): A alone, serves 50, 50 left.
        // t >= 5: both share; each gets 5/s. B (50) finishes at t=15;
        // A has 50-50=0... A has 50 left at t=5, also finishes at t=15.
        let times = finish_times(10.0, &[(0, 100.0), (5, 50.0)]);
        assert_eq!(times.len(), 2);
        for &(_, t) in &times {
            assert!((t - 15.0).abs() < 0.01, "got {t}");
        }
    }

    #[test]
    fn departure_speeds_up_survivor() {
        // A: 40 units at t=0; B: 200 units at t=0.
        // Shared until A finishes: A needs 40 at 5/s -> t=8; B served 40.
        // B alone after t=8: 160 left at 10/s -> t=24.
        let times = finish_times(10.0, &[(0, 40.0), (0, 200.0)]);
        let a = times.iter().find(|(i, _)| *i == 0).unwrap().1;
        let b = times.iter().find(|(i, _)| *i == 1).unwrap().1;
        assert!((a - 8.0).abs() < 0.01, "a={a}");
        assert!((b - 24.0).abs() < 0.01, "b={b}");
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let times = finish_times(10.0, &[(0, 0.0)]);
        assert_eq!(times.len(), 1);
        assert!(times[0].1 < 0.002);
    }

    #[test]
    fn abort_drops_callback_and_frees_capacity() {
        let mut engine = Engine::new();
        let link = FairShare::new(10.0);
        let done: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let d1 = Rc::clone(&done);
        let aborted = link.submit(&mut engine, 1000.0, move |e| {
            d1.borrow_mut().push(e.now().as_secs_f64());
        });
        let d2 = Rc::clone(&done);
        link.submit(&mut engine, 100.0, move |e| {
            d2.borrow_mut().push(e.now().as_secs_f64());
        });
        // Abort the big job at t=2 via an event.
        let l2 = link.clone();
        engine.schedule(SimDuration::from_secs(2), move |e| {
            assert!(l2.abort(e, aborted));
        });
        engine.run();
        // Survivor: served 10 units by t=2 (share 5/s), then 90 left at
        // 10/s -> finishes at t=11.
        let result = done.borrow().clone();
        assert_eq!(result.len(), 1);
        assert!((result[0] - 11.0).abs() < 0.01, "got {}", result[0]);
        assert_eq!(link.active_jobs(), 0);
    }

    #[test]
    fn total_served_accounts_all_work() {
        let mut engine = Engine::new();
        let link = FairShare::new(7.0);
        for work in [10.0, 20.0, 30.0] {
            link.submit(&mut engine, work, |_| {});
        }
        engine.run();
        assert!((link.total_served() - 60.0).abs() < 1e-3);
    }

    #[test]
    fn estimate_reflects_current_load() {
        let mut engine = Engine::new();
        let link = FairShare::new(10.0);
        assert_eq!(link.estimate(100.0), SimDuration::from_secs(10));
        link.submit(&mut engine, 1e9, |_| {});
        assert_eq!(link.estimate(100.0), SimDuration::from_secs(20));
    }

    #[test]
    fn gate_limits_concurrency_and_queues_fifo() {
        let mut engine = Engine::new();
        let gate = Gate::new("nfs-slots", 2);
        let log: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5usize {
            let gate2 = gate.clone();
            let log2 = Rc::clone(&log);
            gate.acquire(&mut engine, move |engine| {
                log2.borrow_mut().push((i, engine.now().as_secs_f64()));
                let gate3 = gate2.clone();
                engine.schedule(SimDuration::from_secs(10), move |engine| {
                    gate3.release(engine);
                });
            });
        }
        engine.run();
        let entries = log.borrow().clone();
        assert_eq!(entries.len(), 5);
        // First two start at ~0, next two at ~10, last at ~20; FIFO order.
        assert_eq!(
            entries.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(entries[1].1 < 0.01);
        assert!((entries[2].1 - 10.0).abs() < 0.01);
        assert!((entries[4].1 - 20.0).abs() < 0.01);
        // After the run drains, every holder has released its slot.
        assert_eq!(gate.free(), 2);
    }

    #[test]
    fn set_capacity_rescales_in_flight_jobs() {
        let mut engine = Engine::new();
        let link = FairShare::new(10.0);
        let done: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
        let d1 = Rc::clone(&done);
        link.submit(&mut engine, 100.0, move |e| {
            d1.borrow_mut().push(e.now().as_secs_f64());
        });
        // Halve the capacity at t=5: 50 units served, 50 left at 5/s.
        let l2 = link.clone();
        engine.schedule(SimDuration::from_secs(5), move |e| {
            l2.set_capacity(e, 5.0);
        });
        engine.run();
        let result = done.borrow().clone();
        assert_eq!(result.len(), 1);
        assert!((result[0] - 15.0).abs() < 0.01, "got {}", result[0]);
        assert_eq!(link.capacity(), 5.0);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn gate_over_release_panics() {
        let mut engine = Engine::new();
        let gate = Gate::new("g", 1);
        gate.release(&mut engine);
    }
}
