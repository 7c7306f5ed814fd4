//! The event loop.
//!
//! [`Engine`] owns a priority queue of scheduled events. Each event is a
//! boxed `FnOnce(&mut Engine)`; domain state lives behind `Rc<RefCell<..>>`
//! handles captured by the closures (the kernel is single-threaded, so this
//! is the idiomatic sharing pattern and carries no locking cost).
//!
//! Determinism: events are ordered by `(time, sequence number)`, where the
//! sequence number is assigned at scheduling time. Two events scheduled for
//! the same instant therefore fire in scheduling order, making runs
//! reproducible for a fixed seed.
//!
//! Liveness tracking is a slab of generation-tagged slots rather than a
//! hash set: scheduling claims a slot (a `Vec` push or free-list pop),
//! cancellation is an O(1) generation bump, and the pop loop validates a
//! heap entry with one indexed load — no hashing anywhere on the hot path.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::obs::{Counter, Gauge, Obs};
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation.
///
/// Internally a `(slot, generation)` pair into the engine's slab: a slot is
/// recycled after its event fires or is cancelled, and the generation tag
/// makes ids from earlier occupancies harmlessly stale.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

type EventFn = Box<dyn FnOnce(&mut Engine)>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
    action: EventFn,
}

/// One slab slot: the generation of its current (or next) occupant and
/// whether that occupant is still scheduled.
#[derive(Clone, Copy)]
struct Slot {
    gen: u32,
    live: bool,
}

// The heap is a max-heap; invert the comparison so the earliest (time, seq)
// pops first.
impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The discrete-event simulation engine: a virtual clock plus an event heap.
pub struct Engine {
    now: SimTime,
    next_seq: u64,
    heap: BinaryHeap<Scheduled>,
    /// The slab: one slot per concurrently scheduled event. Cancellation
    /// bumps the slot's generation (O(1), no hashing) and the pop loop
    /// skips heap entries whose tag no longer matches.
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Scheduled-but-not-yet-fired event count. A shared gauge handle so
    /// the metrics registry snapshots the *same* state the kernel
    /// maintains — there is no second counting path to drift.
    live: Gauge,
    /// Monotonic executed-event counter (same shared-handle pattern).
    executed: Counter,
    /// Monotonic cancelled-event counter.
    cancelled: Counter,
}

impl Engine {
    /// A fresh engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            next_seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: Gauge::new(),
            executed: Counter::new(),
            cancelled: Counter::new(),
        }
    }

    /// Register the kernel's counters with an observability registry:
    /// `engine.events_executed` / `engine.events_cancelled` (monotonic) and
    /// `engine.live_events` (gauge). The registry adopts the very handles
    /// the kernel already counts through, so a snapshot is always exact.
    pub fn set_obs(&mut self, obs: &Obs) {
        obs.register_counter("engine.events_executed", &self.executed);
        obs.register_counter("engine.events_cancelled", &self.cancelled);
        obs.register_gauge("engine.live_events", &self.live);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed.get()
    }

    /// Schedule `action` to run `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: SimDuration, action: F) -> EventId
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        self.schedule_at(self.now + delay, action)
    }

    /// Schedule `action` at an absolute virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past: the kernel never rewinds the clock.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventId
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (now={}, at={})",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let (slot, gen) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.live = true;
                (slot, s.gen)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, live: true });
                (slot, 0)
            }
        };
        self.live.add(1);
        self.heap.push(Scheduled {
            at,
            seq,
            slot,
            gen,
            action: Box::new(action),
        });
        EventId { slot, gen }
    }

    /// Cancel a previously scheduled event in O(1). Returns `true` if the
    /// event had not yet fired (or been cancelled); cancelling a fired or
    /// already-cancelled event is a harmless no-op returning `false`. The
    /// stale heap entry is skipped lazily by the pop loop.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s) if s.gen == id.gen && s.live => {
                self.retire(id.slot);
                self.cancelled.inc();
                true
            }
            _ => false,
        }
    }

    /// Free a slot for reuse, invalidating any outstanding heap entry or
    /// [`EventId`] for its current occupant.
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live.add(-1);
    }

    /// Discard cancelled entries at the top of the heap and report the
    /// timestamp of the next live event, if any. Shared by `step` and
    /// `run_until` so the stale-entry skip logic cannot drift between them.
    fn peek_live(&mut self) -> Option<SimTime> {
        loop {
            let ev = self.heap.peek()?;
            let s = self.slots[ev.slot as usize];
            if s.gen == ev.gen && s.live {
                return Some(ev.at);
            }
            self.heap.pop();
        }
    }

    /// Execute the single next event, advancing the clock to its timestamp.
    /// Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        if self.peek_live().is_none() {
            return false;
        }
        let ev = self.heap.pop().expect("peek_live saw a live entry");
        self.retire(ev.slot);
        debug_assert!(ev.at >= self.now, "event heap yielded a past event");
        self.now = ev.at;
        self.executed.inc();
        (ev.action)(self);
        true
    }

    /// Run until the event heap is exhausted.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the heap is exhausted or the clock would pass `horizon`.
    /// Events scheduled exactly at the horizon still run; later events stay
    /// queued and the clock is left at the horizon.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(at) = self.peek_live() {
            if at > horizon {
                break;
            }
            self.step();
        }
        if horizon > self.now {
            self.now = horizon;
        }
    }

    /// Convenience: advance the clock by `delay` with no event (useful in
    /// tests and in sequential-request drivers).
    pub fn advance(&mut self, delay: SimDuration) {
        self.run_until(self.now + delay);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    impl Engine {
        /// Number of events still pending.
        fn pending(&self) -> usize {
            self.live.get() as usize
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, secs) in [("c", 3), ("a", 1), ("b", 2)] {
            let order = Rc::clone(&order);
            e.schedule(SimDuration::from_secs(secs), move |_| {
                order.borrow_mut().push(label);
            });
        }
        e.run();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
        assert_eq!(e.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_fire_in_scheduling_order() {
        let mut e = Engine::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in ["first", "second", "third"] {
            let order = Rc::clone(&order);
            e.schedule(SimDuration::from_secs(1), move |_| {
                order.borrow_mut().push(label);
            });
        }
        e.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_further_events() {
        let mut e = Engine::new();
        let trace = Rc::new(RefCell::new(Vec::new()));
        let t2 = Rc::clone(&trace);
        e.schedule(SimDuration::from_secs(1), move |engine| {
            t2.borrow_mut().push(engine.now().as_secs_f64());
            let t3 = Rc::clone(&t2);
            engine.schedule(SimDuration::from_secs(5), move |engine| {
                t3.borrow_mut().push(engine.now().as_secs_f64());
            });
        });
        e.run();
        assert_eq!(*trace.borrow(), vec![1.0, 6.0]);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut e = Engine::new();
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let id = e.schedule(SimDuration::from_secs(1), move |_| {
            *f.borrow_mut() = true;
        });
        assert!(e.cancel(id));
        assert!(!e.cancel(id), "double cancel reports false");
        e.run();
        assert!(!*fired.borrow());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut e = Engine::new();
        let id = e.schedule(SimDuration::from_secs(1), |_| {});
        e.run();
        assert!(!e.cancel(id));
    }

    #[test]
    fn run_until_stops_at_horizon_and_leaves_later_events() {
        let mut e = Engine::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        for secs in [1u64, 5, 10] {
            let fired = Rc::clone(&fired);
            e.schedule(SimDuration::from_secs(secs), move |_| {
                fired.borrow_mut().push(secs);
            });
        }
        e.run_until(SimTime::from_secs(5));
        assert_eq!(*fired.borrow(), vec![1, 5], "horizon events inclusive");
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.pending(), 1);
        e.run();
        assert_eq!(*fired.borrow(), vec![1, 5, 10]);
    }

    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut e = Engine::new();
        e.run_until(SimTime::from_secs(42));
        assert_eq!(e.now(), SimTime::from_secs(42));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new();
        e.schedule(SimDuration::from_secs(2), |engine| {
            engine.schedule_at(SimTime::from_secs(1), |_| {});
        });
        e.run();
    }

    #[test]
    fn slots_recycle_and_stale_ids_stay_dead() {
        let mut e = Engine::new();
        let a = e.schedule(SimDuration::from_secs(1), |_| {});
        assert!(e.cancel(a));
        // The slot is recycled with a new generation...
        let fired = Rc::new(RefCell::new(false));
        let f = Rc::clone(&fired);
        let b = e.schedule(SimDuration::from_secs(2), move |_| {
            *f.borrow_mut() = true;
        });
        assert_eq!(a.slot, b.slot, "freed slot is reused");
        assert_ne!(a.gen, b.gen, "generation advanced on reuse");
        // ...so the stale id cannot cancel the new occupant.
        assert!(!e.cancel(a));
        e.run();
        assert!(*fired.borrow());
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn throughput_counts_executed_events() {
        let mut e = Engine::new();
        let obs = Obs::default();
        e.set_obs(&obs);
        for _ in 0..100 {
            e.schedule(SimDuration::from_secs(1), |_| {});
        }
        e.run();
        assert_eq!(e.events_executed(), 100);
        assert_eq!(obs.counter_value("engine.events_executed"), Some(100));
    }

    #[test]
    fn drained_engine_reports_zero_live_events() {
        // Regression guard for the slab kernel's lazy stale-skip: stale
        // heap entries left behind by cancels must not linger in the live
        // accounting the registry snapshots.
        let mut e = Engine::new();
        let obs = Obs::default();
        e.set_obs(&obs);
        let ids: Vec<EventId> = (0..60)
            .map(|i| e.schedule(SimDuration::from_secs(i % 7), |_| {}))
            .collect();
        for id in ids.iter().step_by(3) {
            assert!(e.cancel(*id));
        }
        assert!(obs.metrics_text().contains("gauge engine.live_events 40\n"));
        e.run();
        assert_eq!(e.pending(), 0);
        assert!(obs.metrics_text().contains("gauge engine.live_events 0\n"));
        assert_eq!(obs.counter_value("engine.events_executed"), Some(40));
        assert_eq!(obs.counter_value("engine.events_cancelled"), Some(20));
        assert_eq!(e.events_executed(), 40);
    }

    #[test]
    fn executed_count_tracks_fired_events() {
        let mut e = Engine::new();
        for _ in 0..7 {
            e.schedule(SimDuration::from_secs(1), |_| {});
        }
        let id = e.schedule(SimDuration::from_secs(1), |_| {});
        e.cancel(id);
        e.run();
        assert_eq!(e.events_executed(), 7);
    }
}
