//! Deterministic unreliable message transport.
//!
//! The VMPlants services talk over a real network (§4.1: Berkeley
//! sockets carrying XML strings), and real networks lose, duplicate,
//! reorder, and partition messages. This module models one logical
//! network fabric as a [`Transport`]: every `send` samples, from the
//! transport's own seeded RNG, a per-hop delay, a drop decision, a
//! duplication decision, and a reordering hold, then schedules the
//! delivery closure(s) on the engine. All decisions are made — and
//! recorded — at send time, so a run's full message history is
//! byte-comparable across same-seed replays. Recording is opt-in: a
//! transport keeps no history until [`Transport::record_trace`] is
//! called, and a send's label is a [`TraceLabel`] that is rendered only
//! while recording, so a run that never asks for its trace neither
//! formats nor stores one. A recorded decision is a small struct
//! (interned endpoints, label, outcome, delay), rendered as text only
//! when [`Transport::trace_text`] asks for it.
//!
//! Fault windows are layered on top as *overrides*: a chaos scenario
//! raises the drop/duplication/reordering probability for messages
//! matching a scope (a component name matching either endpoint, or a
//! directional `"a->b"` link) and the override is removed when the
//! window closes. Partitions are absolute: a matching message is
//! discarded without consuming a random draw, so an asymmetric
//! partition (`"shop->node3"`) silences one direction while replies
//! still flow.
//!
//! The transport knows nothing about envelopes or protocols — delivery
//! is a closure — which keeps `simkit` dependency-free and lets the
//! shop/plant layer decide what a message *is*.

use std::cell::RefCell;
use std::fmt::{self, Write};
use std::rc::Rc;

use crate::engine::Engine;
use crate::obs::{Counter, Obs};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Baseline behaviour of every link in the fabric.
#[derive(Clone, Debug)]
pub struct LinkTuning {
    /// Uniform per-hop delay range, seconds (socket + XML parse +
    /// serialized-object handling — the same envelope the shop's client
    /// hops use).
    pub delay: (f64, f64),
    /// Baseline probability a message is silently dropped.
    pub drop_p: f64,
    /// Baseline probability a message is delivered twice.
    pub dup_p: f64,
    /// Baseline probability a message is held back past later traffic.
    pub reorder_p: f64,
    /// Extra uniform hold, seconds, applied to a reordered message.
    pub reorder_hold: (f64, f64),
}

impl Default for LinkTuning {
    fn default() -> LinkTuning {
        LinkTuning {
            delay: (0.05, 0.20),
            drop_p: 0.0,
            dup_p: 0.0,
            reorder_p: 0.0,
            reorder_hold: (0.5, 2.0),
        }
    }
}

/// Send-time decision counters, all recorded before delivery runs.
///
/// This is a point-in-time *snapshot*: the live counts are kept in shared
/// [`Counter`] handles (one counting path), which
/// [`Transport::set_obs`] registers with a metrics registry under
/// `transport.*` names. [`Transport::stats`] reconstitutes this struct
/// from those handles, so its shape and `Display` stay stable for the
/// chaos-report fixtures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to [`Transport::send`].
    pub sent: u64,
    /// Delivery events scheduled (duplicates count twice).
    pub delivered: u64,
    /// Messages dropped by loss sampling.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back by reorder sampling.
    pub reordered: u64,
    /// Messages discarded by an active partition.
    pub partitioned: u64,
}

impl fmt::Display for TransportStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} duplicated={} reordered={} partitioned={}",
            self.sent, self.delivered, self.dropped, self.duplicated, self.reordered,
            self.partitioned
        )
    }
}

/// One active fault override on the fabric.
struct Override {
    id: u64,
    scope: String,
    probability: f64,
}

/// Does `scope` cover a message `from -> to`? A bare component name
/// matches either endpoint; `"a->b"` matches that direction only.
fn scope_matches(scope: &str, from: &str, to: &str) -> bool {
    match scope.split_once("->") {
        Some((a, b)) => a == from && b == to,
        None => scope == from || scope == to,
    }
}

/// What happened to one copy of a message, with its sampled delay in
/// seconds where it was delivered.
#[derive(Clone, Copy)]
enum Outcome {
    Partitioned,
    Dropped,
    Delivered(f64),
    Held(f64),
    Dup(f64),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Partitioned => f.write_str("partitioned"),
            Outcome::Dropped => f.write_str("dropped"),
            Outcome::Delivered(d) => write!(f, "delivered +{d:.3}s"),
            Outcome::Held(d) => write!(f, "held +{d:.3}s"),
            Outcome::Dup(d) => write!(f, "dup +{d:.3}s"),
        }
    }
}

/// The label of one send in the envelope trace, rendered only while the
/// transport records ([`Transport::record_trace`]). A literal works
/// as-is; a closure (`|| format!("m{i}")`) or a typed label defers the
/// formatting, so a transport that is not recording never builds the
/// text.
pub trait TraceLabel {
    /// The label text.
    fn render(self) -> String;
}

impl TraceLabel for &str {
    fn render(self) -> String {
        self.to_owned()
    }
}

impl<F: FnOnce() -> String> TraceLabel for F {
    fn render(self) -> String {
        self()
    }
}

/// One recorded send-time decision; `from`/`to` index the interned
/// endpoint names.
struct TraceEntry {
    at: SimTime,
    from: u32,
    to: u32,
    label: Box<str>,
    outcome: Outcome,
}

/// The message history: decisions in send order over a small table of
/// endpoint names.
#[derive(Default)]
struct Trace {
    endpoints: Vec<String>,
    entries: Vec<TraceEntry>,
}

impl Trace {
    fn endpoint(&mut self, name: &str) -> u32 {
        match self.endpoints.iter().position(|e| e == name) {
            Some(i) => i as u32,
            None => {
                self.endpoints.push(name.to_owned());
                (self.endpoints.len() - 1) as u32
            }
        }
    }

    fn record(&mut self, at: SimTime, from: &str, to: &str, label: String, outcomes: &[Outcome]) {
        let (from, to) = (self.endpoint(from), self.endpoint(to));
        let label: Box<str> = label.into();
        for &outcome in outcomes {
            self.entries.push(TraceEntry {
                at,
                from,
                to,
                label: label.clone(),
                outcome,
            });
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = writeln!(
                out,
                "[{}] {}->{} {}: {}",
                e.at,
                self.endpoints[e.from as usize],
                self.endpoints[e.to as usize],
                e.label,
                e.outcome
            );
        }
        out
    }
}

/// The live send-time decision counters: shared handles a metrics
/// registry can adopt. Components never count anywhere else.
#[derive(Clone, Default)]
struct TransportCounters {
    sent: Counter,
    delivered: Counter,
    dropped: Counter,
    duplicated: Counter,
    reordered: Counter,
    partitioned: Counter,
}

struct TransportState {
    rng: SimRng,
    tuning: LinkTuning,
    loss: Vec<Override>,
    duplication: Vec<Override>,
    reorder: Vec<Override>,
    partitions: Vec<Override>,
    next_override: u64,
    counters: TransportCounters,
    /// The envelope trace; `None` until [`Transport::record_trace`].
    trace: Option<Trace>,
}

impl TransportState {
    fn effective(&self, base: f64, overrides: &[Override], from: &str, to: &str) -> f64 {
        overrides
            .iter()
            .filter(|o| scope_matches(&o.scope, from, to))
            .map(|o| o.probability)
            .fold(base, f64::max)
    }

    /// Sample and count the fate of one message `from -> to`: partition,
    /// loss, delay, duplication, and reordering, in that fixed order so
    /// the RNG stream is reproducible. Returns the first copy's outcome
    /// and the duplicate's delay, if one was made.
    fn decide(&mut self, from: &str, to: &str) -> (Outcome, Option<f64>) {
        self.counters.sent.inc();
        if self
            .partitions
            .iter()
            .any(|o| scope_matches(&o.scope, from, to))
        {
            self.counters.partitioned.inc();
            return (Outcome::Partitioned, None);
        }
        let (lo, hi) = self.tuning.delay;
        let mut delay = self.rng.uniform(lo, hi);
        let drop_p = self.effective(self.tuning.drop_p, &self.loss, from, to);
        if drop_p > 0.0 && self.rng.chance(drop_p) {
            self.counters.dropped.inc();
            return (Outcome::Dropped, None);
        }
        let dup_p = self.effective(self.tuning.dup_p, &self.duplication, from, to);
        let dup_delay = if dup_p > 0.0 && self.rng.chance(dup_p) {
            Some(self.rng.uniform(lo, hi))
        } else {
            None
        };
        let reorder_p = self.effective(self.tuning.reorder_p, &self.reorder, from, to);
        let mut held = false;
        if reorder_p > 0.0 && self.rng.chance(reorder_p) {
            let (hlo, hhi) = self.tuning.reorder_hold;
            delay += self.rng.uniform(hlo, hhi);
            held = true;
        }
        let first = if held {
            self.counters.reordered.inc();
            Outcome::Held(delay)
        } else {
            Outcome::Delivered(delay)
        };
        if dup_delay.is_some() {
            self.counters.duplicated.inc();
            self.counters.delivered.add(2);
        } else {
            self.counters.delivered.inc();
        }
        (first, dup_delay)
    }
}

/// A seeded unreliable message fabric. Cheap `Rc` handle.
#[derive(Clone)]
pub struct Transport {
    inner: Rc<RefCell<TransportState>>,
}

impl Transport {
    /// A fabric with default tuning (only propagation delay; no faults).
    pub fn new(rng: SimRng) -> Transport {
        Transport {
            inner: Rc::new(RefCell::new(TransportState {
                rng,
                tuning: LinkTuning::default(),
                loss: Vec::new(),
                duplication: Vec::new(),
                reorder: Vec::new(),
                partitions: Vec::new(),
                next_override: 0,
                counters: TransportCounters::default(),
                trace: None,
            })),
        }
    }

    /// Start recording the envelope trace: every later send's decision
    /// is kept for [`Transport::trace_text`]. Until this is called the
    /// transport keeps no history and renders no labels. Idempotent.
    pub fn record_trace(&self) {
        self.inner.borrow_mut().trace.get_or_insert_with(Trace::default);
    }

    /// Attach an observability handle: the fabric's decision counters are
    /// registered as `transport.*` metrics (the registry adopts the very
    /// handles `send` counts through). The per-message history, when
    /// recorded, stays in [`Transport::trace_text`].
    pub fn set_obs(&self, obs: &Obs) {
        let state = self.inner.borrow();
        obs.register_counter("transport.sent", &state.counters.sent);
        obs.register_counter("transport.delivered", &state.counters.delivered);
        obs.register_counter("transport.dropped", &state.counters.dropped);
        obs.register_counter("transport.duplicated", &state.counters.duplicated);
        obs.register_counter("transport.reordered", &state.counters.reordered);
        obs.register_counter("transport.partitioned", &state.counters.partitioned);
    }

    /// Replace the baseline link behaviour.
    pub fn set_tuning(&self, tuning: LinkTuning) {
        self.inner.borrow_mut().tuning = tuning;
    }

    /// Current baseline link behaviour.
    pub fn tuning(&self) -> LinkTuning {
        self.inner.borrow().tuning.clone()
    }

    fn add(&self, list: impl Fn(&mut TransportState) -> &mut Vec<Override>, scope: &str, p: f64) -> u64 {
        let mut state = self.inner.borrow_mut();
        let id = state.next_override;
        state.next_override += 1;
        list(&mut state).push(Override {
            id,
            scope: scope.to_owned(),
            probability: p,
        });
        id
    }

    /// Raise the drop probability for messages matching `scope` until
    /// [`Transport::clear`] is called with the returned id.
    pub fn set_loss(&self, scope: &str, probability: f64) -> u64 {
        assert!((0.0..=1.0).contains(&probability));
        self.add(|s| &mut s.loss, scope, probability)
    }

    /// Raise the duplication probability for messages matching `scope`.
    pub fn set_duplication(&self, scope: &str, probability: f64) -> u64 {
        assert!((0.0..=1.0).contains(&probability));
        self.add(|s| &mut s.duplication, scope, probability)
    }

    /// Raise the reordering probability for messages matching `scope`.
    pub fn set_reorder(&self, scope: &str, probability: f64) -> u64 {
        assert!((0.0..=1.0).contains(&probability));
        self.add(|s| &mut s.reorder, scope, probability)
    }

    /// Partition matching messages absolutely. A directional scope
    /// (`"shop->node3"`) makes the partition asymmetric.
    pub fn set_partition(&self, scope: &str) -> u64 {
        self.add(|s| &mut s.partitions, scope, 1.0)
    }

    /// Remove one override by id (any kind). Unknown ids are ignored.
    pub fn clear(&self, id: u64) {
        let mut state = self.inner.borrow_mut();
        state.loss.retain(|o| o.id != id);
        state.duplication.retain(|o| o.id != id);
        state.reorder.retain(|o| o.id != id);
        state.partitions.retain(|o| o.id != id);
    }

    /// A drop-probability window: raised now, restored after `duration`.
    pub fn inject_loss(
        &self,
        engine: &mut Engine,
        scope: &str,
        probability: f64,
        duration: SimDuration,
    ) {
        let id = self.set_loss(scope, probability);
        let t = self.clone();
        engine.schedule(duration, move |_| t.clear(id));
    }

    /// A duplication window.
    pub fn inject_duplication(
        &self,
        engine: &mut Engine,
        scope: &str,
        probability: f64,
        duration: SimDuration,
    ) {
        let id = self.set_duplication(scope, probability);
        let t = self.clone();
        engine.schedule(duration, move |_| t.clear(id));
    }

    /// A reordering window.
    pub fn inject_reorder(
        &self,
        engine: &mut Engine,
        scope: &str,
        probability: f64,
        duration: SimDuration,
    ) {
        let id = self.set_reorder(scope, probability);
        let t = self.clone();
        engine.schedule(duration, move |_| t.clear(id));
    }

    /// A partition window (possibly asymmetric, see
    /// [`Transport::set_partition`]).
    pub fn inject_partition(&self, engine: &mut Engine, scope: &str, duration: SimDuration) {
        let id = self.set_partition(scope);
        let t = self.clone();
        engine.schedule(duration, move |_| t.clear(id));
    }

    /// Send a message `from -> to`. Samples partition, loss, delay,
    /// duplication, and reordering (in that fixed order, so the RNG
    /// stream is reproducible), records one trace entry per copy while
    /// recording (rendering `label` only then), and schedules `deliver`
    /// for every surviving copy. `label` must not call back into the
    /// transport.
    pub fn send<L, F>(&self, engine: &mut Engine, from: &str, to: &str, label: L, deliver: F)
    where
        L: TraceLabel,
        F: Fn(&mut Engine) + 'static,
    {
        let (first, dup) = {
            let mut state = self.inner.borrow_mut();
            let (first, dup) = state.decide(from, to);
            if let Some(trace) = &mut state.trace {
                let now = engine.now();
                match dup {
                    None => trace.record(now, from, to, label.render(), &[first]),
                    Some(d) => {
                        trace.record(now, from, to, label.render(), &[first, Outcome::Dup(d)])
                    }
                }
            }
            (first, dup)
        };
        let delay = match first {
            Outcome::Delivered(d) | Outcome::Held(d) => d,
            Outcome::Partitioned | Outcome::Dropped | Outcome::Dup(_) => return,
        };
        match dup {
            None => {
                engine.schedule(SimDuration::from_secs_f64(delay), deliver);
            }
            Some(dup) => {
                let deliver = Rc::new(deliver);
                for delay in [delay, dup] {
                    let deliver = Rc::clone(&deliver);
                    engine.schedule(SimDuration::from_secs_f64(delay), move |engine| {
                        deliver(engine)
                    });
                }
            }
        }
    }

    /// Send-time decision counters, snapshotted from the live handles.
    pub fn stats(&self) -> TransportStats {
        let state = self.inner.borrow();
        TransportStats {
            sent: state.counters.sent.get(),
            delivered: state.counters.delivered.get(),
            dropped: state.counters.dropped.get(),
            duplicated: state.counters.duplicated.get(),
            reordered: state.counters.reordered.get(),
            partitioned: state.counters.partitioned.get(),
        }
    }

    /// Number of trace lines recorded so far (always 0 on a transport
    /// that is not recording).
    pub fn trace_len(&self) -> usize {
        self.inner.borrow().trace.as_ref().map_or(0, |t| t.entries.len())
    }

    /// One line per send-time decision since [`Transport::record_trace`]
    /// — the byte-comparable message history of the run, rendered on
    /// demand. Empty on a transport that is not recording.
    pub fn trace_text(&self) -> String {
        self.inner
            .borrow()
            .trace
            .as_ref()
            .map(Trace::render)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn counter() -> Rc<Cell<u32>> {
        Rc::new(Cell::new(0u32))
    }

    fn bump(hits: &Rc<Cell<u32>>) -> impl Fn(&mut Engine) {
        let hits = Rc::clone(hits);
        move |_: &mut Engine| hits.set(hits.get() + 1)
    }

    #[test]
    fn reliable_send_delivers_once_within_delay_bounds() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(1));
        t.record_trace();
        let hits = counter();
        let f = bump(&hits);
        t.send(&mut engine, "shop", "node0", "ping", move |e| f(e));
        engine.run();
        assert_eq!(hits.get(), 1);
        let dt = engine.now().as_secs_f64();
        assert!((0.05..=0.20).contains(&dt), "delay {dt}");
        let stats = t.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
        assert!(t.trace_text().contains("shop->node0 ping: delivered"));
    }

    #[test]
    fn certain_loss_drops_everything_until_cleared() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(2));
        let id = t.set_loss("node0", 1.0);
        let hits = counter();
        for _ in 0..5 {
            let f = bump(&hits);
            t.send(&mut engine, "shop", "node0", "m", move |e| f(e));
        }
        engine.run();
        assert_eq!(hits.get(), 0);
        assert_eq!(t.stats().dropped, 5);
        t.clear(id);
        let f = bump(&hits);
        t.send(&mut engine, "shop", "node0", "m", move |e| f(e));
        engine.run();
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn certain_duplication_delivers_twice() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(3));
        t.record_trace();
        t.set_duplication("shop", 1.0);
        let hits = counter();
        let f = bump(&hits);
        t.send(&mut engine, "shop", "node1", "m", move |e| f(e));
        engine.run();
        assert_eq!(hits.get(), 2);
        let stats = t.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.delivered, 2);
        assert!(t.trace_text().contains("dup +"));
    }

    #[test]
    fn partitions_are_directional_and_expire() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(4));
        t.inject_partition(&mut engine, "shop->node0", SimDuration::from_secs(10));
        let hits = counter();
        // Forward direction is cut…
        let f = bump(&hits);
        t.send(&mut engine, "shop", "node0", "req", move |e| f(e));
        // …the reverse direction is not.
        let f = bump(&hits);
        t.send(&mut engine, "node0", "shop", "resp", move |e| f(e));
        engine.run();
        assert_eq!(hits.get(), 1);
        assert_eq!(t.stats().partitioned, 1);
        // After the window the link heals (engine.run drained the reset).
        let f = bump(&hits);
        t.send(&mut engine, "shop", "node0", "req", move |e| f(e));
        engine.run();
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn reordering_holds_a_message_past_later_traffic() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(5));
        t.record_trace();
        t.set_reorder("shop", 1.0);
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let o1 = Rc::clone(&order);
        t.send(&mut engine, "shop", "node0", "first", move |_| {
            o1.borrow_mut().push(1)
        });
        // Second message sent on a clean fabric overtakes the held first.
        t.clear(0); // the reorder override got id 0
        let o2 = Rc::clone(&order);
        t.send(&mut engine, "shop", "node0", "second", move |_| {
            o2.borrow_mut().push(2)
        });
        engine.run();
        assert_eq!(*order.borrow(), vec![2, 1]);
        assert_eq!(t.stats().reordered, 1);
        assert!(t.trace_text().contains("held +"));
    }

    #[test]
    fn obs_registry_adopts_transport_counters() {
        let mut engine = Engine::new();
        let t = Transport::new(SimRng::seed_from_u64(9));
        t.record_trace();
        let obs = Obs::enabled();
        t.set_obs(&obs);
        t.set_loss("node0", 1.0);
        t.send(&mut engine, "shop", "node0", "m0", |_| {});
        t.send(&mut engine, "node1", "shop", "m1", |_| {});
        engine.run();
        // One counting path: the registry reads the same cells stats() does.
        let stats = t.stats();
        assert_eq!(stats.sent, 2);
        assert_eq!(obs.counter_value("transport.sent"), Some(2));
        assert_eq!(obs.counter_value("transport.dropped"), Some(stats.dropped));
        assert_eq!(
            obs.counter_value("transport.delivered"),
            Some(stats.delivered)
        );
        // Each decision is in the envelope trace, not in the span store.
        let trace = t.trace_text();
        assert!(trace.contains("shop->node0 m0: dropped"), "{trace}");
        assert!(trace.contains("node1->shop m1: delivered +"), "{trace}");
        assert_eq!(obs.trace_jsonl(), "");
    }

    #[test]
    fn same_seed_yields_identical_traces() {
        let run = |seed: u64| {
            let mut engine = Engine::new();
            let t = Transport::new(SimRng::seed_from_u64(seed));
            t.record_trace();
            t.set_loss("shop", 0.3);
            t.set_duplication("shop", 0.2);
            t.set_reorder("shop", 0.3);
            for i in 0..50 {
                t.send(&mut engine, "shop", "node0", || format!("m{i}"), |_| {});
            }
            engine.run();
            (t.trace_text(), t.stats())
        };
        let (trace_a, stats_a) = run(7);
        let (trace_b, stats_b) = run(7);
        assert_eq!(trace_a, trace_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.dropped > 0 && stats_a.duplicated > 0 && stats_a.reordered > 0);
        let (trace_c, _) = run(8);
        assert_ne!(trace_a, trace_c);
    }

    #[test]
    fn an_unrecording_transport_decides_identically_without_labels() {
        // The same sends on the same seed, once recording and once not:
        // every decision, counter, and delivery time must match, and the
        // silent transport must neither render a label nor keep a trace.
        let run = |record: bool| {
            let mut engine = Engine::new();
            let t = Transport::new(SimRng::seed_from_u64(13));
            if record {
                t.record_trace();
            }
            t.set_loss("shop", 0.3);
            t.set_duplication("node0", 0.3);
            t.set_reorder("shop", 0.4);
            t.set_partition("shop->node2");
            let arrivals: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 0..60u32 {
                let to = ["node0", "node1", "node2"][i as usize % 3];
                let sink = Rc::clone(&arrivals);
                let deliver = move |engine: &mut Engine| sink.borrow_mut().push((i, engine.now()));
                if record {
                    t.send(&mut engine, "shop", to, || format!("m{i}"), deliver);
                } else {
                    let label = || -> String { panic!("label rendered without a trace") };
                    t.send(&mut engine, "shop", to, label, deliver);
                }
            }
            engine.run();
            let arrivals = arrivals.borrow().clone();
            (t.stats(), arrivals, t.trace_len())
        };
        let (stats_on, arrivals_on, len_on) = run(true);
        let (stats_off, arrivals_off, len_off) = run(false);
        assert_eq!(len_off, 0);
        assert_eq!(stats_off, stats_on);
        assert_eq!(arrivals_off, arrivals_on);
        assert!(len_on as u64 >= stats_on.sent);
        assert!(
            stats_on.dropped > 0
                && stats_on.duplicated > 0
                && stats_on.reordered > 0
                && stats_on.partitioned > 0,
            "{stats_on}"
        );
    }
}
