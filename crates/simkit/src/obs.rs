//! Deterministic observability: sim-time tracing, a unified metrics
//! registry, exporters, and critical-path analysis.
//!
//! The paper's evaluation (§4) is entirely about *where time goes* — clone
//! versus resume versus boot versus NFS transfer — so the substrate needs
//! to be an instrument, not just a clock. This module provides:
//!
//! * **Sim-time tracing** — hierarchical [spans](Obs::span_start) and point
//!   [events](Obs::event) keyed on [`SimTime`], recorded into an in-memory
//!   buffer with stable integer IDs. A VM-creation order yields a span tree
//!   like `order → bid → produce → {clone_disk, copy_vmss, resume,
//!   guest_script}` with exact sim-duration attribution.
//! * A **unified metrics registry** — typed [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`HistogramMetric`]s registered by name. Components own
//!   cheap `Rc<Cell<..>>` handles and count through them unconditionally;
//!   the registry is a *named view* over those handles, so there is exactly
//!   one counting path and a snapshot is always consistent.
//! * **Exporters** — deterministic JSONL ([`Obs::trace_jsonl`]), Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` / Perfetto
//!   ([`Obs::chrome_trace`], sim-milliseconds mapped to microseconds), and
//!   a sorted text metrics dump ([`Obs::metrics_text`]).
//! * A **critical-path analyzer** ([`Obs::critical_path`]) — the DES
//!   analogue of a flamegraph: it tiles a root span's interval with its
//!   deepest active descendant at every instant, so the per-phase durations
//!   sum *exactly* (integer milliseconds) to the end-to-end latency.
//!
//! ## Determinism contract
//!
//! Tracing never consumes RNG draws and never adds simulated time, so an
//! instrumented run is behaviourally identical to an uninstrumented one,
//! and all exports are byte-identical across same-seed runs. When tracing
//! is disabled ([`Obs::disabled`], the default) every span/event call is a
//! single branch and the buffer never allocates; metric handles still count
//! (they are plain `Cell` stores, exactly what the hand-rolled stats
//! structs did before).
//!
//! ## Parenting in a callback-driven DES
//!
//! There is no call stack spanning simulated time, so spans take an
//! explicit parent. For instrumentation points that cannot thread a parent
//! through an existing trait signature (the hypervisor backends), the
//! caller pins an *ambient* parent ([`Obs::set_ambient`]) synchronously
//! around the call and the callee reads it on entry.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::time::{SimDuration, SimTime};

/// FNV-1a 64-bit hash: the deterministic, seed-free key hash behind head
/// sampling decisions (and nothing else — it never touches the sim RNG).
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identifier of a recorded span. `SpanId::NONE` (= 0) means "no span":
/// it is the root parent and the universal result when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The absent span: parent of roots, returned when tracing is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw id (0 = none; real spans start at 1).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A trace track: one horizontal lane in the exported trace (one simulated
/// component — the shop, a plant, the NFS pipe). Maps to a Chrome trace
/// `tid`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(u16);

impl TrackId {
    /// The default track (index 0).
    pub const DEFAULT: TrackId = TrackId(0);
}

/// A monotonic counter handle. Cloning shares the underlying cell; the
/// component that owns the handle increments it, the registry snapshots it.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// A fresh counter at zero (not yet registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.set(self.0.get() + 1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A signed gauge handle (current level of something: live events,
/// in-flight transfers).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Add (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.0.set(self.0.get() + delta);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

#[derive(Debug)]
struct HistInner {
    /// Upper bounds of the finite buckets; an implicit `+inf` bucket
    /// follows the last bound.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

/// A fixed-bucket histogram handle: observation `x` lands in the first
/// bucket whose upper bound is `>= x`, or the implicit `+inf` bucket.
#[derive(Clone, Debug)]
pub struct HistogramMetric(Rc<RefCell<HistInner>>);

impl HistogramMetric {
    /// A histogram with the given finite upper bounds (must be sorted
    /// ascending; an `+inf` overflow bucket is implicit).
    pub fn new(bounds: &[f64]) -> HistogramMetric {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        HistogramMetric(Rc::new(RefCell::new(HistInner {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        })))
    }

    /// Record one observation.
    pub fn record(&self, x: f64) {
        let mut h = self.0.borrow_mut();
        let idx = h
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(h.bounds.len());
        h.counts[idx] += 1;
        h.sum += x;
        h.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.0.borrow().sum
    }

    /// `(upper_bound, count)` rows; the final row uses `f64::INFINITY`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let h = self.0.borrow();
        h.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(h.counts.iter().copied())
            .collect()
    }

    /// `(upper_bound, cumulative_count)` rows: each row counts every
    /// observation `<=` its bound, so the final (`+inf`) row equals
    /// [`HistogramMetric::count`]. The Prometheus-style view rendered by
    /// [`Obs::metrics_text`].
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        self.buckets()
            .into_iter()
            .map(|(bound, n)| {
                acc += n;
                (bound, acc)
            })
            .collect()
    }
}

/// One registered metric: a named view over a shared handle.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramMetric),
}

#[derive(Clone)]
struct SpanRec {
    parent: SpanId,
    track: TrackId,
    name: String,
    start: SimTime,
    end: Option<SimTime>,
    attrs: Vec<(String, String)>,
}

struct EventRec {
    track: TrackId,
    name: String,
    at: SimTime,
    attrs: Vec<(String, String)>,
}

/// Configuration for sampled (bounded-memory) tracing: see
/// [`Obs::sampled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Head-sampling rate in parts per million: a trace is retained for
    /// export iff `fnv1a64(key) % 1_000_000 < rate_ppm`. Deterministic and
    /// key-stable: a retried/recovered order (same key) always lands on
    /// the same side of the decision.
    pub rate_ppm: u32,
    /// How many of the slowest completed traces the flight recorder keeps
    /// (tail-based retention, independent of head sampling).
    pub flight_slowest: usize,
    /// Ring capacity for failed traces: the *last* `flight_failed` failed
    /// traces are kept.
    pub flight_failed: usize,
    /// Shard tag stamped on every trace so flight recorders merged across
    /// `run_ordered` shards have a total, grouping-invariant order
    /// (`duration, unit, seq` is unique).
    pub unit: u32,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            rate_ppm: 10_000, // 1%
            flight_slowest: 8,
            flight_failed: 32,
            unit: 0,
        }
    }
}

/// One in-flight (or completed) trace in sampled mode: the root span and
/// every descendant, with parents in trace-local 1-based index space.
#[derive(Clone)]
struct TraceBuf {
    key: String,
    unit: u32,
    seq: u64,
    sampled: bool,
    duration_ms: u64,
    failed: bool,
    spans: Vec<SpanRec>,
}

/// Bounded-memory tracing state. Every span of an in-flight trace is
/// buffered (so tail-based retention can keep *unsampled* slow or failed
/// traces); the retention decision happens when the root ends, and
/// everything else is dropped. Point events are counted per name, not
/// stored.
struct SamplerInner {
    config: SamplerConfig,
    /// Slab of in-flight traces; freed slots are reused LIFO.
    slots: RefCell<Vec<Option<TraceBuf>>>,
    free: RefCell<Vec<u32>>,
    /// Traces started (also the per-unit trace sequence number).
    seq: Cell<u64>,
    finished: Cell<u64>,
    failed_count: Cell<u64>,
    spans_recorded: Cell<u64>,
    active: Cell<usize>,
    active_high_water: Cell<usize>,
    /// Head-sampled completed traces, in completion order.
    retained: RefCell<Vec<TraceBuf>>,
    /// The `flight_slowest` slowest completed traces (any outcome).
    slowest: RefCell<Vec<TraceBuf>>,
    /// Ring of the last `flight_failed` failed traces.
    failed: RefCell<VecDeque<TraceBuf>>,
    /// Point-event counts by name (events are not stored in sampled mode).
    event_counts: RefCell<BTreeMap<String, u64>>,
}

/// Counters describing what sampled-mode tracing kept and dropped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Traces started (root spans opened).
    pub traces_started: u64,
    /// Traces whose root span ended.
    pub traces_finished: u64,
    /// Completed traces retained by head sampling.
    pub traces_retained: u64,
    /// Completed traces whose root carried `outcome=failed`.
    pub traces_failed: u64,
    /// Spans recorded across all traces (retained or not).
    pub spans_recorded: u64,
    /// Point events counted (none are stored).
    pub events_counted: u64,
    /// Traces still in flight.
    pub active: usize,
    /// Peak concurrent in-flight traces — the obs memory high-water mark.
    pub active_high_water: usize,
}

struct ObsInner {
    enabled: bool,
    tracks: RefCell<Vec<String>>,
    spans: RefCell<Vec<SpanRec>>,
    events: RefCell<Vec<EventRec>>,
    ambient: Cell<SpanId>,
    metrics: RefCell<BTreeMap<String, Metric>>,
    sampler: Option<SamplerInner>,
}

/// Sampled-mode span ids encode `(slot, local_index)` so span calls can
/// address an in-flight trace buffer directly: both halves are biased by
/// one so no encoded id collides with `SpanId::NONE` or with full-mode
/// flat ids (which this instance never hands out — modes are fixed at
/// construction).
const SLOT_BITS: u32 = 16;
const LOCAL_MASK: u32 = (1 << SLOT_BITS) - 1;

fn encode_span(slot: usize, local: usize) -> SpanId {
    assert!(slot + 1 < (1 << SLOT_BITS), "too many in-flight traces");
    assert!(local + 1 < (1 << SLOT_BITS), "too many spans in one trace");
    SpanId((((slot as u32) + 1) << SLOT_BITS) | ((local as u32) + 1))
}

fn decode_span(id: SpanId) -> (usize, usize) {
    debug_assert!(id.0 >> SLOT_BITS != 0, "not a sampled-mode span id");
    (
        ((id.0 >> SLOT_BITS) - 1) as usize,
        ((id.0 & LOCAL_MASK) - 1) as usize,
    )
}

/// The observability handle: a cheap clonable reference shared by every
/// instrumented component of a site. Whether tracing is on is fixed at
/// construction ([`Obs::enabled`] / [`Obs::disabled`]); the metrics
/// registry works either way.
#[derive(Clone)]
pub struct Obs {
    inner: Rc<ObsInner>,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::disabled()
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.inner.enabled)
            .field("spans", &self.inner.spans.borrow().len())
            .field("events", &self.inner.events.borrow().len())
            .field("metrics", &self.inner.metrics.borrow().len())
            .finish()
    }
}

impl Obs {
    fn with_parts(enabled: bool, sampler: Option<SamplerInner>) -> Obs {
        Obs {
            inner: Rc::new(ObsInner {
                enabled,
                tracks: RefCell::new(vec!["main".to_string()]),
                spans: RefCell::new(Vec::new()),
                events: RefCell::new(Vec::new()),
                ambient: Cell::new(SpanId::NONE),
                metrics: RefCell::new(BTreeMap::new()),
                sampler,
            }),
        }
    }

    fn with_enabled(enabled: bool) -> Obs {
        Obs::with_parts(enabled, None)
    }

    /// Tracing off (the default): span/event calls are single-branch
    /// no-ops, the registry still works.
    pub fn disabled() -> Obs {
        Obs::with_enabled(false)
    }

    /// Tracing on: spans and events are recorded.
    pub fn enabled() -> Obs {
        Obs::with_enabled(true)
    }

    /// Bounded-memory tracing: spans are buffered per trace while the
    /// trace is in flight, and when its root ends the trace is either
    /// retained (head-sampled by `fnv1a64(key)`, among the
    /// `flight_slowest` slowest, or failed) or dropped wholesale. Memory
    /// is O(in-flight traces + retained traces), independent of run
    /// length; point events are counted per name, not stored. The
    /// decision inputs (key hash, sim durations) are deterministic, so
    /// sampled exports are byte-identical across same-seed runs.
    pub fn sampled(config: SamplerConfig) -> Obs {
        Obs::with_parts(
            true,
            Some(SamplerInner {
                config,
                slots: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                seq: Cell::new(0),
                finished: Cell::new(0),
                failed_count: Cell::new(0),
                spans_recorded: Cell::new(0),
                active: Cell::new(0),
                active_high_water: Cell::new(0),
                retained: RefCell::new(Vec::new()),
                slowest: RefCell::new(Vec::new()),
                failed: RefCell::new(VecDeque::new()),
                event_counts: RefCell::new(BTreeMap::new()),
            }),
        )
    }

    /// Whether tracing is recording.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Whether this instance traces in sampled (bounded-memory) mode.
    pub fn is_sampled(&self) -> bool {
        self.inner.sampler.is_some()
    }

    // ------------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------------

    /// Intern a track by name (idempotent): the lane spans and events are
    /// drawn on in the exported trace.
    pub fn track(&self, name: &str) -> TrackId {
        if !self.inner.enabled {
            return TrackId::DEFAULT;
        }
        let mut tracks = self.inner.tracks.borrow_mut();
        if let Some(i) = tracks.iter().position(|t| t == name) {
            return TrackId(i as u16);
        }
        tracks.push(name.to_string());
        TrackId((tracks.len() - 1) as u16)
    }

    /// Open a *root* span keyed for head sampling. In full and disabled
    /// modes this is exactly `span_start(SpanId::NONE, ..)`; in sampled
    /// mode it starts a new trace whose retention is decided by
    /// `fnv1a64(key)` when the root ends. Instrumentation that owns a
    /// stable identity (the shop keys order traces by VM id) should use
    /// this so retries and recoveries of the same order sample
    /// consistently.
    pub fn trace_root(&self, track: TrackId, name: &str, key: &str, start: SimTime) -> SpanId {
        if !self.inner.enabled {
            return SpanId::NONE;
        }
        match &self.inner.sampler {
            Some(sampler) => self.sampled_root(sampler, track, name, key, start),
            None => self.span_start(SpanId::NONE, track, name, start),
        }
    }

    fn sampled_root(
        &self,
        sampler: &SamplerInner,
        track: TrackId,
        name: &str,
        key: &str,
        start: SimTime,
    ) -> SpanId {
        let seq = sampler.seq.get();
        sampler.seq.set(seq + 1);
        let sampled = fnv1a64(key) % 1_000_000 < sampler.config.rate_ppm as u64;
        let buf = TraceBuf {
            key: key.to_string(),
            unit: sampler.config.unit,
            seq,
            sampled,
            duration_ms: 0,
            failed: false,
            spans: vec![SpanRec {
                parent: SpanId::NONE,
                track,
                name: name.to_string(),
                start,
                end: None,
                attrs: Vec::new(),
            }],
        };
        let mut slots = sampler.slots.borrow_mut();
        let slot = match sampler.free.borrow_mut().pop() {
            Some(s) => {
                slots[s as usize] = Some(buf);
                s as usize
            }
            None => {
                slots.push(Some(buf));
                slots.len() - 1
            }
        };
        sampler.spans_recorded.set(sampler.spans_recorded.get() + 1);
        let active = sampler.active.get() + 1;
        sampler.active.set(active);
        if active > sampler.active_high_water.get() {
            sampler.active_high_water.set(active);
        }
        encode_span(slot, 0)
    }

    /// Open a span at `start` under `parent` (pass [`SpanId::NONE`] for a
    /// root). Returns [`SpanId::NONE`] when tracing is off. In sampled
    /// mode a `NONE` parent starts a new trace keyed by the span name;
    /// a parent whose trace already completed is dropped (returns
    /// [`SpanId::NONE`]).
    pub fn span_start(
        &self,
        parent: SpanId,
        track: TrackId,
        name: &str,
        start: SimTime,
    ) -> SpanId {
        if !self.inner.enabled {
            return SpanId::NONE;
        }
        if let Some(sampler) = &self.inner.sampler {
            if parent.is_none() {
                return self.sampled_root(sampler, track, name, name, start);
            }
            let (slot, plocal) = decode_span(parent);
            let mut slots = sampler.slots.borrow_mut();
            let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) else {
                return SpanId::NONE; // parent's trace already finalized
            };
            let local = buf.spans.len();
            buf.spans.push(SpanRec {
                parent: SpanId((plocal + 1) as u32),
                track,
                name: name.to_string(),
                start,
                end: None,
                attrs: Vec::new(),
            });
            sampler.spans_recorded.set(sampler.spans_recorded.get() + 1);
            return encode_span(slot, local);
        }
        let mut spans = self.inner.spans.borrow_mut();
        spans.push(SpanRec {
            parent,
            track,
            name: name.to_string(),
            start,
            end: None,
            attrs: Vec::new(),
        });
        SpanId(spans.len() as u32)
    }

    /// Close a span at `end`. No-op for [`SpanId::NONE`]. In sampled mode,
    /// closing a trace's *root* finalizes the whole trace: it is retained
    /// if head-sampled, among the slowest, or failed (root attribute
    /// `outcome=failed`), and dropped otherwise.
    pub fn span_end(&self, id: SpanId, end: SimTime) {
        if !self.inner.enabled || id.is_none() {
            return;
        }
        if let Some(sampler) = &self.inner.sampler {
            let (slot, local) = decode_span(id);
            let mut slots = sampler.slots.borrow_mut();
            let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) else {
                return; // trace already finalized
            };
            let rec = &mut buf.spans[local];
            debug_assert!(end >= rec.start, "span ends before it starts");
            rec.end = Some(end);
            if local == 0 {
                let buf = slots[slot].take().expect("root just updated");
                drop(slots);
                sampler.free.borrow_mut().push(slot as u32);
                sampler.active.set(sampler.active.get() - 1);
                self.finalize_trace(sampler, buf, end);
            }
            return;
        }
        let mut spans = self.inner.spans.borrow_mut();
        let rec = &mut spans[(id.0 - 1) as usize];
        debug_assert!(end >= rec.start, "span ends before it starts");
        rec.end = Some(end);
    }

    /// Retention decision for a completed trace (sampled mode).
    fn finalize_trace(&self, sampler: &SamplerInner, mut buf: TraceBuf, end: SimTime) {
        let root = &buf.spans[0];
        buf.duration_ms = end.since_saturating(root.start).as_millis();
        buf.failed = root
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "failed");
        sampler.finished.set(sampler.finished.get() + 1);
        if buf.failed {
            sampler.failed_count.set(sampler.failed_count.get() + 1);
        }
        // Tail retention: the K slowest completed traces, totally ordered
        // by (duration, unit, seq) so replacement is deterministic.
        let cap = sampler.config.flight_slowest;
        if cap > 0 {
            let mut slowest = sampler.slowest.borrow_mut();
            let rank = |b: &TraceBuf| (b.duration_ms, b.unit, b.seq);
            if slowest.len() < cap {
                slowest.push(buf.clone());
            } else if let Some(min_at) = (0..slowest.len())
                .min_by_key(|&i| rank(&slowest[i]))
                .filter(|&i| rank(&slowest[i]) < rank(&buf))
            {
                slowest[min_at] = buf.clone();
            }
        }
        if buf.failed && sampler.config.flight_failed > 0 {
            let mut failed = sampler.failed.borrow_mut();
            if failed.len() == sampler.config.flight_failed {
                failed.pop_front();
            }
            failed.push_back(buf.clone());
        }
        if buf.sampled {
            sampler.retained.borrow_mut().push(buf);
        }
    }

    /// Record a span retroactively, already closed over `[start, end]`.
    /// Used where a phase's duration is only known at its completion
    /// callback (NFS transfers, hypervisor clone phases).
    pub fn span(
        &self,
        parent: SpanId,
        track: TrackId,
        name: &str,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = self.span_start(parent, track, name, start);
        self.span_end(id, end);
        id
    }

    /// Attach a key/value attribute to a span. No-op for [`SpanId::NONE`]
    /// (and, in sampled mode, for spans of already-finalized traces).
    pub fn span_attr(&self, id: SpanId, key: &str, value: impl fmt::Display) {
        if !self.inner.enabled || id.is_none() {
            return;
        }
        if let Some(sampler) = &self.inner.sampler {
            let (slot, local) = decode_span(id);
            let mut slots = sampler.slots.borrow_mut();
            if let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) {
                buf.spans[local]
                    .attrs
                    .push((key.to_string(), value.to_string()));
            }
            return;
        }
        let mut spans = self.inner.spans.borrow_mut();
        spans[(id.0 - 1) as usize]
            .attrs
            .push((key.to_string(), value.to_string()));
    }

    /// Record an instantaneous point event.
    pub fn event(&self, track: TrackId, name: &str, at: SimTime) {
        self.event_with(track, name, at, &[]);
    }

    /// Record a point event with attributes. In sampled mode events are
    /// counted per name ([`Obs::event_counts`]) and the payload is
    /// dropped — a million-order run keeps a handful of integers.
    pub fn event_with(&self, track: TrackId, name: &str, at: SimTime, attrs: &[(&str, &str)]) {
        if !self.inner.enabled {
            return;
        }
        if let Some(sampler) = &self.inner.sampler {
            let mut counts = sampler.event_counts.borrow_mut();
            match counts.get_mut(name) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(name.to_string(), 1);
                }
            }
            return;
        }
        self.inner.events.borrow_mut().push(EventRec {
            track,
            name: name.to_string(),
            at,
            attrs: attrs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Pin the ambient parent span and return the previous one. Callers
    /// restore the previous value after the instrumented call; callees
    /// that cannot take an explicit parent read it via [`Obs::ambient`]
    /// *synchronously on entry* (it is only valid for the duration of the
    /// pinning call, not across scheduled callbacks).
    pub fn set_ambient(&self, span: SpanId) -> SpanId {
        self.inner.ambient.replace(span)
    }

    /// The currently pinned ambient parent span.
    pub fn ambient(&self) -> SpanId {
        self.inner.ambient.get()
    }

    // ------------------------------------------------------------------
    // Sampled-mode inspection.
    // ------------------------------------------------------------------

    /// Counters describing sampled-mode retention (`None` in full or
    /// disabled mode).
    pub fn sampler_stats(&self) -> Option<SamplerStats> {
        let sampler = self.inner.sampler.as_ref()?;
        Some(SamplerStats {
            traces_started: sampler.seq.get(),
            traces_finished: sampler.finished.get(),
            traces_retained: sampler.retained.borrow().len() as u64,
            traces_failed: sampler.failed_count.get(),
            spans_recorded: sampler.spans_recorded.get(),
            events_counted: sampler.event_counts.borrow().values().sum(),
            active: sampler.active.get(),
            active_high_water: sampler.active_high_water.get(),
        })
    }

    /// Point-event counts by name (sampled mode; empty otherwise).
    pub fn event_counts(&self) -> Vec<(String, u64)> {
        match &self.inner.sampler {
            Some(sampler) => sampler
                .event_counts
                .borrow()
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Extract the flight recorder: a `Send` snapshot of the K slowest and
    /// the last F failed traces, mergeable across shards. Empty outside
    /// sampled mode.
    pub fn flight_recorder(&self) -> FlightRecorder {
        let Some(sampler) = &self.inner.sampler else {
            return FlightRecorder::default();
        };
        let tracks = self.inner.tracks.borrow();
        let mut slowest: Vec<FlightTrace> = sampler
            .slowest
            .borrow()
            .iter()
            .map(|buf| flight_trace(buf, &tracks))
            .collect();
        slowest.sort_by(|a, b| {
            (std::cmp::Reverse(a.duration_ms), a.unit, a.seq)
                .cmp(&(std::cmp::Reverse(b.duration_ms), b.unit, b.seq))
        });
        let failed: Vec<FlightTrace> = sampler
            .failed
            .borrow()
            .iter()
            .map(|buf| flight_trace(buf, &tracks))
            .collect();
        FlightRecorder {
            slowest_cap: sampler.config.flight_slowest,
            failed_cap: sampler.config.flight_failed,
            slowest,
            failed,
        }
    }

    // ------------------------------------------------------------------
    // Trace inspection.
    // ------------------------------------------------------------------

    /// Read a span record field in whichever mode applies. In sampled
    /// mode only *live* (in-flight) traces are addressable.
    fn with_span<T>(&self, id: SpanId, f: impl FnOnce(&SpanRec) -> T) -> T {
        if let Some(sampler) = &self.inner.sampler {
            let (slot, local) = decode_span(id);
            let slots = sampler.slots.borrow();
            let buf = slots
                .get(slot)
                .and_then(|b| b.as_ref())
                .expect("span's trace already finalized");
            return f(&buf.spans[local]);
        }
        f(&self.inner.spans.borrow()[(id.0 - 1) as usize])
    }

    /// Number of recorded spans (in sampled mode: across all traces,
    /// retained or not).
    pub fn span_count(&self) -> usize {
        match &self.inner.sampler {
            Some(sampler) => sampler.spans_recorded.get() as usize,
            None => self.inner.spans.borrow().len(),
        }
    }

    /// A span's name.
    pub fn span_name(&self, id: SpanId) -> String {
        self.with_span(id, |rec| rec.name.clone())
    }

    /// A span's parent.
    pub fn span_parent(&self, id: SpanId) -> SpanId {
        if self.inner.sampler.is_some() {
            let (slot, _) = decode_span(id);
            let parent = self.with_span(id, |rec| rec.parent);
            return if parent.is_none() {
                SpanId::NONE
            } else {
                encode_span(slot, (parent.0 - 1) as usize)
            };
        }
        self.with_span(id, |rec| rec.parent)
    }

    /// A span's `(start, end)`; `end` is `None` while still open.
    pub fn span_interval(&self, id: SpanId) -> (SimTime, Option<SimTime>) {
        self.with_span(id, |rec| (rec.start, rec.end))
    }

    /// A span's attributes, in insertion order.
    pub fn span_attrs(&self, id: SpanId) -> Vec<(String, String)> {
        self.with_span(id, |rec| rec.attrs.clone())
    }

    /// Look up one attribute on a span.
    pub fn span_attr_get(&self, id: SpanId, key: &str) -> Option<String> {
        self.with_span(id, |rec| {
            rec.attrs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
        })
    }

    /// All spans with the given name, in id order. Full mode only: in
    /// sampled mode finished traces are dropped or exported, not indexed
    /// (returns empty).
    pub fn spans_named(&self, name: &str) -> Vec<SpanId> {
        if self.inner.sampler.is_some() {
            return Vec::new();
        }
        self.inner
            .spans
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| SpanId(i as u32 + 1))
            .collect()
    }

    /// All root spans (parent = [`SpanId::NONE`]), in id order. Full mode
    /// only (empty in sampled mode, like [`Obs::spans_named`]).
    pub fn root_spans(&self) -> Vec<SpanId> {
        if self.inner.sampler.is_some() {
            return Vec::new();
        }
        self.inner
            .spans
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, _)| SpanId(i as u32 + 1))
            .collect()
    }

    // ------------------------------------------------------------------
    // Metrics registry.
    // ------------------------------------------------------------------

    /// Get-or-register a counter by name. Re-registering the same name
    /// returns the existing handle, so independent components can share a
    /// metric safely.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.inner.metrics.borrow_mut();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Register an *existing* counter handle under a name (the adoption
    /// path: a component keeps counting through its own handle and the
    /// registry snapshots it — no duplicated counting).
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        self.inner
            .metrics
            .borrow_mut()
            .insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// Get-or-register a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.inner.metrics.borrow_mut();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Register an existing gauge handle under a name.
    pub fn register_gauge(&self, name: &str, gauge: &Gauge) {
        self.inner
            .metrics
            .borrow_mut()
            .insert(name.to_string(), Metric::Gauge(gauge.clone()));
    }

    /// Register an existing histogram handle under a name.
    pub fn register_histogram(&self, name: &str, histogram: &HistogramMetric) {
        self.inner
            .metrics
            .borrow_mut()
            .insert(name.to_string(), Metric::Histogram(histogram.clone()));
    }

    /// Get-or-register a fixed-bucket histogram by name. `bounds` is only
    /// consulted on first registration.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> HistogramMetric {
        let mut metrics = self.inner.metrics.borrow_mut();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramMetric::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Read a registered counter's value (`None` when absent or not a
    /// counter).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.inner.metrics.borrow().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Read a registered gauge's level.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.inner.metrics.borrow().get(name) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Deterministic text snapshot of every registered metric, sorted by
    /// name (BTreeMap order), one line each.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.inner.metrics.borrow().iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("counter {name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("gauge {name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    // Cumulative per-bucket counts (each `le_B` counts all
                    // observations <= B, so `le_inf` equals `count`).
                    let mut line = format!(
                        "histogram {name} count={} sum={:.3}",
                        h.count(),
                        h.sum()
                    );
                    for (bound, cum) in h.cumulative_buckets() {
                        if bound.is_infinite() {
                            line.push_str(&format!(" le_inf={cum}"));
                        } else {
                            line.push_str(&format!(" le_{bound}={cum}"));
                        }
                    }
                    line.push('\n');
                    out.push_str(&line);
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Exporters.
    // ------------------------------------------------------------------

    /// Export the trace as JSON Lines: one object per span (in id order)
    /// then one per point event (in record order). Byte-identical across
    /// same-seed runs. In sampled mode this exports the head-sampled
    /// traces (in completion order, ids renumbered contiguously); the
    /// flight recorder has its own exporters.
    pub fn trace_jsonl(&self) -> String {
        if let Some(sampler) = &self.inner.sampler {
            let tracks = self.inner.tracks.borrow();
            let mut out = String::new();
            let mut next_id = 1usize;
            for buf in sampler.retained.borrow().iter() {
                push_trace_jsonl(&mut out, buf, &tracks, &mut next_id);
            }
            return out;
        }
        let tracks = self.inner.tracks.borrow();
        let mut out = String::new();
        for (i, s) in self.inner.spans.borrow().iter().enumerate() {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"track\":{},\"name\":{}",
                i + 1,
                s.parent.0,
                json_str(&tracks[s.track.0 as usize]),
                json_str(&s.name),
            ));
            out.push_str(&format!(",\"start_ms\":{}", s.start.as_millis()));
            match s.end {
                Some(end) => out.push_str(&format!(",\"end_ms\":{}", end.as_millis())),
                None => out.push_str(",\"end_ms\":null"),
            }
            push_attrs(&mut out, &s.attrs);
            out.push_str("}\n");
        }
        for e in self.inner.events.borrow().iter() {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"track\":{},\"name\":{},\"at_ms\":{}",
                json_str(&tracks[e.track.0 as usize]),
                json_str(&e.name),
                e.at.as_millis()
            ));
            push_attrs(&mut out, &e.attrs);
            out.push_str("}\n");
        }
        out
    }

    /// Export the trace in Chrome `trace_event` JSON (the array-of-events
    /// object form), loadable in `chrome://tracing` and Perfetto. Sim-time
    /// milliseconds map to trace microseconds; each track becomes a thread
    /// of process 1. Open spans are exported with zero duration. In
    /// sampled mode this exports the head-sampled traces' spans.
    pub fn chrome_trace(&self) -> String {
        let tracks = self.inner.tracks.borrow();
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"vmplants\"}}"
                .to_string(),
        );
        for (i, t) in tracks.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_str(t)
            ));
        }
        let mut push_span = |s: &SpanRec| {
            let start_us = s.start.as_millis() * 1000;
            let dur_us = s
                .end
                .map(|e| e.since_saturating(s.start).as_millis() * 1000)
                .unwrap_or(0);
            let mut ev = format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{start_us},\
                 \"dur\":{dur_us}",
                json_str(&s.name),
                s.track.0 as usize + 1,
            );
            ev.push_str(",\"args\":{");
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    ev.push(',');
                }
                ev.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            ev.push_str("}}");
            events.push(ev);
        };
        if let Some(sampler) = &self.inner.sampler {
            for buf in sampler.retained.borrow().iter() {
                for s in &buf.spans {
                    push_span(s);
                }
            }
        } else {
            for s in self.inner.spans.borrow().iter() {
                push_span(s);
            }
        }
        for e in self.inner.events.borrow().iter() {
            let mut ev = format!(
                "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}",
                json_str(&e.name),
                e.track.0 as usize + 1,
                e.at.as_millis() * 1000
            );
            ev.push_str(",\"args\":{");
            for (i, (k, v)) in e.attrs.iter().enumerate() {
                if i > 0 {
                    ev.push(',');
                }
                ev.push_str(&format!("{}:{}", json_str(k), json_str(v)));
            }
            ev.push_str("}}");
            events.push(ev);
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, ev) in events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    // ------------------------------------------------------------------
    // Critical-path analysis.
    // ------------------------------------------------------------------

    /// Decompose a finished root span into its critical path: the interval
    /// `[start, end]` tiled by the *deepest descendant active at each
    /// instant*. Segment durations are integer milliseconds that sum
    /// exactly to the root's duration. Returns `None` for an unfinished
    /// root (or [`SpanId::NONE`]).
    pub fn critical_path(&self, root: SpanId) -> Option<CriticalPath> {
        if root.is_none() || self.inner.sampler.is_some() {
            // Sampled mode drops or exports finished traces instead of
            // indexing them; analyze a flight-recorder dump offline.
            return None;
        }
        let spans = self.inner.spans.borrow();
        let root_rec = &spans[(root.0 - 1) as usize];
        let root_end = root_rec.end?;
        // Children of each span, in id (= creation) order; creation order
        // is deterministic, and within one order's tree children start in
        // causal order.
        let mut children: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if !s.parent.is_none() {
                children
                    .entry(s.parent.0)
                    .or_default()
                    .push(i as u32 + 1);
            }
        }
        let mut segments = Vec::new();
        decompose(
            &spans,
            &children,
            root.0,
            root_rec.start,
            root_end,
            0,
            &mut segments,
        );
        Some(CriticalPath {
            root_name: root_rec.name.clone(),
            start: root_rec.start,
            end: root_end,
            segments,
        })
    }
}

/// Walk `id`'s children over `[lo, hi]`: child intervals recurse (clipped,
/// sorted by start), gaps belong to `id` itself.
fn decompose(
    spans: &[SpanRec],
    children: &BTreeMap<u32, Vec<u32>>,
    id: u32,
    lo: SimTime,
    hi: SimTime,
    depth: u32,
    out: &mut Vec<PathSegment>,
) {
    let name = &spans[(id - 1) as usize].name;
    let mut kids: Vec<(SimTime, SimTime, u32)> = children
        .get(&id)
        .map(|v| v.as_slice())
        .unwrap_or(&[])
        .iter()
        .filter_map(|&kid| {
            let rec = &spans[(kid - 1) as usize];
            let end = rec.end?;
            (end > lo && rec.start < hi).then(|| (rec.start.max(lo), end.min(hi), kid))
        })
        .collect();
    kids.sort_by_key(|&(start, _, kid)| (start, kid));
    let mut cursor = lo;
    for (start, end, kid) in kids {
        let start = start.max(cursor);
        if end <= start {
            continue; // fully shadowed by an earlier sibling
        }
        if start > cursor {
            out.push(PathSegment {
                name: name.clone(),
                start: cursor,
                end: start,
                depth,
            });
        }
        decompose(spans, children, kid, start, end, depth + 1, out);
        cursor = end;
    }
    if hi > cursor {
        out.push(PathSegment {
            name: name.clone(),
            start: cursor,
            end: hi,
            depth,
        });
    }
}

/// One tile of a critical path: `name` was the deepest active span over
/// `[start, end)`.
#[derive(Clone, Debug)]
pub struct PathSegment {
    /// Owning span's name.
    pub name: String,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
    /// Nesting depth below the analyzed root (root itself = 0).
    pub depth: u32,
}

impl PathSegment {
    /// The segment's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// The critical path of one root span: contiguous segments tiling
/// `[start, end]`, each attributed to the deepest active descendant.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Name of the analyzed root span.
    pub root_name: String,
    /// Root start.
    pub start: SimTime,
    /// Root end.
    pub end: SimTime,
    /// The tiling, in time order. Durations sum exactly to `end - start`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// End-to-end duration of the root.
    pub fn total(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Total time attributed to each span name, in order of first
    /// appearance on the path. Sums exactly to [`CriticalPath::total`].
    pub fn phase_totals(&self) -> Vec<(String, SimDuration)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for seg in &self.segments {
            if !totals.contains_key(&seg.name) {
                order.push(seg.name.clone());
            }
            *totals.entry(seg.name.clone()).or_insert(0) += seg.duration().as_millis();
        }
        order
            .into_iter()
            .map(|name| {
                let ms = totals[&name];
                (name, SimDuration::from_millis(ms))
            })
            .collect()
    }

    /// Render the path as indented text with exact durations.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path of {} [{} .. {}] total {}\n",
            self.root_name, self.start, self.end, self.total()
        );
        for seg in &self.segments {
            out.push_str(&format!(
                "  {:>10}  {}{}\n",
                format!("{}", seg.duration()),
                "  ".repeat(seg.depth as usize),
                seg.name
            ));
        }
        out.push_str("  phase totals:");
        for (name, dur) in self.phase_totals() {
            out.push_str(&format!(" {name}={dur}"));
        }
        out.push('\n');
        out
    }
}

/// A tail-retention snapshot extracted from a sampled [`Obs`]: the
/// complete span trees of the K slowest and the last F failed traces.
/// Plain `Send` data, so `run_ordered` shards can return their recorders
/// and the caller can [`FlightRecorder::merge`] them; the merge selects
/// over the union by the total order `(duration, unit, seq)`, so any
/// merge grouping yields a byte-identical recorder.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightRecorder {
    /// Capacity of the slowest-traces list.
    pub slowest_cap: usize,
    /// Capacity of the failed-traces ring.
    pub failed_cap: usize,
    /// Slowest traces, duration-descending (ties broken by `(unit, seq)`).
    pub slowest: Vec<FlightTrace>,
    /// Failed traces, `(unit, seq)`-ascending (the ring keeps the last F).
    pub failed: Vec<FlightTrace>,
}

/// One retained trace: its identity, outcome and full span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightTrace {
    /// The sampling key (the shop keys order traces by VM id).
    pub key: String,
    /// Shard tag from [`SamplerConfig::unit`].
    pub unit: u32,
    /// Per-unit trace sequence number.
    pub seq: u64,
    /// Root duration in sim-milliseconds.
    pub duration_ms: u64,
    /// Whether the root carried `outcome=failed`.
    pub failed: bool,
    /// The span tree; `parent` is a 1-based index into this vector
    /// (0 = root).
    pub spans: Vec<FlightSpan>,
}

/// One span of a retained trace, with its track resolved to a name.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightSpan {
    /// 1-based index of the parent within the trace (0 for the root).
    pub parent: u32,
    /// Track (lane) name.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Start, sim-milliseconds.
    pub start_ms: u64,
    /// End, sim-milliseconds (`None` if still open at finalize).
    pub end_ms: Option<u64>,
    /// Attributes in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl FlightRecorder {
    /// Merge another recorder: re-select the `slowest_cap` slowest and the
    /// last `failed_cap` failed traces over the union. Associative and
    /// commutative given unique `(unit, seq)` tags per shard.
    pub fn merge(&mut self, other: &FlightRecorder) {
        self.slowest_cap = self.slowest_cap.max(other.slowest_cap);
        self.failed_cap = self.failed_cap.max(other.failed_cap);
        self.slowest.extend(other.slowest.iter().cloned());
        self.slowest.sort_by(|a, b| {
            (std::cmp::Reverse(a.duration_ms), a.unit, a.seq)
                .cmp(&(std::cmp::Reverse(b.duration_ms), b.unit, b.seq))
        });
        self.slowest.truncate(self.slowest_cap);
        self.failed.extend(other.failed.iter().cloned());
        self.failed.sort_by_key(|t| (t.unit, t.seq));
        if self.failed.len() > self.failed_cap {
            let drop = self.failed.len() - self.failed_cap;
            self.failed.drain(..drop);
        }
    }

    /// Total spans across all retained traces.
    pub fn span_count(&self) -> usize {
        self.slowest
            .iter()
            .chain(self.failed.iter())
            .map(|t| t.spans.len())
            .sum()
    }

    /// Export as JSON Lines: one `flight` header object per trace
    /// followed by its spans (same shape as [`Obs::trace_jsonl`], ids
    /// renumbered contiguously across the dump).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let mut next_id = 1usize;
        for (kind, trace) in self
            .slowest
            .iter()
            .map(|t| ("slowest", t))
            .chain(self.failed.iter().map(|t| ("failed", t)))
        {
            out.push_str(&format!(
                "{{\"type\":\"flight\",\"kind\":\"{kind}\",\"key\":{},\"unit\":{},\
                 \"seq\":{},\"duration_ms\":{},\"failed\":{}}}\n",
                json_str(&trace.key),
                trace.unit,
                trace.seq,
                trace.duration_ms,
                trace.failed,
            ));
            let base = next_id;
            for (i, s) in trace.spans.iter().enumerate() {
                out.push_str(&format!(
                    "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"track\":{},\"name\":{}",
                    base + i,
                    if s.parent == 0 { 0 } else { base + s.parent as usize - 1 },
                    json_str(&s.track),
                    json_str(&s.name),
                ));
                out.push_str(&format!(",\"start_ms\":{}", s.start_ms));
                match s.end_ms {
                    Some(end) => out.push_str(&format!(",\"end_ms\":{end}")),
                    None => out.push_str(",\"end_ms\":null"),
                }
                push_attrs(&mut out, &s.attrs);
                out.push_str("}\n");
            }
            next_id += trace.spans.len();
        }
        out
    }

    /// Export as Chrome `trace_event` JSON (Perfetto-loadable): every
    /// retained trace's spans, with tracks interned in first-appearance
    /// order. The dump for a million-order run is kilobytes.
    pub fn chrome_trace(&self) -> String {
        let mut tracks: Vec<&str> = Vec::new();
        for t in self.slowest.iter().chain(self.failed.iter()) {
            for s in &t.spans {
                if !tracks.contains(&s.track.as_str()) {
                    tracks.push(&s.track);
                }
            }
        }
        let mut events: Vec<String> = Vec::new();
        events.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"vmplants-flight\"}}"
                .to_string(),
        );
        for (i, t) in tracks.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                i + 1,
                json_str(t)
            ));
        }
        for trace in self.slowest.iter().chain(self.failed.iter()) {
            for s in &trace.spans {
                let tid = tracks.iter().position(|t| *t == s.track).unwrap() + 1;
                let start_us = s.start_ms * 1000;
                let dur_us = s.end_ms.map(|e| (e - s.start_ms) * 1000).unwrap_or(0);
                let mut ev = format!(
                    "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                     \"ts\":{start_us},\"dur\":{dur_us}",
                    json_str(&s.name),
                );
                ev.push_str(",\"args\":{");
                for (i, (k, v)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        ev.push(',');
                    }
                    ev.push_str(&format!("{}:{}", json_str(k), json_str(v)));
                }
                ev.push_str("}}");
                events.push(ev);
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, ev) in events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Convert an internal trace buffer to its `Send` flight form.
fn flight_trace(buf: &TraceBuf, tracks: &[String]) -> FlightTrace {
    FlightTrace {
        key: buf.key.clone(),
        unit: buf.unit,
        seq: buf.seq,
        duration_ms: buf.duration_ms,
        failed: buf.failed,
        spans: buf
            .spans
            .iter()
            .map(|s| FlightSpan {
                parent: s.parent.0,
                track: tracks[s.track.0 as usize].clone(),
                name: s.name.clone(),
                start_ms: s.start.as_millis(),
                end_ms: s.end.map(|e| e.as_millis()),
                attrs: s.attrs.clone(),
            })
            .collect(),
    }
}

/// Append one trace's spans to a JSONL dump, renumbering ids from
/// `*next_id` (trace-local parents become global ids).
fn push_trace_jsonl(out: &mut String, buf: &TraceBuf, tracks: &[String], next_id: &mut usize) {
    let base = *next_id;
    for (i, s) in buf.spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"track\":{},\"name\":{}",
            base + i,
            if s.parent.is_none() {
                0
            } else {
                base + s.parent.0 as usize - 1
            },
            json_str(&tracks[s.track.0 as usize]),
            json_str(&s.name),
        ));
        out.push_str(&format!(",\"start_ms\":{}", s.start.as_millis()));
        match s.end {
            Some(end) => out.push_str(&format!(",\"end_ms\":{}", end.as_millis())),
            None => out.push_str(",\"end_ms\":null"),
        }
        push_attrs(out, &s.attrs);
        out.push_str("}\n");
    }
    *next_id += buf.spans.len();
}

/// JSON-escape a string (quotes included in the output).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn push_attrs(out: &mut String, attrs: &[(String, String)]) {
    out.push_str(",\"attrs\":{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(k), json_str(v)));
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn disabled_tracing_is_a_noop() {
        let obs = Obs::disabled();
        let track = obs.track("shop");
        let id = obs.span_start(SpanId::NONE, track, "order", t(0));
        assert!(id.is_none());
        obs.span_end(id, t(10));
        obs.span_attr(id, "k", "v");
        obs.event(track, "tick", t(1));
        assert_eq!(obs.span_count(), 0);
        assert_eq!(obs.trace_jsonl(), "");
        assert!(obs.critical_path(id).is_none());
    }

    #[test]
    fn metrics_work_even_when_disabled() {
        let obs = Obs::disabled();
        let c = obs.counter("x.count");
        c.inc();
        c.add(2);
        let g = obs.gauge("x.level");
        g.add(5);
        g.add(-2);
        let h = obs.histogram("x.depth", &[1.0, 2.0]);
        h.record(0.5);
        h.record(1.5);
        h.record(9.0);
        assert_eq!(obs.counter_value("x.count"), Some(3));
        assert_eq!(obs.gauge_value("x.level"), Some(3));
        assert_eq!(
            obs.metrics_text(),
            "counter x.count 3\n\
             histogram x.depth count=3 sum=11.000 le_1=1 le_2=2 le_inf=3\n\
             gauge x.level 3\n"
        );
    }

    #[test]
    fn histogram_cumulative_view() {
        let h = HistogramMetric::new(&[1.0, 2.0, 5.0]);
        for x in [0.5, 0.7, 1.5, 1.6, 1.7, 4.0, 9.0] {
            h.record(x);
        }
        assert_eq!(
            h.cumulative_buckets(),
            vec![(1.0, 2), (2.0, 5), (5.0, 6), (f64::INFINITY, 7)]
        );
    }

    #[test]
    fn counter_handles_are_shared_views() {
        let obs = Obs::disabled();
        let mine = Counter::new();
        mine.inc();
        obs.register_counter("adopted", &mine);
        mine.add(9);
        assert_eq!(obs.counter_value("adopted"), Some(10));
        // Get-or-register returns the same underlying cell.
        let again = obs.counter("adopted");
        again.inc();
        assert_eq!(mine.get(), 11);
    }

    #[test]
    fn span_tree_and_attrs() {
        let obs = Obs::enabled();
        let shop = obs.track("shop");
        let order = obs.span_start(SpanId::NONE, shop, "order", t(0));
        obs.span_attr(order, "vmid", "vm-0000");
        let bid = obs.span(order, shop, "bid", t(0), t(2));
        obs.span_end(order, t(30));
        assert_eq!(obs.span_count(), 2);
        assert_eq!(obs.span_parent(bid), order);
        assert_eq!(obs.span_name(order), "order");
        assert_eq!(obs.span_attr_get(order, "vmid").as_deref(), Some("vm-0000"));
        assert_eq!(obs.span_interval(bid), (t(0), Some(t(2))));
        assert_eq!(obs.spans_named("bid"), vec![bid]);
        assert_eq!(obs.root_spans(), vec![order]);
    }

    #[test]
    fn critical_path_tiles_exactly() {
        let obs = Obs::enabled();
        let tr = obs.track("plant");
        // order [0,100]; bid [0,5]; produce [10,90]:
        //   clone [12,40], resume [40,55] (children of produce).
        let order = obs.span_start(SpanId::NONE, tr, "order", t(0));
        obs.span(order, tr, "bid", t(0), t(5));
        let produce = obs.span_start(order, tr, "produce", t(10));
        obs.span(produce, tr, "clone_disk", t(12), t(40));
        obs.span(produce, tr, "resume", t(40), t(55));
        obs.span_end(produce, t(90));
        obs.span_end(order, t(100));

        let path = obs.critical_path(order).expect("finished root");
        assert_eq!(path.total(), SimDuration::from_secs(100));
        // Tiling: bid[0,5] order[5,10] produce[10,12] clone[12,40]
        //         resume[40,55] produce[55,90] order[90,100].
        let names: Vec<&str> = path.segments.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["bid", "order", "produce", "clone_disk", "resume", "produce", "order"]
        );
        let sum: u64 = path.segments.iter().map(|s| s.duration().as_millis()).sum();
        assert_eq!(sum, path.total().as_millis(), "segments tile the interval");
        let totals = path.phase_totals();
        let total_sum: u64 = totals.iter().map(|(_, d)| d.as_millis()).sum();
        assert_eq!(total_sum, path.total().as_millis());
        let produce_total = totals
            .iter()
            .find(|(n, _)| n == "produce")
            .map(|(_, d)| *d)
            .unwrap();
        assert_eq!(produce_total, SimDuration::from_secs(37)); // [10,12] + [55,90]
        let text = path.render();
        assert!(text.contains("critical path of order"));
        assert!(text.contains("clone_disk"));
    }

    #[test]
    fn critical_path_ignores_open_and_shadowed_children() {
        let obs = Obs::enabled();
        let tr = obs.track("x");
        let root = obs.span_start(SpanId::NONE, tr, "root", t(0));
        // Open child never closes: must not contribute.
        obs.span_start(root, tr, "open", t(1));
        // Overlapping siblings: second starts inside the first.
        obs.span(root, tr, "a", t(2), t(6));
        obs.span(root, tr, "b", t(4), t(8));
        obs.span_end(root, t(10));
        let path = obs.critical_path(root).unwrap();
        let names: Vec<&str> = path.segments.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "a", "b", "root"]);
        let sum: u64 = path.segments.iter().map(|s| s.duration().as_millis()).sum();
        assert_eq!(sum, 10_000);
    }

    #[test]
    fn jsonl_export_shape() {
        let obs = Obs::enabled();
        let tr = obs.track("shop");
        let s = obs.span(SpanId::NONE, tr, "order", t(0), t(3));
        obs.span_attr(s, "vmid", "vm-0");
        obs.event_with(tr, "drop", t(1), &[("label", "create \"x\"")]);
        let open = obs.span_start(SpanId::NONE, tr, "pending", t(2));
        assert!(!open.is_none());
        let jsonl = obs.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"track\":\"shop\",\
             \"name\":\"order\",\"start_ms\":0,\"end_ms\":3000,\
             \"attrs\":{\"vmid\":\"vm-0\"}}"
        );
        assert!(lines[1].contains("\"end_ms\":null"));
        assert!(lines[2].contains("\\\"x\\\""), "escaped quotes survive");
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let obs = Obs::enabled();
        let shop = obs.track("shop");
        let plant = obs.track("plant0");
        let order = obs.span(SpanId::NONE, shop, "order", t(0), t(30));
        obs.span_attr(order, "vmid", "vm-0");
        obs.span(order, plant, "produce", t(5), t(25));
        obs.event(plant, "dedup_hit", t(6));
        let json = obs.chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        // µs mapping: 30 s span -> dur 30_000_000 µs.
        assert!(json.contains("\"ts\":0,\"dur\":30000000"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"i\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn track_interning_is_idempotent() {
        let obs = Obs::enabled();
        let a = obs.track("shop");
        let b = obs.track("shop");
        assert_eq!(a, b);
        let c = obs.track("plant0");
        assert_ne!(a, c);
    }

    #[test]
    fn ambient_parent_pins_and_restores() {
        let obs = Obs::enabled();
        let tr = obs.track("x");
        let s = obs.span_start(SpanId::NONE, tr, "s", t(0));
        assert!(obs.ambient().is_none());
        let prev = obs.set_ambient(s);
        assert!(prev.is_none());
        assert_eq!(obs.ambient(), s);
        obs.set_ambient(prev);
        assert!(obs.ambient().is_none());
    }

    /// Run `n` two-span traces through a sampled obs; trace `i` is keyed
    /// `key-i`, lasts `i+1` seconds, and fails when `i % 5 == 0`.
    fn storm(config: SamplerConfig, n: usize) -> Obs {
        let obs = Obs::sampled(config);
        let tr = obs.track("shop");
        for i in 0..n {
            let root = obs.trace_root(tr, "order", &format!("key-{i}"), t(0));
            obs.span(root, tr, "bid", t(0), t(1));
            if i % 5 == 0 {
                obs.span_attr(root, "outcome", "failed");
            }
            obs.span_end(root, t(i as u64 + 1));
        }
        obs
    }

    #[test]
    fn head_sampling_is_key_deterministic() {
        let all = storm(
            SamplerConfig {
                rate_ppm: 1_000_000,
                ..SamplerConfig::default()
            },
            20,
        );
        let stats = all.sampler_stats().unwrap();
        assert_eq!(stats.traces_started, 20);
        assert_eq!(stats.traces_finished, 20);
        assert_eq!(stats.traces_retained, 20, "rate 100% keeps everything");
        assert_eq!(stats.traces_failed, 4);
        assert_eq!(stats.spans_recorded, 40);
        assert_eq!(stats.active, 0);
        assert_eq!(stats.active_high_water, 1);

        let none = storm(
            SamplerConfig {
                rate_ppm: 0,
                ..SamplerConfig::default()
            },
            20,
        );
        assert_eq!(none.sampler_stats().unwrap().traces_retained, 0);
        assert_eq!(none.trace_jsonl(), "");
        // The flight recorder still kept the slow and failed tails.
        let flight = none.flight_recorder();
        assert_eq!(flight.slowest.len(), 8);
        assert_eq!(flight.slowest[0].duration_ms, 20_000);
        assert_eq!(flight.failed.len(), 4);

        // Same keys, two instances: identical sampling decisions.
        let a = storm(SamplerConfig::default(), 50);
        let b = storm(SamplerConfig::default(), 50);
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn sampled_jsonl_matches_full_mode_for_retained_traces() {
        let full = Obs::enabled();
        let sampled = Obs::sampled(SamplerConfig {
            rate_ppm: 1_000_000,
            ..SamplerConfig::default()
        });
        for obs in [&full, &sampled] {
            let tr = obs.track("shop");
            let root = obs.trace_root(tr, "order", "vm-0", t(0));
            obs.span_attr(root, "vmid", "vm-0");
            obs.span(root, tr, "bid", t(0), t(2));
            obs.span_end(root, t(30));
        }
        assert_eq!(full.trace_jsonl(), sampled.trace_jsonl());
        assert_eq!(full.chrome_trace(), sampled.chrome_trace());
    }

    #[test]
    fn flight_recorder_ring_and_merge_grouping_invariance() {
        let make = |unit: u32, n: usize| {
            let obs = storm(
                SamplerConfig {
                    rate_ppm: 0,
                    flight_slowest: 4,
                    flight_failed: 3,
                    unit,
                },
                n,
            );
            obs.flight_recorder()
        };
        let (a, b, c) = (make(0, 10), make(1, 7), make(2, 12));
        // ((a+b)+c) == (a+(b+c)) == ((c+b)+a): multiset selection.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = b.clone();
        right.merge(&c);
        let mut right_total = a.clone();
        right_total.merge(&right);
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, right_total);
        assert_eq!(left, rev);
        assert_eq!(left.slowest.len(), 4);
        // Slowest overall: unit 2's 12s trace, then 10s, 9s(unit2), 8s(unit2)...
        assert_eq!(left.slowest[0].duration_ms, 12_000);
        assert_eq!(left.slowest[0].unit, 2);
        assert!(left.failed.len() == 3, "ring keeps the last 3 failed");
        let jsonl = left.to_jsonl();
        assert!(jsonl.contains("\"type\":\"flight\""));
        assert!(jsonl.contains("\"kind\":\"slowest\""));
        let chrome = left.chrome_trace();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(chrome.contains("vmplants-flight"));
    }

    #[test]
    fn sampled_mode_counts_events_and_ignores_stale_spans() {
        let obs = Obs::sampled(SamplerConfig::default());
        let tr = obs.track("net");
        obs.event(tr, "drop", t(1));
        obs.event_with(tr, "drop", t(2), &[("seq", "9")]);
        obs.event(tr, "dup", t(3));
        assert_eq!(
            obs.event_counts(),
            vec![("drop".to_string(), 2), ("dup".to_string(), 1)]
        );
        let root = obs.trace_root(tr, "order", "vm-1", t(0));
        let child = obs.span(root, tr, "bid", t(0), t(1));
        assert_eq!(obs.span_parent(child), root);
        obs.span_end(root, t(5));
        // The trace is finalized: late touches are dropped, not recorded.
        obs.span_attr(root, "late", "x");
        obs.span_end(child, t(9));
        assert!(obs.span_start(root, tr, "orphan", t(6)).is_none());
        // Slot is reused by the next trace.
        let next = obs.trace_root(tr, "order", "vm-2", t(10));
        assert_eq!(next.raw(), root.raw(), "LIFO slot reuse");
        assert!(obs.critical_path(next).is_none(), "sampled mode");
    }
}
