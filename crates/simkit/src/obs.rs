//! Deterministic observability: sim-time tracing, a unified metrics
//! registry, exporters, and critical-path analysis.
//!
//! The paper's evaluation (§4) is entirely about *where time goes* — clone
//! versus resume versus boot versus NFS transfer — so the substrate needs
//! to be an instrument, not just a clock. This module provides:
//!
//! * **Sim-time tracing** — hierarchical [spans](Obs::span_start) keyed
//!   on [`SimTime`], recorded per trace (one root and its descendants)
//!   into one slab of trace buffers. A VM-creation order yields a span
//!   tree like `order → bid → produce → {clone_disk, copy_vmss, resume,
//!   guest_script}` with exact sim-duration attribution. Full tracing
//!   ([`Obs::enabled`]) is [sampled](Obs::sampled) tracing at 1,000,000
//!   ppm: every trace is head-sampled, so every trace is retained.
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
//! is disabled ([`Obs::disabled`], the default) every span call is a
//! single branch and the slab never allocates; metric handles still count
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
pub(crate) fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identifier of a recorded span: its trace's slab slot in the high 32
/// bits and its index within the trace in the low 32, both biased by one.
/// `SpanId::NONE` (= 0) means "no span": it is the root parent and the
/// universal result when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The absent span: parent of roots, returned when tracing is disabled.
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
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
    pub(crate) fn add(&self, delta: i64) {
        self.0.set(self.0.get() + delta);
    }

    /// Current level.
    pub(crate) fn get(&self) -> i64 {
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
    pub(crate) fn count(&self) -> u64 {
        self.0.borrow().count
    }

    /// Sum of observations.
    pub(crate) fn sum(&self) -> f64 {
        self.0.borrow().sum
    }

    /// `(upper_bound, count)` rows; the final row uses `f64::INFINITY`.
    pub(crate) fn buckets(&self) -> Vec<(f64, u64)> {
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
    pub(crate) fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
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
    /// 1-based index of the parent within the trace (0 for the root).
    parent: u32,
    track: TrackId,
    name: String,
    start: SimTime,
    end: Option<SimTime>,
    attrs: Vec<(String, String)>,
}

/// How many of the slowest completed traces the flight recorder keeps
/// (K: tail-based retention, independent of head sampling).
pub const FLIGHT_SLOWEST: usize = 8;
/// Ring capacity for failed traces (F): the flight recorder keeps the
/// *last* `FLIGHT_FAILED` failed traces.
pub const FLIGHT_FAILED: usize = 32;

/// Configuration for tracing: see [`Obs::sampled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Head-sampling rate in parts per million: a trace is retained for
    /// export iff `fnv1a64(key) % 1_000_000 < rate_ppm`. Deterministic and
    /// key-stable: a retried/recovered order (same key) always lands on
    /// the same side of the decision.
    pub rate_ppm: u32,
    /// Shard tag stamped on every trace so flight recorders merged across
    /// `run_ordered` shards have a total, grouping-invariant order
    /// (`duration, unit, seq` is unique).
    pub unit: u32,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            rate_ppm: 10_000, // 1%
            unit: 0,
        }
    }
}

/// One trace, in flight or retained: the root span and every
/// descendant, with parents in trace-local 1-based index space.
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

/// The trace store. Every span of an in-flight trace is buffered (so
/// tail-based retention can keep *unsampled* slow or failed traces); the
/// retention decision happens when the root ends. A head-sampled trace
/// keeps its slot, so its spans stay addressable; any other trace frees
/// its slot.
struct SamplerInner {
    config: SamplerConfig,
    /// Slab of in-flight and retained traces; freed slots are reused
    /// LIFO.
    slots: RefCell<Vec<Option<TraceBuf>>>,
    free: RefCell<Vec<u32>>,
    /// Traces started (also the per-unit trace sequence number).
    seq: Cell<u64>,
    finished: Cell<u64>,
    failed_count: Cell<u64>,
    spans_recorded: Cell<u64>,
    active: Cell<usize>,
    active_high_water: Cell<usize>,
    /// Slots of head-sampled completed traces, in completion order.
    retained: RefCell<Vec<u32>>,
    /// The [`FLIGHT_SLOWEST`] slowest completed traces (any outcome).
    slowest: RefCell<Vec<TraceBuf>>,
    /// Ring of the last [`FLIGHT_FAILED`] failed traces.
    failed: RefCell<VecDeque<TraceBuf>>,
}

impl SamplerInner {
    /// Start a new trace with its root span.
    fn open_trace(&self, track: TrackId, name: &str, key: &str, start: SimTime) -> SpanId {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let sampled = fnv1a64(key) % 1_000_000 < self.config.rate_ppm as u64;
        let buf = TraceBuf {
            key: key.to_string(),
            unit: self.config.unit,
            seq,
            sampled,
            duration_ms: 0,
            failed: false,
            spans: vec![SpanRec {
                parent: 0,
                track,
                name: name.to_string(),
                start,
                end: None,
                attrs: Vec::new(),
            }],
        };
        let mut slots = self.slots.borrow_mut();
        let slot = match self.free.borrow_mut().pop() {
            Some(s) => {
                slots[s as usize] = Some(buf);
                s as usize
            }
            None => {
                slots.push(Some(buf));
                slots.len() - 1
            }
        };
        self.spans_recorded.set(self.spans_recorded.get() + 1);
        let active = self.active.get() + 1;
        self.active.set(active);
        if active > self.active_high_water.get() {
            self.active_high_water.set(active);
        }
        encode_span(slot, 0)
    }

    /// Retention decision for the trace in `slot`, whose root just ended
    /// at `end`.
    fn finalize_trace(&self, slots: &mut [Option<TraceBuf>], slot: usize, end: SimTime) {
        let buf = slots[slot]
            .as_mut()
            .expect("finalized trace is in its slot");
        let root = &buf.spans[0];
        buf.duration_ms = end.since_saturating(root.start).as_millis();
        buf.failed = root
            .attrs
            .iter()
            .any(|(k, v)| k == "outcome" && v == "failed");
        self.finished.set(self.finished.get() + 1);
        self.active.set(self.active.get() - 1);
        if buf.failed {
            self.failed_count.set(self.failed_count.get() + 1);
        }
        // Tail retention: the K slowest completed traces, totally ordered
        // by (duration, unit, seq) so replacement is deterministic.
        let mut slowest = self.slowest.borrow_mut();
        let rank = |b: &TraceBuf| (b.duration_ms, b.unit, b.seq);
        if slowest.len() < FLIGHT_SLOWEST {
            slowest.push(buf.clone());
        } else if let Some(min_at) = (0..slowest.len())
            .min_by_key(|&i| rank(&slowest[i]))
            .filter(|&i| rank(&slowest[i]) < rank(buf))
        {
            slowest[min_at] = buf.clone();
        }
        if buf.failed {
            let mut failed = self.failed.borrow_mut();
            if failed.len() == FLIGHT_FAILED {
                failed.pop_front();
            }
            failed.push_back(buf.clone());
        }
        if buf.sampled {
            self.retained.borrow_mut().push(slot as u32);
        } else {
            slots[slot] = None;
            self.free.borrow_mut().push(slot as u32);
        }
    }

    /// Every exported trace in flight form: the retained traces in
    /// completion order, then the head-sampled traces still open, in
    /// start order.
    fn exported(&self, tracks: &[String]) -> Vec<FlightTrace> {
        let slots = self.slots.borrow();
        let mut open: Vec<&TraceBuf> = slots
            .iter()
            .flatten()
            .filter(|buf| buf.sampled && buf.spans[0].end.is_none())
            .collect();
        open.sort_unstable_by_key(|buf| buf.seq);
        self.retained
            .borrow()
            .iter()
            .map(|&slot| {
                slots[slot as usize]
                    .as_ref()
                    .expect("retained trace keeps its slot")
            })
            .chain(open)
            .map(|buf| flight_trace(buf, tracks))
            .collect()
    }
}

/// Counters describing what tracing kept and dropped.
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
    /// Traces still in flight.
    pub active: usize,
    /// Peak concurrent in-flight traces — the obs memory high-water mark.
    pub active_high_water: usize,
}

struct ObsInner {
    tracks: RefCell<Vec<String>>,
    ambient: Cell<SpanId>,
    metrics: RefCell<BTreeMap<String, Metric>>,
    /// The trace store: tracing is on exactly when it is present.
    sampler: Option<SamplerInner>,
}

/// Span ids encode `(slot, local_index)` so span calls address a trace
/// buffer directly: both halves are biased by one so no encoded id
/// collides with `SpanId::NONE`.
fn encode_span(slot: usize, local: usize) -> SpanId {
    let slot = u32::try_from(slot + 1).expect("too many traces");
    let local = u32::try_from(local + 1).expect("too many spans in one trace");
    SpanId((u64::from(slot) << 32) | u64::from(local))
}

fn decode_span(id: SpanId) -> (usize, usize) {
    ((id.0 >> 32) as usize - 1, (id.0 as u32) as usize - 1)
}

/// The observability handle: a cheap clonable reference shared by every
/// instrumented component of a site. Whether tracing is on is fixed at
/// construction ([`Obs::enabled`] / [`Obs::sampled`] /
/// [`Obs::disabled`]); the metrics registry works either way.
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
            .field("tracing", &self.inner.sampler.is_some())
            .field("spans", &self.span_count())
            .field("metrics", &self.inner.metrics.borrow().len())
            .finish()
    }
}

impl Obs {
    fn with_sampler(sampler: Option<SamplerInner>) -> Obs {
        Obs {
            inner: Rc::new(ObsInner {
                tracks: RefCell::new(vec!["main".to_string()]),
                ambient: Cell::new(SpanId::NONE),
                metrics: RefCell::new(BTreeMap::new()),
                sampler,
            }),
        }
    }

    /// Tracing off (the default): span calls are single-branch no-ops,
    /// the registry still works.
    pub fn disabled() -> Obs {
        Obs::with_sampler(None)
    }

    /// Full tracing: sampled tracing at 1,000,000 ppm, so every trace is
    /// retained and stays addressable.
    pub fn enabled() -> Obs {
        Obs::sampled(SamplerConfig { rate_ppm: 1_000_000, ..SamplerConfig::default() })
    }

    /// Tracing with head sampling: spans are buffered per trace while the
    /// trace is in flight, and when its root ends the trace is retained
    /// (head-sampled by `fnv1a64(key)`) or dropped; the flight recorder
    /// separately keeps the [`FLIGHT_SLOWEST`] slowest and the last
    /// [`FLIGHT_FAILED`] failed traces. Memory is O(in-flight + retained
    /// traces). The decision inputs (key hash, sim durations) are
    /// deterministic, so exports are byte-identical across same-seed runs.
    pub fn sampled(config: SamplerConfig) -> Obs {
        Obs::with_sampler(Some(SamplerInner {
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
        }))
    }

    // ------------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------------

    /// Intern a track by name (idempotent): the lane spans are drawn on
    /// in the exported trace.
    pub fn track(&self, name: &str) -> TrackId {
        if self.inner.sampler.is_none() {
            return TrackId::DEFAULT;
        }
        let mut tracks = self.inner.tracks.borrow_mut();
        if let Some(i) = tracks.iter().position(|t| t == name) {
            return TrackId(i as u16);
        }
        tracks.push(name.to_string());
        TrackId((tracks.len() - 1) as u16)
    }

    /// Open a *root* span: a new trace whose retention is decided by
    /// `fnv1a64(key)` when the root ends. Instrumentation that owns a
    /// stable identity (the shop keys order traces by VM id) should use
    /// this so retries and recoveries of the same order sample
    /// consistently.
    pub fn trace_root(&self, track: TrackId, name: &str, key: &str, start: SimTime) -> SpanId {
        match &self.inner.sampler {
            Some(sampler) => sampler.open_trace(track, name, key, start),
            None => SpanId::NONE,
        }
    }

    /// Open a span at `start` under `parent`. Returns [`SpanId::NONE`]
    /// when tracing is off. A `NONE` parent starts a new trace keyed by
    /// the span name; a parent whose trace was dropped yields
    /// [`SpanId::NONE`].
    pub fn span_start(
        &self,
        parent: SpanId,
        track: TrackId,
        name: &str,
        start: SimTime,
    ) -> SpanId {
        let Some(sampler) = &self.inner.sampler else {
            return SpanId::NONE;
        };
        if parent.is_none() {
            return sampler.open_trace(track, name, name, start);
        }
        let (slot, plocal) = decode_span(parent);
        let mut slots = sampler.slots.borrow_mut();
        let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) else {
            return SpanId::NONE; // parent's trace was dropped
        };
        let local = buf.spans.len();
        buf.spans.push(SpanRec {
            parent: plocal as u32 + 1,
            track,
            name: name.to_string(),
            start,
            end: None,
            attrs: Vec::new(),
        });
        sampler.spans_recorded.set(sampler.spans_recorded.get() + 1);
        encode_span(slot, local)
    }

    /// Close a span at `end`. No-op for [`SpanId::NONE`] and for spans of
    /// dropped traces. The first close of a trace's *root* finalizes the
    /// trace: it is retained if head-sampled and dropped otherwise, and
    /// the flight recorder keeps it if it is among the slowest or failed
    /// (root attribute `outcome=failed`).
    pub fn span_end(&self, id: SpanId, end: SimTime) {
        let Some(sampler) = &self.inner.sampler else {
            return;
        };
        if id.is_none() {
            return;
        }
        let (slot, local) = decode_span(id);
        let mut slots = sampler.slots.borrow_mut();
        let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) else {
            return; // trace was dropped
        };
        let rec = &mut buf.spans[local];
        debug_assert!(end >= rec.start, "span ends before it starts");
        if rec.end.replace(end).is_none() && local == 0 {
            sampler.finalize_trace(&mut slots, slot, end);
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
    /// and for spans of dropped traces.
    pub fn span_attr(&self, id: SpanId, key: &str, value: impl fmt::Display) {
        let Some(sampler) = &self.inner.sampler else {
            return;
        };
        if id.is_none() {
            return;
        }
        let (slot, local) = decode_span(id);
        let mut slots = sampler.slots.borrow_mut();
        if let Some(buf) = slots.get_mut(slot).and_then(|b| b.as_mut()) {
            buf.spans[local]
                .attrs
                .push((key.to_string(), value.to_string()));
        }
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
    // Retention inspection.
    // ------------------------------------------------------------------

    /// Counters describing retention (`None` when tracing is off).
    pub fn sampler_stats(&self) -> Option<SamplerStats> {
        let sampler = self.inner.sampler.as_ref()?;
        Some(SamplerStats {
            traces_started: sampler.seq.get(),
            traces_finished: sampler.finished.get(),
            traces_retained: sampler.retained.borrow().len() as u64,
            traces_failed: sampler.failed_count.get(),
            spans_recorded: sampler.spans_recorded.get(),
            active: sampler.active.get(),
            active_high_water: sampler.active_high_water.get(),
        })
    }

    /// Extract the flight recorder: a `Send` snapshot of the
    /// [`FLIGHT_SLOWEST`] slowest and the last [`FLIGHT_FAILED`] failed
    /// traces, mergeable across shards. Empty when
    /// tracing is off.
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
            slowest,
            failed,
        }
    }

    // ------------------------------------------------------------------
    // Trace inspection.
    // ------------------------------------------------------------------

    /// Read a span record. Spans of in-flight and retained traces are
    /// addressable; a span of a dropped trace is not.
    fn with_span<T>(&self, id: SpanId, f: impl FnOnce(&SpanRec) -> T) -> T {
        let sampler = self.inner.sampler.as_ref().expect("tracing is off");
        let (slot, local) = decode_span(id);
        let slots = sampler.slots.borrow();
        let buf = slots
            .get(slot)
            .and_then(|b| b.as_ref())
            .expect("span's trace was dropped");
        f(&buf.spans[local])
    }

    /// Number of recorded spans across all traces, retained or not.
    pub fn span_count(&self) -> usize {
        self.inner
            .sampler
            .as_ref()
            .map_or(0, |sampler| sampler.spans_recorded.get() as usize)
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

    /// Spans of in-flight and retained traces matching `pred`, ordered by
    /// trace start, then by index within the trace.
    fn spans_where(&self, pred: impl Fn(&SpanRec) -> bool) -> Vec<SpanId> {
        let Some(sampler) = &self.inner.sampler else {
            return Vec::new();
        };
        let slots = sampler.slots.borrow();
        let mut traces: Vec<(u64, usize, &TraceBuf)> = slots
            .iter()
            .enumerate()
            .filter_map(|(slot, buf)| buf.as_ref().map(|buf| (buf.seq, slot, buf)))
            .collect();
        traces.sort_unstable_by_key(|&(seq, _, _)| seq);
        let mut out = Vec::new();
        for (_, slot, buf) in traces {
            for (local, rec) in buf.spans.iter().enumerate() {
                if pred(rec) {
                    out.push(encode_span(slot, local));
                }
            }
        }
        out
    }

    /// All spans with the given name, ordered by trace start, then by
    /// index within the trace.
    pub fn spans_named(&self, name: &str) -> Vec<SpanId> {
        self.spans_where(|rec| rec.name == name)
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

    /// Read a registered counter's value (`None` when absent or not a
    /// counter).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.inner.metrics.borrow().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
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

    /// Export the trace as JSON Lines, one object per span: the retained
    /// traces in completion order, then the head-sampled traces still
    /// open (open spans carry `"end_ms":null`), ids renumbered
    /// contiguously. Byte-identical across same-seed runs. The flight
    /// recorder has its own exporters.
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        let mut next_id = 1usize;
        for trace in self.exported_traces() {
            push_spans_jsonl(&mut out, &trace.spans, &mut next_id);
        }
        out
    }

    /// Export the trace in Chrome `trace_event` JSON (the array-of-events
    /// object form), loadable in `chrome://tracing` and Perfetto: the
    /// spans of the traces [`Obs::trace_jsonl`] exports, in the same
    /// order. Sim-time milliseconds map to trace microseconds; each track
    /// becomes a thread of process 1. Open spans are exported with zero
    /// duration.
    pub fn chrome_trace(&self) -> String {
        let traces = self.exported_traces();
        let tracks = self.inner.tracks.borrow();
        let tracks: Vec<&str> = tracks.iter().map(String::as_str).collect();
        write_chrome_trace("vmplants", &tracks, &traces)
    }

    /// The traces the exporters write, in flight form (none when tracing
    /// is off).
    fn exported_traces(&self) -> Vec<FlightTrace> {
        let tracks = self.inner.tracks.borrow();
        self.inner
            .sampler
            .as_ref()
            .map_or_else(Vec::new, |sampler| sampler.exported(&tracks))
    }

    // ------------------------------------------------------------------
    // Critical-path analysis.
    // ------------------------------------------------------------------

    /// Decompose a finished span into its critical path: the interval
    /// `[start, end]` tiled by the *deepest descendant active at each
    /// instant*. Segment durations are integer milliseconds that sum
    /// exactly to the span's duration. Returns `None` for an unfinished
    /// span, [`SpanId::NONE`], or a span of a dropped trace.
    pub fn critical_path(&self, root: SpanId) -> Option<CriticalPath> {
        let sampler = self.inner.sampler.as_ref()?;
        if root.is_none() {
            return None;
        }
        let (slot, local) = decode_span(root);
        let slots = sampler.slots.borrow();
        let spans = &slots.get(slot)?.as_ref()?.spans;
        let root_rec = &spans[local];
        let root_end = root_rec.end?;
        let mut segments = Vec::new();
        decompose(spans, local, root_rec.start, root_end, 0, &mut segments);
        Some(CriticalPath {
            root_name: root_rec.name.clone(),
            start: root_rec.start,
            end: root_end,
            segments,
        })
    }
}

/// Walk the children of `spans[id]` (one trace's spans) over `[lo, hi]`:
/// child intervals recurse (clipped, sorted by start, then creation
/// order), gaps belong to `id` itself.
fn decompose(
    spans: &[SpanRec],
    id: usize,
    lo: SimTime,
    hi: SimTime,
    depth: u32,
    out: &mut Vec<PathSegment>,
) {
    let name = &spans[id].name;
    let mut kids: Vec<(SimTime, SimTime, usize)> = spans
        .iter()
        .enumerate()
        .filter(|(_, rec)| rec.parent as usize == id + 1)
        .filter_map(|(kid, rec)| {
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
        decompose(spans, kid, start, end, depth + 1, out);
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
    pub(crate) fn duration(&self) -> SimDuration {
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
/// complete span trees of the K = [`FLIGHT_SLOWEST`] slowest and the last
/// F = [`FLIGHT_FAILED`] failed traces.
/// Plain `Send` data, so `run_ordered` shards can return their recorders
/// and the caller can [`FlightRecorder::merge`] them; the merge selects
/// over the union by the total order `(duration, unit, seq)`, so any
/// merge grouping yields a byte-identical recorder.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlightRecorder {
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
    /// Merge another recorder: re-select the [`FLIGHT_SLOWEST`] slowest
    /// and the last [`FLIGHT_FAILED`] failed traces over the union.
    /// Associative and commutative given unique `(unit, seq)` tags per
    /// shard.
    pub fn merge(&mut self, other: &FlightRecorder) {
        self.slowest.extend(other.slowest.iter().cloned());
        self.slowest.sort_by(|a, b| {
            (std::cmp::Reverse(a.duration_ms), a.unit, a.seq)
                .cmp(&(std::cmp::Reverse(b.duration_ms), b.unit, b.seq))
        });
        self.slowest.truncate(FLIGHT_SLOWEST);
        self.failed.extend(other.failed.iter().cloned());
        self.failed.sort_by_key(|t| (t.unit, t.seq));
        if self.failed.len() > FLIGHT_FAILED {
            let drop = self.failed.len() - FLIGHT_FAILED;
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
            push_spans_jsonl(&mut out, &trace.spans, &mut next_id);
        }
        out
    }

    /// Export as Chrome `trace_event` JSON (Perfetto-loadable): every
    /// retained trace's spans, with tracks interned in first-appearance
    /// order. The dump for a million-order run is kilobytes.
    pub fn chrome_trace(&self) -> String {
        let traces: Vec<&FlightTrace> = self.slowest.iter().chain(&self.failed).collect();
        let mut tracks: Vec<&str> = Vec::new();
        for s in traces.iter().flat_map(|t| &t.spans) {
            if !tracks.contains(&s.track.as_str()) {
                tracks.push(&s.track);
            }
        }
        write_chrome_trace("vmplants-flight", &tracks, traces)
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
                parent: s.parent,
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
fn push_spans_jsonl(out: &mut String, spans: &[FlightSpan], next_id: &mut usize) {
    let base = *next_id;
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"track\":{},\"name\":{}",
            base + i,
            if s.parent == 0 {
                0
            } else {
                base + s.parent as usize - 1
            },
            json_str(&s.track),
            json_str(&s.name),
        ));
        out.push_str(&format!(",\"start_ms\":{}", s.start_ms));
        match s.end_ms {
            Some(end) => out.push_str(&format!(",\"end_ms\":{end}")),
            None => out.push_str(",\"end_ms\":null"),
        }
        push_attrs(out, "attrs", &s.attrs);
        out.push_str("}\n");
    }
    *next_id += spans.len();
}

/// Render `traces` as Chrome `trace_event` JSON: process 1 is named
/// `process`, `tracks[i]` becomes thread `i + 1`, and every span is one
/// complete event (zero duration while open). Every span's track must
/// be in `tracks`.
fn write_chrome_trace<'a>(
    process: &str,
    tracks: &[&str],
    traces: impl IntoIterator<Item = &'a FlightTrace>,
) -> String {
    let mut events = vec![format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":{}}}}}",
        json_str(process)
    )];
    for (i, t) in tracks.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":{}}}}}",
            i + 1,
            json_str(t)
        ));
    }
    for s in traces.into_iter().flat_map(|t| &t.spans) {
        let tid = tracks
            .iter()
            .position(|t| *t == s.track)
            .expect("every span's track is listed")
            + 1;
        let start_us = s.start_ms * 1000;
        let dur_us = s.end_ms.map_or(0, |e| e.saturating_sub(s.start_ms) * 1000);
        let mut ev = format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{start_us},\"dur\":{dur_us}",
            json_str(&s.name),
        );
        push_attrs(&mut ev, "args", &s.attrs);
        ev.push('}');
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

/// Append `,"<field>":{...}` holding `attrs` as a JSON object.
fn push_attrs(out: &mut String, field: &str, attrs: &[(String, String)]) {
    out.push_str(&format!(",\"{field}\":{{"));
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

    impl Obs {
        fn span_name(&self, id: SpanId) -> String {
            self.with_span(id, |rec| rec.name.clone())
        }

        fn span_parent(&self, id: SpanId) -> SpanId {
            let (slot, _) = decode_span(id);
            match self.with_span(id, |rec| rec.parent) {
                0 => SpanId::NONE,
                parent => encode_span(slot, parent as usize - 1),
            }
        }

        /// A span's `(start, end)`; `end` is `None` while still open.
        fn span_interval(&self, id: SpanId) -> (SimTime, Option<SimTime>) {
            self.with_span(id, |rec| (rec.start, rec.end))
        }

        fn span_attrs(&self, id: SpanId) -> Vec<(String, String)> {
            self.with_span(id, |rec| rec.attrs.clone())
        }

        /// All root spans, in trace start order.
        fn root_spans(&self) -> Vec<SpanId> {
            self.spans_where(|rec| rec.parent == 0)
        }
    }

    #[test]
    fn disabled_tracing_is_a_noop() {
        let obs = Obs::disabled();
        let track = obs.track("shop");
        let id = obs.span_start(SpanId::NONE, track, "order", t(0));
        assert!(id.is_none());
        obs.span_end(id, t(10));
        obs.span_attr(id, "k", "v");
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
        let g = Gauge::new();
        obs.register_gauge("x.level", &g);
        g.add(5);
        g.add(-2);
        let h = HistogramMetric::new(&[1.0, 2.0]);
        obs.register_histogram("x.depth", &h);
        h.record(0.5);
        h.record(1.5);
        h.record(9.0);
        assert_eq!(obs.counter_value("x.count"), Some(3));
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
        let open = obs.span_start(SpanId::NONE, tr, "pending", t(2));
        assert!(!open.is_none());
        obs.span_attr(open, "label", "create \"x\"");
        let jsonl = obs.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"type\":\"span\",\"id\":1,\"parent\":0,\"track\":\"shop\",\
             \"name\":\"order\",\"start_ms\":0,\"end_ms\":3000,\
             \"attrs\":{\"vmid\":\"vm-0\"}}"
        );
        assert!(lines[1].contains("\"end_ms\":null"));
        assert!(lines[1].contains("\\\"x\\\""), "escaped quotes survive");
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let obs = Obs::enabled();
        let shop = obs.track("shop");
        let plant = obs.track("plant0");
        let order = obs.span(SpanId::NONE, shop, "order", t(0), t(30));
        obs.span_attr(order, "vmid", "vm-0");
        obs.span(order, plant, "produce", t(5), t(25));
        let json = obs.chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(json.ends_with("]}\n"));
        // µs mapping: 30 s span -> dur 30_000_000 µs.
        assert!(json.contains("\"ts\":0,\"dur\":30000000"));
        assert!(json.contains("\"thread_name\""));
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

    /// Run `n` two-span traces through `obs`; trace `i` is keyed `key-i`,
    /// lasts `i+1` seconds, and fails when `i % 5 == 0`.
    fn storm(obs: Obs, n: usize) -> Obs {
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
            Obs::sampled(SamplerConfig {
                rate_ppm: 1_000_000,
                ..SamplerConfig::default()
            }),
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
            Obs::sampled(SamplerConfig {
                rate_ppm: 0,
                ..SamplerConfig::default()
            }),
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
        let a = storm(Obs::sampled(SamplerConfig::default()), 50);
        let b = storm(Obs::sampled(SamplerConfig::default()), 50);
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
    }

    #[test]
    fn enabled_is_sampled_at_one_million_ppm() {
        let full = storm(Obs::enabled(), 30);
        let sampled = storm(
            Obs::sampled(SamplerConfig {
                rate_ppm: 1_000_000,
                ..SamplerConfig::default()
            }),
            30,
        );
        assert_eq!(full.trace_jsonl(), sampled.trace_jsonl());
        assert_eq!(full.chrome_trace(), sampled.chrome_trace());
        assert_eq!(full.flight_recorder(), sampled.flight_recorder());
        assert_eq!(full.sampler_stats(), sampled.sampler_stats());
        assert_eq!(full.flight_recorder().failed.len(), 6);
    }

    #[test]
    fn flight_recorder_ring_and_merge_grouping_invariance() {
        let make = |unit: u32, n: usize| {
            storm(Obs::sampled(SamplerConfig { rate_ppm: 0, unit }), n).flight_recorder()
        };
        // Every fifth trace fails: 40, 40 and 12 failed traces, so units 0
        // and 1 each wrap the ring and the union overflows both lists.
        let (a, b, c) = (make(0, 200), make(1, 199), make(2, 60));
        assert_eq!(a.failed.len(), FLIGHT_FAILED);
        assert_eq!(a.failed[0].seq, 40, "the ring dropped the first 8 failed");
        assert_eq!(c.failed.len(), 12);
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
        // Slowest overall, equal durations ordered by unit.
        let slowest: Vec<(u64, u32)> =
            left.slowest.iter().map(|t| (t.duration_ms / 1000, t.unit)).collect();
        let expected = [
            (200, 0),
            (199, 0),
            (199, 1),
            (198, 0),
            (198, 1),
            (197, 0),
            (197, 1),
            (196, 0),
        ];
        assert_eq!(slowest, expected);
        // The merged ring keeps the last 32 by (unit, seq): unit 1's last
        // 20, then all of unit 2's.
        assert_eq!(left.failed[..20], b.failed[12..]);
        assert_eq!(left.failed[20..], c.failed[..]);
        let jsonl = left.to_jsonl();
        assert!(jsonl.contains("\"type\":\"flight\""));
        assert!(jsonl.contains("\"kind\":\"slowest\""));
        let chrome = left.chrome_trace();
        assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(chrome.contains("vmplants-flight"));
    }

    #[test]
    fn dropped_traces_ignore_stale_spans_and_free_their_slot() {
        let obs = Obs::sampled(SamplerConfig {
            rate_ppm: 0,
            ..SamplerConfig::default()
        });
        let tr = obs.track("net");
        let root = obs.trace_root(tr, "order", "vm-1", t(0));
        let child = obs.span(root, tr, "bid", t(0), t(1));
        assert_eq!(obs.span_parent(child), root);
        obs.span_end(root, t(5));
        // The trace was dropped: late touches are ignored, not recorded.
        obs.span_attr(root, "late", "x");
        obs.span_end(child, t(9));
        assert!(obs.span_start(root, tr, "orphan", t(6)).is_none());
        assert!(obs.critical_path(root).is_none());
        assert_eq!(obs.span_count(), 2);
        // Slot is reused by the next trace.
        let next = obs.trace_root(tr, "order", "vm-2", t(10));
        assert_eq!(next, root, "LIFO slot reuse");
        assert_eq!(obs.span_attrs(next), vec![]);
    }

    #[test]
    fn retained_traces_stay_addressable_after_the_root_ends() {
        let obs = Obs::enabled();
        let tr = obs.track("shop");
        let order = obs.trace_root(tr, "order", "vm-0", t(0));
        obs.span_attr(order, "vmid", "vm-0");
        let bid = obs.span(order, tr, "bid", t(0), t(2));
        obs.span_end(order, t(30));
        assert_eq!(obs.spans_named("bid"), vec![bid]);
        assert_eq!(obs.span_attr_get(order, "vmid").as_deref(), Some("vm-0"));
        let path = obs.critical_path(order).expect("retained root");
        assert_eq!(path.total(), SimDuration::from_secs(30));
        // A child opened after the root ended is recorded, as a late
        // message handler's span would be.
        let late = obs.span(order, tr, "late", t(31), t(32));
        assert!(!late.is_none());
        assert_eq!(obs.span_parent(late), order);
        assert_eq!(obs.span_count(), 3);
        assert_eq!(obs.spans_named("late"), vec![late]);
        let stats = obs.sampler_stats().unwrap();
        assert_eq!((stats.traces_finished, stats.traces_retained), (1, 1));
    }

    #[test]
    fn seventy_thousand_traces_get_distinct_addressable_roots() {
        let obs = Obs::enabled();
        let tr = obs.track("shop");
        let roots: Vec<SpanId> = (0..70_000u64)
            .map(|i| {
                let root = obs.trace_root(tr, "order", &format!("vm-{i}"), t(i));
                obs.span_end(root, t(i + 1));
                root
            })
            .collect();
        let distinct: std::collections::BTreeSet<SpanId> = roots.iter().copied().collect();
        assert_eq!(distinct.len(), 70_000);
        assert_eq!(obs.root_spans(), roots, "roots in trace start order");
        let last = *roots.last().unwrap();
        assert_eq!(obs.span_interval(last), (t(69_999), Some(t(70_000))));
        assert!(roots.iter().all(|&root| obs.span_name(root) == "order"));
    }

    #[test]
    fn open_root_exports_with_null_end() {
        let obs = Obs::enabled();
        let tr = obs.track("shop");
        let hung = obs.trace_root(tr, "order", "vm-hung", t(0));
        obs.span(hung, tr, "bid", t(0), t(1));
        let done = obs.trace_root(tr, "order", "vm-done", t(2));
        obs.span_end(done, t(3));
        let jsonl = obs.trace_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // Completed traces first, then the open one with its spans.
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"end_ms\":3000"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("{\"type\":\"span\",\"id\":2,\"parent\":0,")
                && lines[1].contains("\"start_ms\":0,\"end_ms\":null"),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"id\":3,\"parent\":2,"), "{}", lines[2]);
    }
}
