//! Measurement collection and reporting.
//!
//! The paper reports its evaluation as:
//!
//! * **Figures 4 and 5** — "normalized frequency of occurrence" histograms
//!   of creation/cloning latencies with fixed-width bins labelled by their
//!   centers (5, 15, 25 … for 10 s bins; 5, 10, 15 … for 5 s bins);
//! * **Figure 6** — a per-request series of cloning time versus the VM
//!   sequence number;
//! * prose summaries ("17 to 85 seconds", "on average, in 25 to 48
//!   seconds").
//!
//! [`Histogram`], [`Series`] and [`Summary`] produce exactly those shapes,
//! plus plain-text renderings used by the `vmplants-bench` harnesses.

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Event-kernel throughput: how many events the engine executed and how
/// much wall-clock time its run loops spent executing them. Produced by
/// `Engine::throughput`; the `events/sec` figure is the kernel metric the
/// bench baseline (`BENCH_vmplants.json`) tracks across perf PRs.
///
/// Wall-clock time never feeds back into the simulation, so the counter is
/// free of determinism hazards.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelThroughput {
    /// Events executed.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside `run`/`run_until` loops.
    pub busy_nanos: u128,
}

impl KernelThroughput {
    /// Events executed per wall-clock second (0 when nothing was timed).
    pub fn events_per_sec(&self) -> f64 {
        if self.busy_nanos == 0 {
            return 0.0;
        }
        self.events as f64 / (self.busy_nanos as f64 / 1e9)
    }
}

impl fmt::Display for KernelThroughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events in {:.3}s ({:.0} events/sec)",
            self.events,
            self.busy_nanos as f64 / 1e9,
            self.events_per_sec()
        )
    }
}

/// Online mean/variance via Welford's algorithm, plus min/max.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n-1 denominator; 0 for fewer than two
    /// observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} sd={:.2} min={:.2} max={:.2}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min(),
            self.max()
        )
    }
}

/// A fixed-bin-width histogram reporting normalized frequency of occurrence,
/// matching the presentation of the paper's Figures 4 and 5.
#[derive(Clone, Debug)]
pub struct Histogram {
    bin_width: f64,
    origin: f64,
    counts: Vec<u64>,
    total: u64,
    summary: Summary,
}

impl Histogram {
    /// A histogram with bins `[origin + k*w, origin + (k+1)*w)`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive.
    pub fn new(origin: f64, bin_width: f64) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        Histogram {
            bin_width,
            origin,
            counts: Vec::new(),
            total: 0,
            summary: Summary::new(),
        }
    }

    /// Record one observation. Values below the origin clamp into bin 0.
    pub fn record(&mut self, x: f64) {
        let idx = if x < self.origin {
            0
        } else {
            ((x - self.origin) / self.bin_width) as usize
        };
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.summary.record(x);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The running summary statistics over the raw observations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// `(bin_center, normalized_frequency)` rows, exactly the series plotted
    /// in the paper's Figures 4 and 5. Empty trailing bins are trimmed.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let center = self.origin + (i as f64 + 0.5) * self.bin_width;
                (center, c as f64 / self.total as f64)
            })
            .collect()
    }

    /// Raw `(bin_center, count)` rows.
    pub fn counts(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.origin + (i as f64 + 0.5) * self.bin_width, c))
            .collect()
    }

    /// The bin center with the highest count (the distribution's mode);
    /// `None` when empty.
    pub fn mode_center(&self) -> Option<f64> {
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if self.total == 0 {
            return None;
        }
        Some(self.origin + (idx as f64 + 0.5) * self.bin_width)
    }

    /// Render an ASCII bar chart of the normalized distribution.
    pub fn render(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{label}  ({})\n", self.summary));
        let rows = self.normalized();
        let peak = rows.iter().map(|&(_, f)| f).fold(0.0f64, f64::max);
        for (center, freq) in rows {
            let bar_len = if peak > 0.0 {
                ((freq / peak) * 40.0).round() as usize
            } else {
                0
            };
            out.push_str(&format!(
                "  {center:>7.1}  {freq:>6.3}  {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

/// A labelled (x, y) series, used for Figure 6 (cloning time versus VM
/// sequence number) and for ablation sweeps.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the y values over the given inclusive x range.
    pub fn mean_y_in(&self, x_lo: f64, x_hi: f64) -> f64 {
        let ys: Vec<f64> = self
            .points
            .iter()
            .filter(|&&(x, _)| x >= x_lo && x <= x_hi)
            .map(|&(_, y)| y)
            .collect();
        if ys.is_empty() {
            return f64::NAN;
        }
        ys.iter().sum::<f64>() / ys.len() as f64
    }

    /// Least-squares slope of y over x (`None` with fewer than 2 points or
    /// degenerate x). Used to verify "cloning times tend to increase with
    /// sequence number" (Figure 6).
    pub fn slope(&self) -> Option<f64> {
        if self.points.len() < 2 {
            return None;
        }
        let n = self.points.len() as f64;
        let sx: f64 = self.points.iter().map(|&(x, _)| x).sum();
        let sy: f64 = self.points.iter().map(|&(_, y)| y).sum();
        let sxx: f64 = self.points.iter().map(|&(x, _)| x * x).sum();
        let sxy: f64 = self.points.iter().map(|&(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        Some((n * sxy - sx * sy) / denom)
    }

    /// Render as aligned text columns.
    pub fn render(&self, label: &str, x_name: &str, y_name: &str) -> String {
        let mut out = format!("{label}\n  {x_name:>10}  {y_name:>12}\n");
        for &(x, y) in &self.points {
            out.push_str(&format!("  {x:>10.1}  {y:>12.2}\n"));
        }
        out
    }
}

/// Default relative-error parameter for [`SketchMetric`]: quantile
/// estimates are within ±1% of the exact sample value.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Bucket-count ceiling for [`SketchMetric`]. With `SKETCH_ALPHA` the
/// buckets span a value ratio of `gamma^4096 ≈ e^82`, so the collapse
/// path never fires on simulation latencies; it exists to make the
/// worst-case memory bound unconditional.
const SKETCH_MAX_BUCKETS: usize = 4096;

/// A DDSketch-style log-bucket quantile sketch with a guaranteed
/// relative-error bound and a deterministic, order-invariant merge.
///
/// Positive observation `x` lands in bucket `i = ceil(ln(x) / ln(gamma))`
/// with `gamma = (1 + alpha) / (1 - alpha)`; the bucket's representative
/// value `2·gamma^i / (gamma + 1)` is within `alpha` relative error of
/// every value in the bucket (up to f64 rounding exactly at bucket
/// boundaries). Non-positive observations land in an exact zero bucket.
///
/// Memory is bounded by `SKETCH_MAX_BUCKETS` (4096) integer-keyed counts
/// independent of the number of observations. When the ceiling is
/// exceeded, all buckets below `max_index − SKETCH_MAX_BUCKETS + 1` fold
/// into that cutoff index; because the cutoff depends only on the
/// largest observed bucket, the collapsed state is a canonical function
/// of the recorded *multiset*, so [`SketchMetric::merge`] stays
/// associative, commutative and byte-deterministic in any grouping —
/// the property `run_ordered` shard aggregation relies on.
///
/// The sum used by [`SketchMetric::mean`] is reconstructed from bucket
/// representatives at read time (never stored as accumulated f64), so
/// no operation depends on floating-point addition order.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchMetric {
    alpha: f64,
    /// `ln(gamma)`, precomputed.
    gamma_ln: f64,
    /// Bucket index -> count, for positive observations.
    buckets: BTreeMap<i32, u64>,
    /// Count of observations `<= 0`.
    zero: u64,
    /// Total observations (including the zero bucket).
    count: u64,
    /// Exact smallest observation (clamped at 0; +inf when empty).
    min: f64,
    /// Exact largest observation (clamped at 0; -inf when empty).
    max: f64,
}

impl Default for SketchMetric {
    fn default() -> SketchMetric {
        SketchMetric::new(SKETCH_ALPHA)
    }
}

impl SketchMetric {
    /// An empty sketch with relative-error bound `alpha` (in `(0, 1)`).
    pub fn new(alpha: f64) -> SketchMetric {
        assert!(alpha > 0.0 && alpha < 1.0, "sketch alpha must be in (0,1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        SketchMetric {
            alpha,
            gamma_ln: gamma.ln(),
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Record one observation. Values `<= 0` are counted exactly in the
    /// zero bucket (sim latencies are non-negative).
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Record `n` identical observations.
    pub fn record_n(&mut self, x: f64, n: u64) {
        if n == 0 {
            return;
        }
        let x = if x > 0.0 { x } else { 0.0 };
        if x == 0.0 {
            self.zero += n;
        } else {
            let idx = (x.ln() / self.gamma_ln).ceil() as i32;
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.count += n;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.collapse();
    }

    /// Merge another sketch (same `alpha`) into this one. Order-invariant:
    /// any merge tree over the same per-shard sketches yields a
    /// byte-identical result.
    pub fn merge(&mut self, other: &SketchMetric) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits(),
            "cannot merge sketches with different alpha"
        );
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.collapse();
    }

    /// Enforce the bucket ceiling canonically: fold every bucket below
    /// `max_index − SKETCH_MAX_BUCKETS + 1` into that cutoff index. Applied
    /// after every mutation, so the state is always `canonicalize(multiset)`
    /// regardless of record/merge order.
    fn collapse(&mut self) {
        let (Some(&lo), Some(&hi)) = (
            self.buckets.keys().next(),
            self.buckets.keys().next_back(),
        ) else {
            return;
        };
        let cutoff = hi - (SKETCH_MAX_BUCKETS as i32 - 1);
        if lo >= cutoff {
            return;
        }
        let mut folded = 0u64;
        let keep = self.buckets.split_off(&cutoff);
        for (_, n) in std::mem::replace(&mut self.buckets, keep) {
            folded += n;
        }
        *self.buckets.entry(cutoff).or_insert(0) += folded;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct buckets currently held (the memory footprint).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero > 0)
    }

    /// Exact smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Exact largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Representative value of bucket `idx`: `2·gamma^idx / (gamma + 1)`.
    fn bucket_value(&self, idx: i32) -> f64 {
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (self.gamma_ln * idx as f64).exp() / (gamma + 1.0)
    }

    /// Approximate sum, reconstructed from bucket representatives (within
    /// `alpha` relative error of the exact sum; deterministic under any
    /// merge order because it never accumulates across mutations).
    pub fn sum(&self) -> f64 {
        self.buckets
            .iter()
            .map(|(&idx, &n)| n as f64 * self.bucket_value(idx))
            .sum()
    }

    /// Approximate mean (0 when empty), within `alpha` relative error.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`, using the same nearest-rank
    /// convention as [`percentile`] (`rank = round(q·(n−1))`): the result
    /// is within `alpha` relative error of the exact rank-`rank` sample,
    /// clamped into the exact observed `[min, max]`. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q * (self.count as f64 - 1.0)).round() as u64;
        if rank < self.zero {
            return 0.0;
        }
        let mut seen = self.zero;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if rank < seen {
                return self.bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Fixed-width sim-time windowed counts: the building block for the
/// chaos-report load/error/retransmit timeline. Windows are keyed by
/// `floor(t / width)`; [`WindowSeries::merge`] adds counts windowwise and
/// is order-invariant, so per-shard timelines aggregate deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSeries {
    width_ms: u64,
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl WindowSeries {
    /// An empty series with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> WindowSeries {
        assert!(width.as_millis() > 0, "window width must be positive");
        WindowSeries {
            width_ms: width.as_millis(),
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// The window width.
    pub fn width(&self) -> SimDuration {
        SimDuration::from_millis(self.width_ms)
    }

    /// Count one occurrence at sim-time `at`.
    pub fn mark(&mut self, at: SimTime) {
        self.add(at, 1);
    }

    /// Count `n` occurrences at sim-time `at`.
    pub fn add(&mut self, at: SimTime, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(at.as_millis() / self.width_ms).or_insert(0) += n;
        self.total += n;
    }

    /// Merge another series (same width) windowwise.
    pub fn merge(&mut self, other: &WindowSeries) {
        assert_eq!(self.width_ms, other.width_ms, "window widths differ");
        for (&w, &n) in &other.counts {
            *self.counts.entry(w).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// Total count across all windows.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in window `w` (0 when never marked).
    pub fn get(&self, w: u64) -> u64 {
        self.counts.get(&w).copied().unwrap_or(0)
    }

    /// Largest window index with a count, `None` when empty.
    pub fn max_index(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Largest single-window count (0 when empty).
    pub fn peak(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Number of non-empty windows.
    pub fn window_count(&self) -> usize {
        self.counts.len()
    }

    /// `(window_index, count)` rows in window order.
    pub fn windows(&self) -> Vec<(u64, u64)> {
        self.counts.iter().map(|(&w, &n)| (w, n)).collect()
    }
}

/// Percentile over a slice (nearest-rank on a sorted copy). `p` in `[0,100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample sd with n-1: variance = 32/7.
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    /// Merging two summaries equals pooling their observations: one fixed
    /// split, then seeded random samples split at every kind of point,
    /// empty sides included.
    #[test]
    fn summary_merge_equals_pooled() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut cases = vec![(data, 37)];
        for seed in 0..128 {
            let mut rng = crate::rng::SimRng::seed_from_u64(seed);
            let n = rng.index(128);
            let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
            cases.push((xs, rng.index(n + 1)));
        }
        for (data, split) in cases {
            let mut pooled = Summary::new();
            for &x in &data {
                pooled.record(x);
            }
            let mut left = Summary::new();
            let mut right = Summary::new();
            for &x in &data[..split] {
                left.record(x);
            }
            for &x in &data[split..] {
                right.record(x);
            }
            left.merge(&right);
            assert_eq!(left.count(), pooled.count());
            if pooled.count() > 0 {
                assert!((left.mean() - pooled.mean()).abs() < 1e-9, "{data:?} at {split}");
                assert!((left.std_dev() - pooled.std_dev()).abs() < 1e-9, "{data:?} at {split}");
            }
        }
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn histogram_bins_match_paper_layout() {
        // 10-second bins starting at 0, like Figure 4: centers 5, 15, 25...
        let mut h = Histogram::new(0.0, 10.0);
        for x in [3.0, 7.0, 12.0, 25.0, 29.9] {
            h.record(x);
        }
        let rows = h.normalized();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, 5.0);
        assert_eq!(rows[1].0, 15.0);
        assert_eq!(rows[2].0, 25.0);
        assert!((rows[0].1 - 0.4).abs() < 1e-12);
        assert!((rows[1].1 - 0.2).abs() < 1e-12);
        assert!((rows[2].1 - 0.4).abs() < 1e-12);
        // Frequencies always sum to 1.
        let total: f64 = rows.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_mode_and_clamping() {
        let mut h = Histogram::new(10.0, 5.0);
        h.record(2.0); // below origin -> bin 0 (center 12.5)
        h.record(11.0);
        h.record(12.0);
        h.record(26.0);
        assert_eq!(h.mode_center(), Some(12.5));
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn empty_histogram_renders_and_reports_none() {
        let h = Histogram::new(0.0, 5.0);
        assert!(h.normalized().is_empty());
        assert_eq!(h.mode_center(), None);
        let text = h.render("empty");
        assert!(text.contains("empty"));
    }

    #[test]
    fn series_slope_detects_trend() {
        let mut up = Series::new();
        let mut flat = Series::new();
        for i in 0..50 {
            up.push(i as f64, 10.0 + 0.5 * i as f64);
            flat.push(i as f64, 10.0);
        }
        assert!((up.slope().unwrap() - 0.5).abs() < 1e-9);
        assert!(flat.slope().unwrap().abs() < 1e-9);
        assert!((up.mean_y_in(0.0, 9.0) - 12.25).abs() < 1e-9);
    }

    #[test]
    fn series_edge_cases() {
        let s = Series::new();
        assert!(s.slope().is_none());
        assert!(s.mean_y_in(0.0, 10.0).is_nan());
        let mut degenerate = Series::new();
        degenerate.push(1.0, 2.0);
        degenerate.push(1.0, 4.0);
        assert!(degenerate.slope().is_none());
    }

    #[test]
    fn histogram_counts_and_render() {
        let mut h = Histogram::new(0.0, 10.0);
        for x in [5.0, 15.0, 15.5] {
            h.record(x);
        }
        assert_eq!(h.counts(), vec![(5.0, 1), (15.0, 2)]);
        let text = h.render("demo");
        assert!(text.contains("demo"));
        assert!(text.contains("15.0"));
        // The peak bin gets the longest bar.
        let bars: Vec<usize> = text
            .lines()
            .skip(1)
            .map(|l| l.matches('#').count())
            .collect();
        assert_eq!(bars.iter().max(), Some(&40));
    }

    #[test]
    fn series_render_lists_points() {
        let mut s = Series::new();
        s.push(1.0, 10.5);
        s.push(2.0, 11.0);
        let text = s.render("clones", "seq", "secs");
        assert!(text.contains("clones"));
        assert!(text.contains("10.50"));
        assert_eq!(text.lines().count(), 4, "header + axis row + 2 points");
    }

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 50.0), 51.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    /// Deterministic pseudo-random positive samples (no `rand` dependency).
    fn lcg_samples(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Spread over ~5 decades: 0.01 .. ~1000.
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                0.01 * (u * 11.5).exp()
            })
            .collect()
    }

    #[test]
    fn sketch_quantiles_within_alpha_of_exact_oracle() {
        let data = lcg_samples(7, 5000);
        let mut sketch = SketchMetric::default();
        for &x in &data {
            sketch.record(x);
        }
        assert_eq!(sketch.count(), 5000);
        for &q in &[0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = percentile(&data, q * 100.0);
            let est = sketch.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(
                rel <= sketch.alpha() * 1.0001 + 1e-12,
                "q={q}: est {est} vs exact {exact} (rel {rel})"
            );
        }
        // min/max are exact.
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(sketch.min(), lo);
        assert_eq!(sketch.max(), hi);
        // Mean is within alpha too (reconstructed from representatives).
        let exact_mean = data.iter().sum::<f64>() / data.len() as f64;
        assert!((sketch.mean() - exact_mean).abs() / exact_mean <= SKETCH_ALPHA);
    }

    #[test]
    fn sketch_merge_is_associative_and_commutative() {
        let data = lcg_samples(21, 3000);
        let parts: Vec<SketchMetric> = data
            .chunks(700)
            .map(|chunk| {
                let mut s = SketchMetric::default();
                for &x in chunk {
                    s.record(x);
                }
                s
            })
            .collect();
        // Left fold, right fold, reversed fold, pairwise tree: identical.
        let mut left = SketchMetric::default();
        for p in &parts {
            left.merge(p);
        }
        let mut right = SketchMetric::default();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        let mut tree_a = parts[0].clone();
        tree_a.merge(&parts[1]);
        let mut tree_b = parts[2].clone();
        tree_b.merge(&parts[3]);
        if parts.len() > 4 {
            tree_b.merge(&parts[4]);
        }
        tree_a.merge(&tree_b);
        assert_eq!(left, right);
        assert_eq!(left, tree_a);
        // And equal to recording everything into one sketch directly.
        let mut pooled = SketchMetric::default();
        for &x in &data {
            pooled.record(x);
        }
        assert_eq!(left, pooled);
    }

    #[test]
    fn sketch_zero_bucket_and_empty() {
        let empty = SketchMetric::default();
        assert!(empty.is_empty());
        assert!(empty.quantile(0.5).is_nan());
        assert!(empty.min().is_nan());
        assert_eq!(empty.mean(), 0.0);

        let mut s = SketchMetric::default();
        s.record(0.0);
        s.record(-3.0); // clamps into the exact zero bucket
        s.record(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.quantile(0.0), 0.0);
        assert!((s.quantile(1.0) - 10.0).abs() / 10.0 <= s.alpha());
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn sketch_collapse_is_canonical_across_record_order() {
        // Values spanning far more than SKETCH_MAX_BUCKETS buckets force
        // the fold; inserting low-then-high vs high-then-low must converge
        // to the same canonical state.
        let mut values = Vec::new();
        for i in 0..64 {
            values.push(1e-30 * (i as f64 + 1.0)); // far below the cutoff
            values.push(1e30 * (i as f64 + 1.0));
        }
        let mut fwd = SketchMetric::default();
        for &x in &values {
            fwd.record(x);
        }
        let mut rev = SketchMetric::default();
        for &x in values.iter().rev() {
            rev.record(x);
        }
        assert_eq!(fwd, rev);
        assert!(fwd.bucket_count() <= SKETCH_MAX_BUCKETS + 1);
        assert_eq!(fwd.count(), values.len() as u64);
    }

    #[test]
    fn window_series_counts_and_merges() {
        let w = SimDuration::from_secs(60);
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        let mut a = WindowSeries::new(w);
        a.mark(at(5));
        a.mark(at(59));
        a.mark(at(60));
        a.add(at(200), 3);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(3), 3);
        assert_eq!(a.total(), 6);
        assert_eq!(a.max_index(), Some(3));
        assert_eq!(a.peak(), 3);
        assert_eq!(a.window_count(), 3);

        let mut b = WindowSeries::new(w);
        b.mark(at(10));
        b.add(at(185), 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(0), 3);
        assert_eq!(ab.get(3), 5);
        assert_eq!(ab.total(), 9);
    }
}
