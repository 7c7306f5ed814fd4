//! Seeded random number generation for the timing models.
//!
//! The substrate's latency models need a handful of distributions: uniform
//! jitter, (truncated) normal noise, lognormal service times and exponential
//! inter-arrival times. The generator itself is a self-contained
//! xoshiro256++ core seeded through splitmix64 — no external crates, so the
//! simulation stays buildable in network-restricted environments and the
//! stream is stable across toolchains. The derived distributions are built
//! on top: normal via the Box–Muller transform, lognormal by exponentiating
//! it, exponential by inverse-CDF.

use crate::time::SimDuration;

/// splitmix64: the recommended seeder for xoshiro-family state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random source with the distributions the substrate models use.
///
/// Core generator: xoshiro256++ (Blackman & Vigna), 2^256-1 period,
/// deterministic for a fixed seed on every platform.
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Deterministic generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// The raw 64-bit xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derive an independent child generator (for per-component streams that
    /// stay stable when other components consume randomness).
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
        loop {
            let x = lo + (hi - lo) * self.next_f64();
            // Floating-point rounding can land exactly on `hi` when the
            // range is wide; redraw to keep the half-open contract.
            if x < hi {
                return x;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64: empty range [{lo}, {hi}]");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        let range = hi - lo + 1;
        // Fixed-point multiply maps the 64-bit draw onto the range; the
        // bias is < 2^-64 per value, far below anything the sim can see.
        lo + ((self.next_u64() as u128 * range as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Pick a uniformly random index below `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty choice set");
        self.uniform_u64(0, n as u64 - 1) as usize
    }

    /// Standard normal sample (Box–Muller).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1: f64 = 1.0 - self.next_f64();
        let u2: f64 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub(crate) fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "normal: negative standard deviation");
        mean + sd * self.standard_normal()
    }

    /// Lognormal sample parameterized by the *target* mean and the shape
    /// sigma (standard deviation of the underlying normal). Latency tails in
    /// the paper's histograms are right-skewed; lognormal reproduces that.
    pub fn lognormal_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "lognormal_mean: mean must be positive");
        assert!(sigma >= 0.0, "lognormal_mean: negative sigma");
        // If X ~ LogNormal(mu, sigma), E[X] = exp(mu + sigma^2/2).
        let mu = mean.ln() - sigma * sigma / 2.0;
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential: mean must be positive");
        let u: f64 = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// A duration jittered multiplicatively: `base * N(1, rel_sd)`, clamped
    /// so it never drops below `base * (1 - 3*rel_sd)` or 0.
    pub fn jitter(&mut self, base: SimDuration, rel_sd: f64) -> SimDuration {
        let factor = self
            .normal(1.0, rel_sd)
            .max((1.0 - 3.0 * rel_sd).max(0.0));
        base.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summarize(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn stream_is_stable_across_builds() {
        // Pin the first few raw outputs: the whole determinism story rests
        // on the generator never changing under our feet.
        let mut rng = SimRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32)
            .filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_consumption() {
        let mut parent_a = SimRng::seed_from_u64(7);
        let mut child_a = parent_a.fork(1);
        let mut parent_b = SimRng::seed_from_u64(7);
        let mut child_b = parent_b.fork(1);
        // Consuming from one parent after forking must not affect children.
        let _ = parent_a.uniform(0.0, 1.0);
        for _ in 0..16 {
            assert_eq!(child_a.standard_normal(), child_b.standard_normal());
        }
    }

    #[test]
    fn uniform_u64_covers_range_inclusive() {
        let mut rng = SimRng::seed_from_u64(21);
        let mut seen = [false; 4];
        for _ in 0..256 {
            let v = rng.uniform_u64(10, 13);
            assert!((10..=13).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a tiny range appear");
    }

    #[test]
    fn normal_matches_requested_moments() {
        let mut rng = SimRng::seed_from_u64(99);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.normal(50.0, 5.0)).collect();
        let (mean, sd) = summarize(&samples);
        assert!((mean - 50.0).abs() < 0.2, "mean={mean}");
        assert!((sd - 5.0).abs() < 0.2, "sd={sd}");
    }

    #[test]
    fn lognormal_mean_hits_target_mean_and_is_positive() {
        let mut rng = SimRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..40_000).map(|_| rng.lognormal_mean(20.0, 0.3)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let (mean, _) = summarize(&samples);
        assert!((mean - 20.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..40_000).map(|_| rng.exponential(3.0)).collect();
        let (mean, _) = summarize(&samples);
        assert!((mean - 3.0).abs() < 0.1, "mean={mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn jitter_stays_near_base_and_nonnegative() {
        let mut rng = SimRng::seed_from_u64(3);
        let base = SimDuration::from_secs(10);
        for _ in 0..1000 {
            let d = rng.jitter(base, 0.1);
            let secs = d.as_secs_f64();
            assert!(secs >= 10.0 * 0.7 - 1e-9, "too small: {secs}");
            assert!(secs < 10.0 * 1.6, "too large: {secs}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities clamp instead of panicking.
        assert!(rng.chance(7.5));
        assert!(!rng.chance(-2.0));
    }
}
