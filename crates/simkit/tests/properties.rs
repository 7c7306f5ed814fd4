//! Seeded property tests for the DES kernel, the fair-share resource and
//! the statistics helpers. Cases are drawn from `SimRng` over a fixed seed
//! range, so each run checks the same inputs.

use std::cell::RefCell;
use std::rc::Rc;
use vmplants_simkit::resource::FairShare;
use vmplants_simkit::stats::{percentile, Histogram};
use vmplants_simkit::{Engine, SimDuration, SimRng, SimTime};

/// Cases per property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;

/// A length in `[lo, hi)`.
fn len(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo)
}

/// Events always fire in non-decreasing virtual time, whatever order
/// they were scheduled in, and the clock ends at the latest one.
#[test]
fn event_delivery_is_monotone() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = len(&mut rng, 1, 64);
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 9_999)).collect();
        let mut engine = Engine::new();
        let stamps: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for &d in &delays {
            let stamps = Rc::clone(&stamps);
            engine.schedule(SimDuration::from_millis(d), move |e| {
                stamps.borrow_mut().push(e.now().as_millis());
            });
        }
        engine.run();
        let stamps = stamps.borrow();
        assert_eq!(stamps.len(), delays.len(), "seed {seed}");
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: {stamps:?}"
        );
        let max = delays.iter().copied().max().unwrap();
        assert_eq!(engine.now(), SimTime::from_millis(max), "seed {seed}");
    }
}

/// The fair-share resource conserves work: once the run drains, every job
/// completed and the total served equals the sum of submitted work.
#[test]
fn fair_share_conserves_work() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let capacity = rng.uniform(1.0, 1000.0);
        let n = len(&mut rng, 1, 24);
        let jobs: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.uniform_u64(0, 4_999), rng.uniform(0.0, 10_000.0)))
            .collect();
        let mut engine = Engine::new();
        let link = FairShare::new("link", capacity);
        let completions = Rc::new(RefCell::new(0usize));
        for &(delay, work) in &jobs {
            let link = link.clone();
            let completions = Rc::clone(&completions);
            engine.schedule(SimDuration::from_millis(delay), move |e| {
                link.submit(e, work, move |_| {
                    *completions.borrow_mut() += 1;
                });
            });
        }
        engine.run();
        assert_eq!(*completions.borrow(), jobs.len(), "seed {seed}");
        assert_eq!(link.active_jobs(), 0, "seed {seed}");
        let expected: f64 = jobs.iter().map(|&(_, w)| w).sum();
        let served = link.total_served();
        assert!(
            (served - expected).abs() <= expected.max(1.0) * 1e-6 + 1e-3,
            "seed {seed}: served {served} vs expected {expected}"
        );
    }
}

/// A lone job never finishes earlier than work/capacity (the physical
/// lower bound) nor later than millisecond quantization allows.
#[test]
fn fair_share_respects_capacity_bound() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let capacity = rng.uniform(1.0, 100.0);
        let work = rng.uniform(0.1, 10_000.0);
        let mut engine = Engine::new();
        let link = FairShare::new("link", capacity);
        let done_at = Rc::new(RefCell::new(None));
        let d = Rc::clone(&done_at);
        link.submit(&mut engine, work, move |e| {
            *d.borrow_mut() = Some(e.now().as_secs_f64());
        });
        engine.run();
        let t = done_at.borrow().expect("job completed");
        let ideal = work / capacity;
        assert!(t >= ideal - 1e-9, "seed {seed}: t={t} ideal={ideal}");
        assert!(t <= ideal + 0.002, "seed {seed}: t={t} ideal={ideal}");
    }
}

/// Histogram frequencies form a probability distribution and the summary
/// matches a direct computation.
#[test]
fn histogram_is_normalized() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = len(&mut rng, 1, 256);
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 500.0)).collect();
        let mut h = Histogram::new(0.0, 10.0);
        for &s in &samples {
            h.record(s);
        }
        let total: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "seed {seed}: frequencies sum to {total}"
        );
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((h.summary().mean() - mean).abs() < 1e-9, "seed {seed}");
        assert_eq!(h.total(), samples.len() as u64, "seed {seed}");
    }
}

/// A percentile is always an element of the input, and a lower one never
/// exceeds a higher one.
#[test]
fn percentile_is_order_respecting() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let n = len(&mut rng, 1, 128);
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let (p_lo, p_hi) = (rng.uniform(0.0, 50.0), rng.uniform(50.0, 100.0));
        let lo = percentile(&samples, p_lo);
        let hi = percentile(&samples, p_hi);
        assert!(samples.contains(&lo), "seed {seed}");
        assert!(samples.contains(&hi), "seed {seed}");
        assert!(lo <= hi, "seed {seed}: p{p_lo} = {lo} > p{p_hi} = {hi}");
    }
}
