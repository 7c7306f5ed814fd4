//! A fixed reference probe that calibrates host speed.
//!
//! The benchmark runs on shared virtual machines whose CPU speed swings
//! by tens of percent within seconds and drifts for minutes, because
//! other tenants share the physical cores. Untreated, that swamps every
//! host-time figure. The benchmark therefore runs this probe between
//! chunks of every measured event loop (and around every set-up) and
//! scales the host seconds it measured to a machine on which the probe
//! takes [`NOMINAL_S`]. The probe is the benchmark's own code, so a change
//! to the program under test never moves it; it has the simulator's mix
//! of work (an event heap, ordered-map state, short-lived strings),
//! which makes it slow down with the simulator when the core is shared.
//! A cache-bound pointer chase did not track the simulator; this mix did.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::workload::Rng;

/// Host seconds the probe takes on an uncontended core of the machine
/// the benchmark was calibrated on (2-vCPU x86-64 VM).
pub const NOMINAL_S: f64 = 0.0025;

/// Run the probe once and return its host seconds.
pub fn probe_s() -> f64 {
    let started = Instant::now();
    let mut rng = Rng::new(0x5eed);
    let mut heap = BinaryHeap::new();
    let mut state: BTreeMap<u64, String> = BTreeMap::new();
    for id in 0..1_024u64 {
        heap.push(Reverse((rng.next_u64() % 1_000_000, id)));
    }
    for _ in 0..6_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never drains");
        let key = rng.next_u64() % 8_192;
        state.insert(key, format!("{id}@{t}"));
        if let Some(v) = state.get(&(key ^ 1)) {
            black_box(v.len());
        }
        if key.is_multiple_of(7) {
            state.remove(&(key ^ 2));
        }
        heap.push(Reverse((t + 1 + rng.next_u64() % 1_000, id)));
    }
    black_box(state.len());
    started.elapsed().as_secs_f64()
}

/// Host seconds measured next to `probes`, scaled to the reference
/// machine.
pub fn nominal(host_s: f64, probes: &[f64]) -> f64 {
    host_s * NOMINAL_S / median(probes)
}
