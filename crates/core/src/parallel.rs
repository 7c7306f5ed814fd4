//! Parallel experiment harness: independent seeded replicas across OS
//! threads.
//!
//! Every experiment in [`crate::experiments`] and [`crate::ablations`]
//! builds its *own* `SimSite` (engine, RNG streams, plants — all `Rc`
//! internals that never leave their thread), so replicas that differ only
//! by seed or parameter are embarrassingly parallel. The one rule that
//! keeps the harness deterministic: results are merged **in job order**,
//! never in completion order, so the output of a parallel sweep is
//! byte-identical to the serial sweep it replaces.

/// Job counts below this run serially (see [`run_ordered`]).
pub const SERIAL_THRESHOLD: usize = 4;

/// Run the jobs across worker threads and return the results **in job
/// order** (not completion order). Each job must be self-contained: it
/// builds and owns its entire simulation. Panics propagate.
///
/// Jobs are batched into `min(available_parallelism, jobs.len())`
/// contiguous chunks, one thread per chunk, rather than one thread per
/// job: a twelve-cell sweep on a small machine would otherwise pay eleven
/// thread spawns plus scheduler churn for cells that each run in a few
/// milliseconds, making the "parallel" sweep *slower* than the serial
/// one. Chunking keeps spawn count bounded by the core count while the
/// in-order merge stays byte-identical to the serial sweep.
///
/// Below [`SERIAL_THRESHOLD`] jobs the harness runs them inline on the
/// caller's thread: measured on the three-cell E1 sweep, spawn + join +
/// cross-thread hand-off overhead exceeded the parallelism win (0.225 s
/// parallel vs 0.203 s serial), so tiny sweeps were paying to go slower.
/// The output is the same either way — only the thread count changes.
pub fn run_ordered<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    if jobs.len() < SERIAL_THRESHOLD {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(jobs.len());
    let chunk = jobs.len().div_ceil(workers);
    let mut jobs = jobs.into_iter();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        loop {
            let batch: Vec<F> = jobs.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            handles.push(scope.spawn(move || batch.into_iter().map(|j| j()).collect::<Vec<T>>()));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("experiment replica panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::run_creation_experiment;

    #[test]
    fn run_ordered_preserves_job_order() {
        // Jobs finishing out of order still land in job order.
        let results = run_ordered(
            (0..8u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(std::time::Duration::from_millis(8 - i));
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_runs_match_serial_exactly() {
        // Small replicas of the E1 shape: the parallel merge must be
        // indistinguishable from running them back-to-back.
        let serial: Vec<_> = [(32u64, 0u64), (64, 1), (256, 2)]
            .iter()
            .map(|&(mem, off)| run_creation_experiment(mem, 4, 7 + off))
            .collect();
        let parallel = run_ordered(
            [(32u64, 0u64), (64, 1), (256, 2)]
                .iter()
                .map(|&(mem, off)| move || run_creation_experiment(mem, 4, 7 + off))
                .collect(),
        );
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.memory_mb, p.memory_mb);
            assert_eq!(s.successes, p.successes);
            assert_eq!(s.latencies, p.latencies);
            assert_eq!(
                s.clones.iter().map(|c| c.clone_s).collect::<Vec<_>>(),
                p.clones.iter().map(|c| c.clone_s).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn small_job_counts_fall_back_to_serial() {
        // Below the threshold the caller's thread runs every job; the
        // results are indistinguishable from the threaded path.
        let small = run_ordered((0..3u64).map(|i| move || i * 10).collect());
        assert_eq!(small, vec![0, 10, 20]);
        let at_threshold =
            run_ordered((0..SERIAL_THRESHOLD as u64).map(|i| move || i).collect());
        assert_eq!(at_threshold, (0..SERIAL_THRESHOLD as u64).collect::<Vec<_>>());
    }
}
