//! The persistent performance baseline (E17): kernel event throughput,
//! matchmaking throughput at several warehouse sizes (naive linear path
//! vs the interned/indexed fast path), classad bidding at fleet scale
//! (one order constraint tree-walked per plant ad), and experiment wall
//! times under the serial and parallel harnesses. Emits
//! `BENCH_vmplants.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p vmplants-bench --bin bench_baseline           # full
//! cargo run --release -p vmplants-bench --bin bench_baseline -- --quick
//! cargo run ... -- --out path/to/file.json
//! cargo run ... -- --check [--baseline BENCH_vmplants.json] [--slack 2.5]
//! ```
//!
//! `--quick` shrinks every workload for CI smoke runs; the JSON schema is
//! identical in both modes (the `quick` flag records which one ran).
//!
//! `--check` turns the run into a regression gate: instead of writing
//! the baseline file, the fresh numbers are compared against the
//! committed baseline under the per-section tolerances in
//! [`vmplants_bench::check`], and the process exits non-zero on any
//! regression. `--slack` scales every tolerance (CI uses >1 to absorb
//! shared-runner noise). Only rates and ratios are gated, so a `--quick
//! --check` run is meaningful even against the committed full-mode
//! baseline.

use std::cell::Cell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use vmplants::ablations::{concurrent_burst, BURST_SIZES};
use vmplants::experiments::run_creation_experiment;
use vmplants::parallel::run_ordered;
use vmplants_bench::seed_from_args;
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::{Action, ConfigDag, PerformedLog};
use vmplants_simkit::{Engine, SimDuration};
use vmplants_virt::VmSpec;
use vmplants_warehouse::{Warehouse, WarehouseConfig};

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == name)
        .map(|w| w[1].clone())
}

/// Timed batches behind each gated rate.
const BATCHES: usize = 5;

/// Run [`BATCHES`] equal timed batches and return the median batch rate,
/// in operations per second: the median rides out a descheduled batch
/// that one timed loop would report as the rate. `batch(i)` runs batch
/// `i` and returns how many operations it did.
fn median_batch_rate(mut batch: impl FnMut(usize) -> usize) -> f64 {
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|i| {
            let started = Instant::now();
            let ops = batch(i);
            ops as f64 / started.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[BATCHES / 2]
}

// ---------------------------------------------------------------------
// Kernel throughput: chains of self-rescheduling events with a cancelled
// decoy per hop on the slab engine.
// ---------------------------------------------------------------------

struct KernelNumbers {
    events: u64,
    slab_events_per_sec: f64,
}

const CHAINS: usize = 64;

fn slab_kernel_run(hops: usize) -> u64 {
    let mut engine = Engine::new();
    let fired = Rc::new(Cell::new(0u64));
    fn hop(engine: &mut Engine, fired: Rc<Cell<u64>>, left: usize) {
        fired.set(fired.get() + 1);
        if left == 0 {
            return;
        }
        // A decoy event that is immediately cancelled: the slab pays two
        // array writes for it.
        let decoy = engine.schedule(SimDuration::from_millis(5), |_| {});
        engine.cancel(decoy);
        let f = Rc::clone(&fired);
        engine.schedule(SimDuration::from_millis(1), move |e| hop(e, f, left - 1));
    }
    for _ in 0..CHAINS {
        let f = Rc::clone(&fired);
        engine.schedule(SimDuration::from_millis(1), move |e| hop(e, f, hops));
    }
    engine.run();
    engine.throughput().events
}

fn bench_kernel(quick: bool) -> KernelNumbers {
    let hops = if quick { 2_000 } else { 20_000 };
    // Warm-up discard, then measure.
    let _ = slab_kernel_run(hops / 4);
    let mut events = 0;
    let slab_events_per_sec = median_batch_rate(|_| {
        events = slab_kernel_run(hops);
        events as usize
    });
    KernelNumbers {
        events,
        slab_events_per_sec,
    }
}

// ---------------------------------------------------------------------
// Matchmaking throughput: a warehouse of n goldens, most of which fail
// the request's signature-subset pre-check, probed by the naive
// three-test linear scan vs the compiled/indexed lookup.
// ---------------------------------------------------------------------

struct MatchNumbers {
    goldens: usize,
    lookups: usize,
    naive_per_sec: f64,
    indexed_per_sec: f64,
    speedup: f64,
}

/// A 48-action chain: big enough that the per-candidate matching tests
/// dominate the naive scan.
fn bench_dag() -> ConfigDag {
    let mut dag = ConfigDag::new();
    let ids: Vec<String> = (0..48).map(|i| format!("s{i:02}")).collect();
    for id in &ids {
        dag.add_action(Action::guest(id, format!("install-{id}")))
            .expect("unique");
    }
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    dag.chain(&refs).expect("chain");
    dag
}

fn bench_warehouse(goldens: usize) -> Warehouse {
    let nfs = NfsServer::new("bench-storage");
    let mut w = Warehouse::new();
    let dag = bench_dag();
    let order = dag.topo_sort().expect("chain dag");
    for i in 0..goldens {
        // One in eight goldens is a genuine prefix of the request chain
        // (varying depth); the rest carry a foreign action log that the
        // subset pre-check rejects without running the heavier tests.
        let performed: PerformedLog = if i % 8 == 0 {
            order
                .iter()
                .take(4 + (i % 32))
                .map(|id| dag.action(id).expect("chain action").clone())
                .collect()
        } else {
            (0..12)
                .map(|j| Action::guest(format!("x{i}-{j}"), format!("foreign-{i}-{j}")))
                .collect()
        };
        w.publish(
            &nfs,
            format!("bench-{i:04}"),
            format!("bench golden {i}"),
            VmSpec::mandrake(64),
            performed,
        )
        .expect("bench publish");
    }
    w
}

fn bench_matching(goldens: usize, quick: bool) -> MatchNumbers {
    let w = bench_warehouse(goldens);
    let dag = bench_dag();
    let spec = VmSpec::mandrake(64);
    // Keep total work roughly flat across warehouse sizes.
    let lookups = ((if quick { 2_000 } else { 40_000 }) / goldens).max(8);

    let expected = w
        .find_golden_naive(&spec, &dag)
        .map(|(img, r)| (img.id.clone(), r.score()));
    let naive_per_sec = {
        let started = Instant::now();
        for _ in 0..lookups {
            let got = w
                .find_golden_naive(&spec, &dag)
                .map(|(img, r)| (img.id.clone(), r.score()));
            assert_eq!(got, expected);
        }
        lookups as f64 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let indexed_per_sec = median_batch_rate(|_| {
        for _ in 0..lookups {
            let got = w
                .lookup(&spec, &dag)
                .map(|(img, r)| (img.id.clone(), r.score()));
            assert_eq!(got, expected, "indexed lookup diverged from naive");
        }
        lookups
    });
    MatchNumbers {
        goldens,
        lookups,
        naive_per_sec,
        indexed_per_sec,
        speedup: indexed_per_sec / naive_per_sec,
    }
}

// ---------------------------------------------------------------------
// Matchmaking at scale: one order constraint tree-walked over plant ads
// from fleets of 10k/100k/1M. The fleet sizes are identical in quick and
// full mode (the CI validator pins them); quick mode shrinks the walked
// sample instead.
// ---------------------------------------------------------------------

struct ScaleNumbers {
    ads: usize,
    sampled: usize,
    matches: usize,
    tree_rows_per_sec: f64,
}

/// A deterministic plant ad with realistic column variety: memory and VM
/// headroom, utilization, liveness, host OS.
fn scale_ad(i: usize) -> vmplants_classad::ClassAd {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut ad = vmplants_classad::ClassAd::new();
    ad.set_value("freememory", (64 + h % 1985) as i64);
    ad.set_value("alive", h & 4 != 0);
    ad.set_value("vmcount", ((h >> 8) % 12) as i64);
    ad.set_value("memutilization", ((h >> 16) % 100) as f64 / 100.0);
    ad.set_value("os", if h & 32 != 0 { "linux" } else { "uml-host" });
    ad
}

/// The order constraint every plant ad is tested against — the shape a
/// shop parses once per order and reuses across the whole fleet.
const SCALE_CONSTRAINT: &str =
    "alive && os == \"linux\" && freememory >= 256 && vmcount < 8 && memutilization < 0.9";

fn bench_matchmaking_at_scale(ads: usize, quick: bool) -> ScaleNumbers {
    let expr = vmplants_classad::parse_expr(SCALE_CONSTRAINT).expect("bench constraint parses");
    // Tree walk on a capped sample: the rate extrapolates, and a full
    // million-ad walk would dominate the bench run. Only the sampled ads
    // are built; `ads` stays the nominal fleet size.
    let sampled = ads.min(if quick { 10_000 } else { 200_000 });
    let pool: Vec<_> = (0..sampled).map(scale_ad).collect();
    let started = Instant::now();
    let matches = pool
        .iter()
        .filter(|ad| expr.eval_solo(*ad).is_true())
        .count();
    let tree_rows_per_sec = sampled as f64 / started.elapsed().as_secs_f64().max(1e-9);

    ScaleNumbers {
        ads,
        sampled,
        matches,
        tree_rows_per_sec,
    }
}

// ---------------------------------------------------------------------
// Experiment wall times: the E1 creation sweep serial vs parallel, and
// the E14 burst sweep on the parallel harness.
// ---------------------------------------------------------------------

struct ExperimentWall {
    name: &'static str,
    wall_s: f64,
}

fn bench_experiments(seed: u64, quick: bool) -> Vec<ExperimentWall> {
    // Quick mode shrinks the request counts, not the structure. Full
    // mode runs enough requests that both sweep walls sit well above
    // timer resolution — at the paper's 128/128/40 counts the whole
    // sweep finished in ~40 ms and the serial/parallel comparison was
    // mostly scheduler noise.
    let sizes: Vec<(u64, usize)> = if quick {
        vec![(32, 8), (64, 8), (256, 4)]
    } else {
        vec![(32, 2048), (64, 2048), (256, 640)]
    };
    let mut walls = Vec::new();

    let started = Instant::now();
    let serial: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &(mem, n))| run_creation_experiment(mem, n, seed + i as u64))
        .collect();
    walls.push(ExperimentWall {
        name: "e1_creation_sweep_serial",
        wall_s: started.elapsed().as_secs_f64(),
    });

    let started = Instant::now();
    let parallel = run_ordered(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &(mem, n))| move || run_creation_experiment(mem, n, seed + i as u64))
            .collect(),
    );
    walls.push(ExperimentWall {
        name: "e1_creation_sweep_parallel",
        wall_s: started.elapsed().as_secs_f64(),
    });
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.latencies, p.latencies, "parallel harness changed results");
    }

    let started = Instant::now();
    let bursts = concurrent_burst(seed + 100);
    assert_eq!(bursts.len(), BURST_SIZES.len());
    walls.push(ExperimentWall {
        name: "e14_burst_sweep_parallel",
        wall_s: started.elapsed().as_secs_f64(),
    });

    walls
}

// ---------------------------------------------------------------------
// Observability overhead: the same creation workload with the obs sink
// disabled vs enabled. Disabled must be free (spans gated at the call
// site, metrics are plain Cell increments); enabled stays under a few
// percent because recording is an in-memory append of already-known
// timestamps.
// ---------------------------------------------------------------------

struct ObsOverhead {
    requests: usize,
    disabled_wall_s: f64,
    enabled_wall_s: f64,
    overhead_percent: f64,
    spans: usize,
}

fn bench_obs_overhead(seed: u64, quick: bool) -> ObsOverhead {
    use vmplants::{SimSite, SiteConfig};
    use vmplants_dag::graph::experiment_dag;
    use vmplants_simkit::Obs;

    // Full mode runs enough requests that each wall is ≥0.5 s: at the
    // original 96 requests both walls were ~8 ms — below the timer's
    // useful resolution, so the computed percentage was pure noise (it
    // once reported ~9% for an overhead that is actually well under 1%).
    let requests = if quick { 16 } else { 16_000 };
    let run = |obs: Obs| {
        let started = Instant::now();
        let mut site = SimSite::build_with_obs(
            SiteConfig {
                seed,
                ..SiteConfig::default()
            },
            obs,
        );
        for _ in 0..requests {
            let _ = site.create_vm(VmSpec::mandrake(64), experiment_dag("arijit"));
        }
        (started.elapsed().as_secs_f64(), site.obs.span_count())
    };
    // Warm-up discard, then median-of-5 per mode: the median tolerates a
    // stray slow sample (page-cache miss, scheduler blip) in both
    // directions, where min-of-5 systematically favors the mode that got
    // the one lucky run.
    let _ = run(Obs::disabled());
    let median = |obs: fn() -> Obs| {
        let mut samples: Vec<(f64, usize)> = (0..5).map(|_| run(obs())).collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        samples[2]
    };
    let (disabled_wall_s, _) = median(Obs::disabled);
    let (enabled_wall_s, spans) = median(Obs::enabled);
    ObsOverhead {
        requests,
        disabled_wall_s,
        enabled_wall_s,
        overhead_percent: 100.0 * (enabled_wall_s / disabled_wall_s - 1.0),
        spans,
    }
}

// ---------------------------------------------------------------------
// Journal overhead: the same fault-free order stream with the shop's
// write-ahead order journal on (the default) vs off. Journaling is pure
// in-memory bookkeeping on the order path — no extra events, no RNG
// draws — so the report must stay byte-identical and the throughput tax
// must stay under a few percent.
// ---------------------------------------------------------------------

struct JournalOverhead {
    requests: usize,
    journal_on_wall_s: f64,
    journal_off_wall_s: f64,
    journaled_orders_per_sec: f64,
    raw_orders_per_sec: f64,
    overhead_percent: f64,
}

fn bench_journal_overhead(seed: u64, quick: bool) -> JournalOverhead {
    use vmplants::chaos::{run_chaos, ChaosConfig, OrderSpec};

    // Full mode pushes enough orders through the shop that both walls
    // sit well above timer resolution; quick mode only proves the
    // differential (byte-identical reports) and records a rough number.
    let requests = if quick { 64 } else { 4_000 };
    let run = |journal: bool| {
        let mut config = ChaosConfig {
            seed,
            schedule: OrderSpec::constant(requests, SimDuration::from_secs(5), 64),
            ..ChaosConfig::default()
        };
        config.tuning.journal = journal;
        let started = Instant::now();
        let report = run_chaos(&config);
        (started.elapsed().as_secs_f64(), report)
    };

    // Differential check first: turning the journal off must not change
    // a single byte of the fault-free run (journaling is bookkeeping,
    // never behaviour).
    let (_, on_report) = run(true);
    let (_, off_report) = run(false);
    assert_eq!(
        on_report.render_full(),
        off_report.render_full(),
        "the order journal perturbed a fault-free run"
    );

    // Median-of-5 per mode, same rationale as the obs-overhead bench.
    let median = |journal: bool| {
        let mut samples: Vec<f64> = (0..5).map(|_| run(journal).0).collect();
        samples.sort_by(f64::total_cmp);
        samples[2]
    };
    let journal_on_wall_s = median(true);
    let journal_off_wall_s = median(false);
    JournalOverhead {
        requests,
        journal_on_wall_s,
        journal_off_wall_s,
        journaled_orders_per_sec: requests as f64 / journal_on_wall_s.max(1e-9),
        raw_orders_per_sec: requests as f64 / journal_off_wall_s.max(1e-9),
        overhead_percent: 100.0 * (journal_on_wall_s / journal_off_wall_s - 1.0),
    }
}

// ---------------------------------------------------------------------
// Scenario layer: compile throughput for the E20 grid, and the full
// E20 fault×load sweep wall time on the serial harness vs `run_ordered`
// (which must stay byte-identical — the assert is part of the bench).
// ---------------------------------------------------------------------

struct ScenarioNumbers {
    compiles: usize,
    compiles_per_sec: f64,
    cells: usize,
    sweep_serial_wall_s: f64,
    sweep_parallel_wall_s: f64,
    speedup: f64,
}

fn bench_scenario(quick: bool) -> ScenarioNumbers {
    use vmplants::experiments::{e20_grid, E20_QUICK_SEEDS, E20_SEEDS};
    use vmplants::scenario::{run_sweep, run_sweep_serial};

    let grid = e20_grid();
    let rounds = if quick { 200 } else { 2_000 };
    let per_batch = rounds / BATCHES;
    let compiles_per_sec = median_batch_rate(|batch| {
        for round in batch * per_batch..(batch + 1) * per_batch {
            for scenario in &grid {
                let config = scenario
                    .compile_with_seed(round as u64)
                    .expect("E20 scenario compiles");
                assert!(!config.schedule.is_empty());
            }
        }
        per_batch * grid.len()
    });
    let compiles = BATCHES * per_batch * grid.len();

    let seeds: &[u64] = if quick { &E20_QUICK_SEEDS } else { &E20_SEEDS };
    let started = Instant::now();
    let serial = run_sweep_serial(&grid, seeds).expect("serial sweep");
    let sweep_serial_wall_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let parallel = run_sweep(&grid, seeds).expect("parallel sweep");
    let sweep_parallel_wall_s = started.elapsed().as_secs_f64();
    assert_eq!(
        serial.render(),
        parallel.render(),
        "parallel sweep changed results"
    );
    ScenarioNumbers {
        compiles,
        compiles_per_sec,
        cells: grid.len() * seeds.len(),
        sweep_serial_wall_s,
        sweep_parallel_wall_s,
        speedup: sweep_serial_wall_s / sweep_parallel_wall_s.max(1e-9),
    }
}

// ---------------------------------------------------------------------
// Content-addressed warehouse: storage footprint of the chunk store vs
// the full-copy baseline over a population of DAG-distinct goldens that
// share an install prefix, and the clone-latency consequence — a clone
// of a prefix-sharing golden only has to move its private chunks once
// the shared prefix is resident, where the full-copy path moves every
// byte every time.
// ---------------------------------------------------------------------

struct WarehouseNumbers {
    goldens: u32,
    state_files: usize,
    logical_gb: f64,
    physical_gb: f64,
    dedup_factor: f64,
    private_mb_per_clone: f64,
    full_copy_clone_s: f64,
    chunked_clone_s: f64,
    clone_speedup: f64,
}

/// The population is identical in quick and full mode (the CI validator
/// pins the ≥100-golden dedup floor); publishing is simulated-byte
/// accounting, not data transfer, so even the full population settles in
/// well under a second.
const WAREHOUSE_GOLDENS: u32 = 120;

fn bench_warehouse_dedup() -> WarehouseNumbers {
    fn publish_rank(w: &mut Warehouse, nfs: &NfsServer, rank: u32) -> usize {
        let dag = vmplants_dag::graph::zipf_dag(rank, "bench");
        let performed: PerformedLog = ["A", "B", "C", "P", "Q"]
            .iter()
            .map(|id| dag.action(id).expect("zipf action").clone())
            .collect();
        let img = w
            .publish(
                nfs,
                format!("zipf-{rank:04}"),
                format!("zipf golden {rank}"),
                VmSpec::mandrake(64),
                performed,
            )
            .expect("bench publish");
        img.files.all_paths().len()
    }

    let nfs_chunked = NfsServer::new("bench-chunked");
    let nfs_full = NfsServer::new("bench-fullcopy");
    let mut chunked = Warehouse::with_config(WarehouseConfig {
        dedup: true,
        capacity_bytes: None,
        replicate_after: None,
    });
    let mut fullcopy = Warehouse::with_config(WarehouseConfig {
        dedup: false,
        capacity_bytes: None,
        replicate_after: None,
    });

    for rank in 0..WAREHOUSE_GOLDENS - 1 {
        publish_rank(&mut chunked, &nfs_chunked, rank);
        publish_rank(&mut fullcopy, &nfs_full, rank);
    }
    // The marginal golden: how many new bytes one more prefix-sharing
    // golden actually adds to each store.
    let chunked_before = chunked.physical_footprint();
    let full_before = fullcopy.physical_footprint();
    let state_files = publish_rank(&mut chunked, &nfs_chunked, WAREHOUSE_GOLDENS - 1);
    publish_rank(&mut fullcopy, &nfs_full, WAREHOUSE_GOLDENS - 1);
    let private_bytes = chunked.physical_footprint() - chunked_before;
    let full_bytes = fullcopy.physical_footprint() - full_before;

    // Differential: dedup only changes the physical layout — the logical
    // content both stores serve is the same.
    assert_eq!(
        chunked.logical_footprint(),
        fullcopy.physical_footprint(),
        "chunk store and full-copy baseline disagree on logical content"
    );

    // Clone latency through the NFS transfer model: the full-copy path
    // moves the whole image; the chunked path moves only the private
    // chunks once the shared prefix is resident on the plant side.
    let full_copy_clone_s = nfs_chunked.estimate(full_bytes, state_files).as_secs_f64();
    let chunked_clone_s = nfs_chunked
        .estimate(private_bytes, state_files)
        .as_secs_f64();

    const GB: f64 = (1u64 << 30) as f64;
    const MB: f64 = (1u64 << 20) as f64;
    WarehouseNumbers {
        goldens: WAREHOUSE_GOLDENS,
        state_files,
        logical_gb: chunked.logical_footprint() as f64 / GB,
        physical_gb: chunked.physical_footprint() as f64 / GB,
        dedup_factor: chunked.dedup_factor(),
        private_mb_per_clone: private_bytes as f64 / MB,
        full_copy_clone_s,
        chunked_clone_s,
        clone_speedup: full_copy_clone_s / chunked_clone_s.max(1e-9),
    }
}

// ---------------------------------------------------------------------
// Hand-rolled JSON (the workspace is dependency-free).
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn render_json(
    quick: bool,
    seed: u64,
    kernel: &KernelNumbers,
    matching: &[MatchNumbers],
    at_scale: &[ScaleNumbers],
    experiments: &[ExperimentWall],
    obs: &ObsOverhead,
    journal: &JournalOverhead,
    scenario: &ScenarioNumbers,
    warehouse: &WarehouseNumbers,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"vmplants-bench-baseline/8\",\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    out.push_str("  \"kernel\": {\n");
    let _ = writeln!(out, "    \"events\": {},", kernel.events);
    let _ = writeln!(
        out,
        "    \"slab_events_per_sec\": {:.0}",
        kernel.slab_events_per_sec
    );
    out.push_str("  },\n");
    out.push_str("  \"matchmaking\": [\n");
    for (i, m) in matching.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"goldens\": {}, \"lookups\": {}, \"naive_matches_per_sec\": {:.1}, \"indexed_matches_per_sec\": {:.1}, \"speedup\": {:.3}",
            m.goldens, m.lookups, m.naive_per_sec, m.indexed_per_sec, m.speedup
        );
        out.push_str(if i + 1 < matching.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"matchmaking_at_scale\": [\n");
    for (i, m) in at_scale.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"ads\": {}, \"sampled\": {}, \"matches\": {}, \"tree_walk_rows_per_sec\": {:.0}",
            m.ads, m.sampled, m.matches, m.tree_rows_per_sec
        );
        out.push_str(if i + 1 < at_scale.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"experiments\": [\n");
    for (i, e) in experiments.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"name\": \"{}\", \"wall_s\": {:.3}", e.name, e.wall_s);
        out.push_str(if i + 1 < experiments.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"obs_overhead\": {\n");
    let _ = writeln!(out, "    \"requests\": {},", obs.requests);
    let _ = writeln!(out, "    \"spans\": {},", obs.spans);
    let _ = writeln!(out, "    \"disabled_wall_s\": {:.3},", obs.disabled_wall_s);
    let _ = writeln!(out, "    \"enabled_wall_s\": {:.3},", obs.enabled_wall_s);
    let _ = writeln!(out, "    \"overhead_percent\": {:.2}", obs.overhead_percent);
    out.push_str("  },\n");
    out.push_str("  \"journal_overhead\": {\n");
    let _ = writeln!(out, "    \"requests\": {},", journal.requests);
    let _ = writeln!(
        out,
        "    \"journal_on_wall_s\": {:.3},",
        journal.journal_on_wall_s
    );
    let _ = writeln!(
        out,
        "    \"journal_off_wall_s\": {:.3},",
        journal.journal_off_wall_s
    );
    let _ = writeln!(
        out,
        "    \"journaled_orders_per_sec\": {:.1},",
        journal.journaled_orders_per_sec
    );
    let _ = writeln!(
        out,
        "    \"raw_orders_per_sec\": {:.1},",
        journal.raw_orders_per_sec
    );
    let _ = writeln!(
        out,
        "    \"overhead_percent\": {:.2}",
        journal.overhead_percent
    );
    out.push_str("  },\n");
    out.push_str("  \"scenario\": {\n");
    let _ = writeln!(out, "    \"compiles\": {},", scenario.compiles);
    let _ = writeln!(
        out,
        "    \"compiles_per_sec\": {:.0},",
        scenario.compiles_per_sec
    );
    let _ = writeln!(out, "    \"sweep_cells\": {},", scenario.cells);
    let _ = writeln!(
        out,
        "    \"sweep_serial_wall_s\": {:.3},",
        scenario.sweep_serial_wall_s
    );
    let _ = writeln!(
        out,
        "    \"sweep_parallel_wall_s\": {:.3},",
        scenario.sweep_parallel_wall_s
    );
    let _ = writeln!(out, "    \"sweep_speedup\": {:.3}", scenario.speedup);
    out.push_str("  },\n");
    out.push_str("  \"warehouse\": {\n");
    let _ = writeln!(out, "    \"goldens\": {},", warehouse.goldens);
    let _ = writeln!(
        out,
        "    \"state_files_per_golden\": {},",
        warehouse.state_files
    );
    let _ = writeln!(out, "    \"logical_gb\": {:.1},", warehouse.logical_gb);
    let _ = writeln!(out, "    \"physical_gb\": {:.1},", warehouse.physical_gb);
    let _ = writeln!(out, "    \"dedup_factor\": {:.2},", warehouse.dedup_factor);
    let _ = writeln!(
        out,
        "    \"private_mb_per_clone\": {:.1},",
        warehouse.private_mb_per_clone
    );
    let _ = writeln!(
        out,
        "    \"full_copy_clone_s\": {:.1},",
        warehouse.full_copy_clone_s
    );
    let _ = writeln!(
        out,
        "    \"chunked_clone_s\": {:.1},",
        warehouse.chunked_clone_s
    );
    let _ = writeln!(out, "    \"clone_speedup\": {:.2}", warehouse.clone_speedup);
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

fn main() {
    let quick = flag("--quick");
    let check = flag("--check");
    let seed = seed_from_args();
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_vmplants.json".to_owned());
    let baseline_path =
        arg_value("--baseline").unwrap_or_else(|| "BENCH_vmplants.json".to_owned());
    let slack: f64 = arg_value("--slack")
        .map(|s| s.parse().expect("--slack takes a number"))
        .unwrap_or(1.0);

    eprintln!("[bench] kernel throughput ({})", if quick { "quick" } else { "full" });
    let kernel = bench_kernel(quick);
    eprintln!("[bench]   slab {:.0} ev/s", kernel.slab_events_per_sec);

    let mut matching = Vec::new();
    for goldens in [10usize, 100, 1000] {
        eprintln!("[bench] matchmaking at {goldens} goldens");
        let m = bench_matching(goldens, quick);
        eprintln!(
            "[bench]   naive {:.1}/s vs indexed {:.1}/s ({:.2}x)",
            m.naive_per_sec, m.indexed_per_sec, m.speedup
        );
        matching.push(m);
    }

    let mut at_scale = Vec::new();
    for ads in [10_000usize, 100_000, 1_000_000] {
        eprintln!("[bench] matchmaking at scale: {ads} ads");
        let m = bench_matchmaking_at_scale(ads, quick);
        eprintln!(
            "[bench]   tree walk {:.0} rows/s ({} of {} sampled ads match)",
            m.tree_rows_per_sec, m.matches, m.sampled
        );
        at_scale.push(m);
    }

    eprintln!("[bench] experiment wall times");
    let experiments = bench_experiments(seed, quick);
    for e in &experiments {
        eprintln!("[bench]   {} {:.2}s", e.name, e.wall_s);
    }

    eprintln!("[bench] observability overhead");
    let obs = bench_obs_overhead(seed, quick);
    eprintln!(
        "[bench]   disabled {:.3}s vs enabled {:.3}s over {} requests ({} spans, {:+.2}%)",
        obs.disabled_wall_s, obs.enabled_wall_s, obs.requests, obs.spans, obs.overhead_percent
    );

    eprintln!("[bench] journal overhead");
    let journal = bench_journal_overhead(seed, quick);
    eprintln!(
        "[bench]   journal on {:.1} orders/s vs off {:.1} orders/s over {} orders ({:+.2}%)",
        journal.journaled_orders_per_sec,
        journal.raw_orders_per_sec,
        journal.requests,
        journal.overhead_percent
    );

    eprintln!("[bench] scenario compile + sweep");
    let scenario = bench_scenario(quick);
    eprintln!(
        "[bench]   {:.0} compiles/s; {}-cell sweep serial {:.3}s vs parallel {:.3}s ({:.2}x)",
        scenario.compiles_per_sec,
        scenario.cells,
        scenario.sweep_serial_wall_s,
        scenario.sweep_parallel_wall_s,
        scenario.speedup
    );

    eprintln!("[bench] warehouse chunk dedup at {WAREHOUSE_GOLDENS} goldens");
    let warehouse = bench_warehouse_dedup();
    eprintln!(
        "[bench]   {:.1} GB logical in {:.1} GB physical ({:.2}x dedup); clone {:.1}s full-copy vs {:.1}s chunked ({:.2}x)",
        warehouse.logical_gb,
        warehouse.physical_gb,
        warehouse.dedup_factor,
        warehouse.full_copy_clone_s,
        warehouse.chunked_clone_s,
        warehouse.clone_speedup
    );

    let json = render_json(
        quick,
        seed,
        &kernel,
        &matching,
        &at_scale,
        &experiments,
        &obs,
        &journal,
        &scenario,
        &warehouse,
    );
    if check {
        let baseline_text =
            std::fs::read_to_string(&baseline_path).expect("read committed baseline");
        let baseline = vmplants_bench::check::parse(&baseline_text)
            .expect("committed baseline parses");
        let current = vmplants_bench::check::parse(&json).expect("fresh run parses");
        let (table, violations) = vmplants_bench::check::check(&baseline, &current, slack);
        print!("{table}");
        if violations.is_empty() {
            println!("bench gate: ok (slack {slack})");
        } else {
            for v in &violations {
                eprintln!("bench regression: {v}");
            }
            std::process::exit(1);
        }
        return;
    }
    std::fs::write(&out_path, &json).expect("write baseline json");
    println!("{json}");
    eprintln!("[bench] wrote {out_path}");
}
