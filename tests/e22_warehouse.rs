//! E22 regression tests: the content-addressed warehouse under Zipf
//! demand. The budget sweep is fully deterministic (serial and parallel
//! harnesses produce the same bytes), dedup is a pure storage
//! optimization (the differential oracle: same-seed chaos reports are
//! byte-identical with dedup on or off), and chunked publish
//! materializes state files byte-identical to the full-copy path.
//! Bless deliberate report changes with `UPDATE_FIXTURES=1 cargo test`.

use vmplants::chaos::{run_chaos, ChaosConfig};
use vmplants::experiments::{
    render_warehouse_sweep, warehouse_cell, warehouse_sweep, warehouse_sweep_quick,
    E22_BUDGETS_GB, E22_GOLDENS, E22_REQUESTS, E22_SEED,
};
use vmplants::scenario::{Scenario, Workload};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::PerformedLog;
use vmplants_simkit::{SimDuration, SimRng};
use vmplants_virt::VmSpec;
use vmplants_warehouse::{Warehouse, WarehouseConfig};

/// A compiled Zipf chaos config over `population` goldens, with the
/// given warehouse policy.
fn zipf_config(seed: u64, population: u32, requests: usize, warehouse: WarehouseConfig) -> ChaosConfig {
    let mut scenario =
        Scenario::constant("e22", seed, 1, SimDuration::from_secs(30), 64);
    scenario.workloads = vec![Workload::Zipf {
        requests,
        interval: SimDuration::from_secs(15),
        population,
        exponent: 1.1,
    }];
    let mut config = scenario.compile_with_seed(seed).expect("valid scenario");
    config.warehouse = warehouse;
    config
}

/// The E22 report matches the committed fixture, and every row holds the
/// warehouse-at-scale acceptance surface: nothing lost, ≥2× dedup at a
/// population above 100 DAG-distinct goldens, and the tightest budget
/// forced the eviction/re-derivation machinery to actually run.
#[test]
fn e22_report_matches_committed_fixture_and_acceptance_surface() {
    let rows = warehouse_sweep(E22_SEED);
    assert_eq!(rows.len(), E22_BUDGETS_GB.len());
    for row in &rows {
        let cell = format!("budget {}", row.budget);
        assert_eq!(row.success_rate, 1.0, "{cell}: orders were lost");
        assert_eq!(row.requests, E22_REQUESTS, "{cell}");
        assert!(
            row.dedup_factor >= 2.0,
            "{cell}: dedup factor {:.2} below the 2x floor over {} goldens",
            row.dedup_factor,
            E22_GOLDENS
        );
    }
    // Unbounded budget: everything stays resident, nothing re-derives.
    assert_eq!(rows[0].evictions, 0, "unbounded budget must not evict");
    assert_eq!(rows[0].rederives, 0);
    assert!((rows[0].hit_rate - 1.0).abs() < 1e-9);
    // The tightest budget bites: evictions happen, cold goldens come
    // back through re-derivation, and the hit rate drops below 1.
    let tightest = rows.last().unwrap();
    assert!(tightest.evictions > 0, "tight budget never evicted");
    assert!(tightest.rederives > 0, "no demand ever hit a cold golden");
    assert!(tightest.hit_rate < 1.0);
    // Cold starts cost latency: the tight-budget tail is slower than
    // the unbounded one.
    assert!(tightest.p99_latency_s > rows[0].p99_latency_s);
    // Hot goldens crossed the replication threshold in every cell.
    assert!(rows.iter().all(|r| r.replications > 0));
    // Shrinking budgets never increase the physical footprint.
    for pair in rows.windows(2) {
        assert!(
            pair[1].physical_gb <= pair[0].physical_gb + 1e-9,
            "footprint grew when the budget shrank: {} -> {}",
            pair[0].physical_gb,
            pair[1].physical_gb
        );
    }

    let rendered = render_warehouse_sweep(&rows);
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/e22_report.txt"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let expected = include_str!("fixtures/e22_report.txt");
    assert_eq!(
        rendered, expected,
        "E22 report drifted; bless with UPDATE_FIXTURES=1 if intended"
    );
}

/// Eviction and replication decisions are byte-identical whether the
/// budget cells run serially on one thread or through the parallel
/// harness — the sweep's determinism does not depend on scheduling.
#[test]
fn eviction_decisions_identical_serial_vs_parallel_harness() {
    let serial: Vec<_> = E22_BUDGETS_GB
        .iter()
        .map(|&b| warehouse_cell(E22_SEED, E22_GOLDENS, E22_REQUESTS, b))
        .collect();
    let parallel = warehouse_sweep(E22_SEED);
    assert_eq!(
        render_warehouse_sweep(&serial),
        render_warehouse_sweep(&parallel),
        "serial and parallel sweeps diverged"
    );
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.evictions, p.evictions);
        assert_eq!(s.rederives, p.rederives);
        assert_eq!(s.replications, p.replications);
    }
}

/// The differential oracle: chunk dedup is invisible to the simulation.
/// A same-seed Zipf chaos run must produce a byte-identical full report
/// (fault trace, latencies, envelope trace) with dedup on or off — the
/// chunk store may only change storage accounting, never timing.
#[test]
fn dedup_on_off_chaos_reports_are_byte_identical() {
    let on = zipf_config(
        E22_SEED,
        24,
        24,
        WarehouseConfig {
            dedup: true,
            capacity_bytes: None,
            replicate_after: None,
        },
    );
    let off = zipf_config(
        E22_SEED,
        24,
        24,
        WarehouseConfig {
            dedup: false,
            capacity_bytes: None,
            replicate_after: None,
        },
    );
    let a = run_chaos(&on).render_full();
    let b = run_chaos(&off).render_full();
    assert_eq!(a, b, "dedup changed observable behaviour");
}

/// Seeded property sweep: for random specs and random performed logs,
/// a chunked publish materializes every state file byte-identical (in
/// the simulated byte model: same kind, same resolved content size,
/// same text for text files) to the full-copy publish of the same
/// golden. 48 cases per run, fixed seed.
#[test]
fn chunked_publish_materializes_byte_identical_state_files() {
    let mut rng = SimRng::seed_from_u64(0xe22);
    for case in 0..48 {
        let memory_mb = [32u64, 64, 256][rng.uniform(0.0, 3.0) as usize % 3];
        let rank = rng.uniform(0.0, 8.0) as u32 % 8;
        let dag = vmplants_dag::graph::zipf_dag(rank, "prop");
        let prefix_len = rng.uniform(0.0, 6.0) as usize % 6;
        let performed: PerformedLog = ["A", "B", "C", "P", "Q"][..prefix_len]
            .iter()
            .map(|id| dag.action(id).expect("zipf action").clone())
            .collect();

        let nfs_dedup = NfsServer::new("storage");
        let nfs_full = NfsServer::new("storage");
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
        let id = format!("prop-{case}");
        let img = chunked
            .publish(&nfs_dedup, &id, "prop", VmSpec::mandrake(memory_mb), performed.clone())
            .expect("chunked publish");
        fullcopy
            .publish(&nfs_full, &id, "prop", VmSpec::mandrake(memory_mb), performed)
            .expect("full-copy publish");

        for path in img.files.all_paths() {
            let a = nfs_dedup.store.stat(path).expect("chunked file");
            let b = nfs_full.store.stat(path).expect("full-copy file");
            assert_eq!(a.kind, b.kind, "case {case}: kind mismatch at {path}");
            assert_eq!(
                nfs_dedup.store.resolved_size(path).unwrap(),
                nfs_full.store.resolved_size(path).unwrap(),
                "case {case}: content size mismatch at {path}"
            );
        }
        // The config file and descriptor are plain text either way.
        let list = nfs_full.store.list(&format!("/warehouse/{id}/"));
        for path in list {
            if let Ok(text) = nfs_full.store.read_text(&path) {
                assert_eq!(
                    nfs_dedup.store.read_text(&path).expect("text file"),
                    text,
                    "case {case}: text mismatch at {path}"
                );
            }
        }
    }
}

/// The quick E22 cell (the CI smoke) exercises the full machinery:
/// dedup, eviction, re-derivation, and replication all fire.
#[test]
fn quick_cell_exercises_the_whole_machinery() {
    let rows = warehouse_sweep_quick(E22_SEED);
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(row.success_rate, 1.0);
    assert!(row.dedup_factor >= 2.0);
    assert!(row.evictions > 0);
    assert!(row.rederives > 0);
    assert!(row.replications > 0);
    // Deterministic replay.
    assert_eq!(
        render_warehouse_sweep(&rows),
        render_warehouse_sweep(&warehouse_sweep_quick(E22_SEED))
    );
}

/// Publish zipf golden `rank` (the A→B→C base plus its private P, Q)
/// and return how many state files it has.
fn publish_zipf_golden(w: &mut Warehouse, nfs: &NfsServer, rank: u32) -> usize {
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
        .expect("publish");
    img.files.all_paths().len()
}

/// The chunk store's storage and clone-latency numbers at 120
/// prefix-sharing goldens, pinned exactly. One store dedups, one keeps
/// full copies; the 120th golden is the marginal one: the bytes it adds
/// to each store are what a clone of it moves once the shared prefix is
/// resident (chunked) or always (full copy), priced by the NFS model.
#[test]
fn dedup_and_clone_latency_at_120_goldens_are_pinned() {
    const GOLDENS: u32 = 120;
    const GB: f64 = (1u64 << 30) as f64;
    const MB: f64 = (1u64 << 20) as f64;
    let store = |dedup| {
        Warehouse::with_config(WarehouseConfig {
            dedup,
            capacity_bytes: None,
            replicate_after: None,
        })
    };
    let nfs_chunked = NfsServer::new("chunked");
    let nfs_full = NfsServer::new("fullcopy");
    let (mut chunked, mut fullcopy) = (store(true), store(false));
    for rank in 0..GOLDENS - 1 {
        publish_zipf_golden(&mut chunked, &nfs_chunked, rank);
        publish_zipf_golden(&mut fullcopy, &nfs_full, rank);
    }
    let chunked_before = chunked.physical_footprint();
    let full_before = fullcopy.physical_footprint();
    let state_files = publish_zipf_golden(&mut chunked, &nfs_chunked, GOLDENS - 1);
    publish_zipf_golden(&mut fullcopy, &nfs_full, GOLDENS - 1);
    let private_bytes = chunked.physical_footprint() - chunked_before;
    let full_bytes = fullcopy.physical_footprint() - full_before;

    // Dedup changes the physical layout only: both stores serve the same
    // logical content.
    assert_eq!(chunked.logical_footprint(), fullcopy.physical_footprint());

    let full_clone_s = nfs_chunked.estimate(full_bytes, state_files).as_secs_f64();
    let chunked_clone_s = nfs_chunked
        .estimate(private_bytes, state_files)
        .as_secs_f64();
    let measured = format!(
        "{state_files} state files; {:.1} GB logical in {:.1} GB physical ({:.2}x dedup); \
         {:.1} MB private per clone; clone {:.1} s full copy vs {:.1} s chunked ({:.2}x)",
        chunked.logical_footprint() as f64 / GB,
        chunked.physical_footprint() as f64 / GB,
        chunked.dedup_factor(),
        private_bytes as f64 / MB,
        full_clone_s,
        chunked_clone_s,
        full_clone_s / chunked_clone_s,
    );
    assert_eq!(
        measured,
        "19 state files; 249.4 GB logical in 41.1 GB physical (6.06x dedup); \
         336.0 MB private per clone; clone 218.5 s full copy vs 39.3 s chunked (5.56x)"
    );
}
