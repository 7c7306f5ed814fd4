//! Determinism regression tests for the performance overhaul: the slab
//! kernel, the interned matchmaking path, and the parallel harness must
//! all leave same-seed runs byte-identical.

use vmplants::chaos::{run_chaos, run_chaos_with_obs, ChaosConfig, OrderSpec};
use vmplants::experiments::{fig4, run_creation_experiment};
use vmplants::parallel::run_ordered;
use vmplants_shop::ShopTuning;
use vmplants_simkit::{FaultPlan, Obs, SimDuration, SimTime};

fn storm_config() -> ChaosConfig {
    ChaosConfig {
        seed: 7,
        schedule: OrderSpec::constant(8, SimDuration::from_secs(20), 64),
        plan: FaultPlan::new()
            .host_reboot_at(SimTime::from_secs(15), "node0", SimDuration::from_secs(60))
            .host_crash_at(SimTime::from_secs(70), "node1")
            .nfs_degraded_at(
                SimTime::from_secs(30),
                "storage",
                0.25,
                SimDuration::from_secs(60),
            )
            .nfs_outage_at(SimTime::from_secs(120), "storage", SimDuration::from_secs(20))
            .message_loss_at(
                SimTime::from_secs(160),
                "shop",
                0.5,
                SimDuration::from_secs(40),
            ),
        tuning: ShopTuning {
            attempt_timeout: SimDuration::from_secs(120),
            ..ShopTuning::default()
        },
        ..ChaosConfig::default()
    }
}

/// The chaos storm renders byte-identically across two same-seed runs —
/// the slab kernel's (time, seq) ordering is exactly the old kernel's.
#[test]
fn chaos_storm_replays_byte_identically() {
    let config = storm_config();
    let first = run_chaos(&config).render();
    let second = run_chaos(&config).render();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same-seed chaos runs diverged");
}

/// A transport-heavy storm: whole-run drop/dup/reorder windows plus a
/// one-way partition, pinned to seed 42 for the committed fixture.
fn transport_storm_config() -> ChaosConfig {
    let window = SimDuration::from_secs(30 * 86_400);
    ChaosConfig {
        seed: 42,
        schedule: OrderSpec::constant(12, SimDuration::from_secs(20), 64),
        plan: FaultPlan::new()
            .message_loss_at(SimTime::ZERO, "shop", 0.3, window)
            .message_duplicate_at(SimTime::ZERO, "shop", 0.2, window)
            .message_reorder_at(SimTime::ZERO, "shop", 0.3, window)
            .partition_at(
                SimTime::from_secs(100),
                "shop->node2",
                SimDuration::from_secs(30),
            ),
        ..ChaosConfig::default()
    }
}

/// The transport storm — fault trace, report, and full envelope trace —
/// is byte-identical across two same-seed runs.
#[test]
fn transport_chaos_replays_byte_identically() {
    let config = transport_storm_config();
    let first = run_chaos(&config).render_full();
    let second = run_chaos(&config).render_full();
    assert!(first.contains("envelope trace:"));
    assert!(
        first.lines().count() > 30,
        "envelope trace suspiciously short:\n{first}"
    );
    assert_eq!(first, second, "same-seed transport storms diverged");
}

/// The pinned-seed transport storm matches the committed fixture, so
/// any cross-version drift in the envelope trace is caught in CI.
/// Bless a deliberate change with `UPDATE_FIXTURES=1 cargo test`.
#[test]
fn transport_chaos_matches_committed_fixture() {
    let rendered = run_chaos(&transport_storm_config()).render_full();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/chaos_transport_seed42.txt"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let expected = include_str!("fixtures/chaos_transport_seed42.txt");
    assert_eq!(
        rendered, expected,
        "chaos transport fixture drifted; bless with UPDATE_FIXTURES=1 if intended"
    );
}

/// Tracing the transport storm changes nothing observable: the chaos
/// report renders byte-identically whether the obs sink is enabled or
/// disabled. Instrumentation records already-known timestamps and never
/// draws from the RNG or schedules events.
#[test]
fn tracing_does_not_perturb_the_run() {
    let config = transport_storm_config();
    let untraced = run_chaos(&config).render_full();
    let (report, _site) = run_chaos_with_obs(&config, Obs::enabled());
    assert_eq!(
        untraced,
        report.render_full(),
        "enabling tracing changed the simulation"
    );
}

/// The trace and metrics exports themselves replay byte-identically
/// across two same-seed traced runs.
#[test]
fn trace_and_metrics_replay_byte_identically() {
    let config = transport_storm_config();
    let (_, first) = run_chaos_with_obs(&config, Obs::enabled());
    let (_, second) = run_chaos_with_obs(&config, Obs::enabled());
    assert!(first.obs.span_count() > 0, "traced run recorded no spans");
    assert_eq!(
        first.obs.trace_jsonl(),
        second.obs.trace_jsonl(),
        "same-seed traces diverged"
    );
    assert_eq!(
        first.obs.metrics_text(),
        second.obs.metrics_text(),
        "same-seed metrics snapshots diverged"
    );
}

/// The pinned-seed transport storm's JSONL trace matches the committed
/// fixture — span layout drift (new phases, renamed spans, reordered
/// events) is caught in CI, not just aggregate counters. Bless a
/// deliberate change with `UPDATE_FIXTURES=1 cargo test`.
#[test]
fn transport_chaos_trace_matches_committed_fixture() {
    let (_, site) = run_chaos_with_obs(&transport_storm_config(), Obs::enabled());
    let rendered = site.obs.trace_jsonl();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/chaos_transport_seed42_trace.jsonl"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let expected = include_str!("fixtures/chaos_transport_seed42_trace.jsonl");
    assert_eq!(
        rendered, expected,
        "chaos trace fixture drifted; bless with UPDATE_FIXTURES=1 if intended"
    );
}

/// FNV-1a 64 of an export: pins it byte for byte without a fixture file.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Chrome export of a traced chaos run and both flight-recorder
/// exports match pinned digests. Six of eight hosts crash under a
/// three-plant floor, so the flight recorder holds both slowest and
/// failed traces.
#[test]
fn trace_exports_match_pinned_digests() {
    let mut plan = FaultPlan::new();
    for i in 0..6u64 {
        plan = plan.host_crash_at(SimTime::from_secs(10 * (i + 1)), format!("node{i}"));
    }
    let config = ChaosConfig {
        seed: 11,
        schedule: OrderSpec::constant(6, SimDuration::from_secs(15), 64),
        plan,
        tuning: ShopTuning {
            min_live_plants: 3,
            ..ShopTuning::default()
        },
        ..ChaosConfig::default()
    };
    let (_, site) = run_chaos_with_obs(&config, Obs::enabled());
    let flight = site.obs.flight_recorder();
    assert!(!flight.slowest.is_empty() && !flight.failed.is_empty());
    let exports = [
        ("Obs::chrome_trace", site.obs.chrome_trace()),
        ("FlightRecorder::to_jsonl", flight.to_jsonl()),
        ("FlightRecorder::chrome_trace", flight.chrome_trace()),
    ];
    let digests: Vec<(&str, usize, u64)> = exports
        .iter()
        .map(|(what, text)| (*what, text.len(), fnv1a64(text)))
        .collect();
    assert_eq!(
        digests,
        vec![
            ("Obs::chrome_trace", 6797, 6943395547823575562),
            ("FlightRecorder::to_jsonl", 6751, 8773768836721782321),
            ("FlightRecorder::chrome_trace", 4956, 2967098453569845566),
        ]
    );
}

fn fig4_text(runs: &[vmplants::experiments::CreationRun]) -> String {
    let mut out = String::new();
    for (mem, h) in fig4(runs) {
        out.push_str(&h.render(&format!("{mem} MB golden")));
    }
    out
}

/// A Figure-4-shaped report is byte-identical across two same-seed runs.
#[test]
fn fig4_report_replays_byte_identically() {
    let sizes = [(32u64, 12usize, 0u64), (64, 12, 1), (256, 6, 2)];
    let runs = |seed: u64| -> Vec<_> {
        sizes
            .iter()
            .map(|&(mem, n, off)| run_creation_experiment(mem, n, seed + off))
            .collect()
    };
    let first = fig4_text(&runs(2004));
    let second = fig4_text(&runs(2004));
    assert!(first.contains("MB golden"));
    assert_eq!(first, second, "same-seed fig4 reports diverged");
}

/// The parallel harness produces the same bytes as the serial sweep it
/// replaces: results are merged in seed order, never completion order.
#[test]
fn parallel_sweep_renders_identically_to_serial() {
    let sizes = [(32u64, 12usize, 0u64), (64, 12, 1), (256, 6, 2)];
    let serial: Vec<_> = sizes
        .iter()
        .map(|&(mem, n, off)| run_creation_experiment(mem, n, 2004 + off))
        .collect();
    let parallel = run_ordered(
        sizes
            .iter()
            .map(|&(mem, n, off)| move || run_creation_experiment(mem, n, 2004 + off))
            .collect(),
    );
    assert_eq!(
        fig4_text(&serial),
        fig4_text(&parallel),
        "parallel harness changed the rendered report"
    );
}
