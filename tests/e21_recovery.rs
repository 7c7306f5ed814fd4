//! E21 regression tests: the shop crash–recovery sweep is exactly-once
//! in every cell, fully deterministic (including the recovery trace in
//! the per-run chaos report), and its rendered report matches the
//! committed fixture. Bless deliberate changes with
//! `UPDATE_FIXTURES=1 cargo test`.

use vmplants::chaos::{run_chaos, ChaosConfig, OrderSpec};
use vmplants::experiments::{recovery_sweep, render_recovery_sweep, E21_SEED};
use vmplants_simkit::{FaultPlan, SimDuration, SimTime};

/// Every E21 cell holds the acceptance surface: success rate 1.00, zero
/// hangs, zero duplicate VMs, at least one incarnation, and latency
/// inflation bounded by the downtime plus the failover backoff.
#[test]
fn every_cell_is_exactly_once_with_bounded_inflation() {
    for row in recovery_sweep(E21_SEED) {
        let cell = format!("{}/crash@{}s/down {}s", row.load, row.crash_at_s, row.downtime_s);
        assert_eq!(row.success_rate, 1.0, "{cell}: orders were lost");
        assert_eq!(row.hung_orders, 0, "{cell}: orders hung");
        assert_eq!(row.duplicate_vms, 0, "{cell}: a crash forked a duplicate VM");
        assert_eq!(row.incarnations, 1, "{cell}: recovery did not run");
        // Bounded inflation: downtime, the client's capped backoff, and
        // the shop's retransmission ceiling — never an unbounded stall.
        let bound = row.downtime_s as f64 + 120.0 + 60.0;
        assert!(
            row.added_latency_s <= bound,
            "{cell}: latency inflation {:.1}s exceeds bound {bound:.1}s",
            row.added_latency_s
        );
    }
}

/// The E21 report renders byte-identically across two runs.
#[test]
fn e21_report_replays_byte_identically() {
    let first = render_recovery_sweep(&recovery_sweep(E21_SEED));
    let second = render_recovery_sweep(&recovery_sweep(E21_SEED));
    assert!(first.contains("E21"));
    assert_eq!(first, second, "E21 report diverged across runs");
}

/// The E21 report matches the committed fixture.
#[test]
fn e21_report_matches_committed_fixture() {
    let rendered = render_recovery_sweep(&recovery_sweep(E21_SEED));
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/e21_report.txt"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
        return;
    }
    let expected = include_str!("fixtures/e21_report.txt");
    assert_eq!(
        rendered, expected,
        "E21 report drifted; bless with UPDATE_FIXTURES=1 if intended"
    );
}

/// One crash cell's full chaos report — fault trace, recovery line, and
/// the complete envelope trace — replays byte-identically: recovery is
/// part of the deterministic surface, not an exception to it.
#[test]
fn crash_cell_full_render_is_byte_identical_including_recovery_trace() {
    let config = ChaosConfig {
        seed: E21_SEED,
        schedule: OrderSpec::constant(8, SimDuration::from_secs(30), 64),
        plan: FaultPlan::new().shop_crash_at(
            SimTime::from_secs(65),
            "shop",
            Some(SimDuration::from_secs(120)),
        ),
        ..ChaosConfig::default()
    };
    let first = run_chaos(&config).render_full();
    let second = run_chaos(&config).render_full();
    assert!(first.contains("shop recovery:"), "recovery line missing:\n{first}");
    assert_eq!(first, second, "crash-cell replay diverged");
}

/// A permanent shop crash (no downtime) fails every unsettled order
/// with a typed error once the failover client gives up — no hangs, no
/// duplicate VMs, and still byte-deterministic.
#[test]
fn permanent_crash_settles_every_order_without_hanging() {
    let config = ChaosConfig {
        seed: E21_SEED,
        schedule: OrderSpec::constant(8, SimDuration::from_secs(30), 64),
        plan: FaultPlan::new().shop_crash_at(SimTime::from_secs(65), "shop", None),
        ..ChaosConfig::default()
    };
    let report = run_chaos(&config);
    assert_eq!(report.hung_orders, 0, "orders hung under a permanent crash");
    assert_eq!(
        report.successes + report.errors.len(),
        report.requests,
        "some order settled without a success or typed error"
    );
    assert!(report.successes < report.requests, "the crash must bite");
    let recovery = &report.recovery;
    assert_eq!(recovery.incarnations, 0, "permanent means no recovery");
    assert_eq!(recovery.duplicate_vms, 0);
    let again = run_chaos(&config);
    assert_eq!(report.render_full(), again.render_full());
}
