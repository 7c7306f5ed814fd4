//! Exactly-once acceptance tests for the unreliable shop↔plant
//! transport: under heavy drop/dup/reorder windows every order settles
//! exactly once (success or typed error), no VM is ever materialized
//! twice, duplicated destroys are no-ops, all resources are reclaimed,
//! and the whole storm replays byte-identically per seed.

use vmplants::chaos::{run_chaos, run_chaos_with_site, ChaosConfig, OrderSpec};
use vmplants_plant::Plant;
use vmplants_shop::ShopError;
use vmplants_simkit::{FaultPlan, SimDuration, SimRng, SimTime};

/// Whole-run drop 0.3 + dup 0.2 + reorder 0.3 windows on every
/// shop↔plant link.
fn storm_plan() -> FaultPlan {
    let window = SimDuration::from_secs(30 * 86_400);
    FaultPlan::new()
        .message_loss_at(SimTime::ZERO, "shop", 0.3, window)
        .message_duplicate_at(SimTime::ZERO, "shop", 0.2, window)
        .message_reorder_at(SimTime::ZERO, "shop", 0.3, window)
}

fn storm_config(seed: u64, requests: usize) -> ChaosConfig {
    ChaosConfig {
        seed,
        schedule: OrderSpec::constant(requests, SimDuration::from_secs(20), 64),
        plan: storm_plan(),
        ..ChaosConfig::default()
    }
}

/// The ISSUE acceptance scenario: 50 orders under drop p=0.3, dup
/// p=0.2, reorder p=0.3. Every order settles (no hangs), each
/// successful order produced exactly one live VM on exactly one plant,
/// duplicate destroys are no-ops, and after cleanup the site holds zero
/// VMs and zero network leases.
#[test]
fn fifty_orders_survive_the_transport_storm_exactly_once() {
    let config = storm_config(42, 50);
    let (report, mut site) = run_chaos_with_site(&config);

    // Every order settled: success or a typed error, never a hang.
    assert_eq!(report.hung_orders, 0, "orders hung under the storm");
    assert_eq!(report.requests, 50);

    // The storm actually bit: messages were dropped and duplicated.
    assert!(report.transport.dropped > 0, "no drops: {}", report.transport);
    assert!(
        report.transport.duplicated > 0,
        "no dups: {}",
        report.transport
    );

    // Exactly-once effect: one live VM per successful order, and no VM
    // id is resident on more than one plant.
    assert_eq!(
        site.total_vms(),
        report.successes,
        "live VMs diverge from settled successes (duplicate or leaked creates)"
    );
    let mut seen = std::collections::BTreeSet::new();
    for plant in &site.plants {
        for id in plant.list_vms().unwrap_or_default() {
            assert!(seen.insert(id.clone()), "vm {id:?} is resident on two plants");
        }
    }

    // Destroy everything; a second destroy of the same id is a typed
    // no-op, not a second effect.
    let ids: Vec<_> = seen.into_iter().collect();
    for id in &ids {
        site.destroy_vm(id).expect("first destroy succeeds");
        match site.destroy_vm(id) {
            Err(ShopError::UnknownVm(_)) => {}
            other => panic!("duplicate destroy was not a no-op: {other:?}"),
        }
    }

    // All resources reclaimed: no VMs, no leaked network leases.
    assert_eq!(site.total_vms(), 0);
    let leases: usize = site.plants.iter().map(Plant::networks_in_use).sum();
    assert_eq!(leases, 0, "network leases leaked after cleanup");
}

/// The storm replays byte-identically — fault trace, report, and the
/// full envelope trace included.
#[test]
fn transport_storm_replays_byte_identically() {
    let config = storm_config(42, 50);
    let first = run_chaos(&config).render_full();
    let second = run_chaos(&config).render_full();
    assert!(first.contains("envelope trace:"));
    assert_eq!(first, second, "same-seed storm runs diverged");
}

/// The exactly-once invariants hold across seeds and fault schedules: the
/// storm plan under four more seeds, then twelve schedules whose drop, dup
/// and reorder probabilities, one-way partition and seed are drawn from a
/// seeded generator. Every order settles, each success is one VM resident
/// on one plant, duplicate destroys are no-ops, and cleanup reclaims every
/// lease.
#[test]
fn storm_invariants_hold_across_seeds() {
    let mut configs: Vec<ChaosConfig> =
        [1, 2, 3, 99].iter().map(|&seed| storm_config(seed, 10)).collect();
    let mut rng = SimRng::seed_from_u64(2004);
    let window = SimDuration::from_secs(30 * 86_400);
    for _ in 0..12 {
        let mut plan = FaultPlan::new()
            .message_loss_at(SimTime::ZERO, "shop", rng.uniform(0.0, 0.4), window)
            .message_duplicate_at(SimTime::ZERO, "shop", rng.uniform(0.0, 0.3), window)
            .message_reorder_at(SimTime::ZERO, "shop", rng.uniform(0.0, 0.4), window);
        if rng.chance(0.5) {
            plan = plan.partition_at(
                SimTime::from_secs(30),
                "shop->node2",
                SimDuration::from_secs(45),
            );
        }
        configs.push(ChaosConfig {
            seed: rng.uniform_u64(0, 9_999),
            schedule: OrderSpec::constant(6, SimDuration::from_secs(20), 64),
            plan,
            ..ChaosConfig::default()
        });
    }
    for (case, config) in configs.iter().enumerate() {
        let ctx = format!("case {case}, seed {}", config.seed);
        let (report, mut site) = run_chaos_with_site(config);
        assert_eq!(report.hung_orders, 0, "{ctx}: orders hung");
        assert_eq!(
            report.successes + report.errors.len(),
            report.requests,
            "{ctx}: some order settled without a success or typed error"
        );
        assert_eq!(
            site.total_vms(),
            report.successes,
            "{ctx}: VM count diverges from successes"
        );
        let mut ids = std::collections::BTreeSet::new();
        for plant in &site.plants {
            for id in plant.list_vms().unwrap_or_default() {
                assert!(ids.insert(id.clone()), "{ctx}: vm {id:?} is resident twice");
            }
        }
        for id in &ids {
            assert!(site.destroy_vm(id).is_ok(), "{ctx}: first destroy of {id:?}");
            assert!(
                matches!(site.destroy_vm(id), Err(ShopError::UnknownVm(_))),
                "{ctx}: duplicate destroy of {id:?} was not a no-op"
            );
        }
        assert_eq!(site.total_vms(), 0, "{ctx}");
        let leases: usize = site.plants.iter().map(Plant::networks_in_use).sum();
        assert_eq!(leases, 0, "{ctx}: network leases leaked");
    }
}
