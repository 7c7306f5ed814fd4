// Gated: requires the `proptest` dev-dependency, unavailable in
// network-restricted builds. Enable with `--features proptests` after
// restoring the dependency.
#![cfg(feature = "proptests")]

//! Property tests for the unreliable transport: across random fault
//! schedules (drop/dup/reorder probabilities, optional one-way
//! partitions, arbitrary seeds) the exactly-once invariant holds — at
//! most one live VM per order, no leaked leases or clones after
//! quiescence, and duplicated destroys are no-ops.

use proptest::prelude::*;
use vmplants::chaos::{run_chaos_with_site, ChaosConfig, OrderSpec};
use vmplants_plant::Plant;
use vmplants_shop::ShopError;
use vmplants_simkit::{FaultPlan, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn exactly_once_holds_under_random_fault_schedules(
        seed in 0u64..10_000,
        drop_p in 0.0f64..0.4,
        dup_p in 0.0f64..0.3,
        reorder_p in 0.0f64..0.4,
        partition in any::<bool>(),
    ) {
        let window = SimDuration::from_secs(30 * 86_400);
        let mut plan = FaultPlan::new()
            .message_loss_at(SimTime::ZERO, "shop", drop_p, window)
            .message_duplicate_at(SimTime::ZERO, "shop", dup_p, window)
            .message_reorder_at(SimTime::ZERO, "shop", reorder_p, window);
        if partition {
            plan = plan.partition_at(
                SimTime::from_secs(30),
                "shop->node2",
                SimDuration::from_secs(45),
            );
        }
        let (report, mut site) = run_chaos_with_site(&ChaosConfig {
            seed,
            schedule: OrderSpec::constant(6, SimDuration::from_secs(20), 64),
            plan,
            ..ChaosConfig::default()
        });

        // Every order settles: success or typed error, never a hang.
        prop_assert_eq!(report.hung_orders, 0);
        prop_assert_eq!(report.successes + report.errors.len(), report.requests);

        // At most one live VM per order, each resident on one plant.
        prop_assert_eq!(site.total_vms(), report.successes);
        let mut ids = Vec::new();
        for plant in &site.plants {
            ids.extend(plant.list_vms().unwrap_or_default());
        }
        let unique: std::collections::BTreeSet<_> = ids.iter().cloned().collect();
        prop_assert_eq!(unique.len(), ids.len(), "a VM id is resident twice");

        // Duplicated destroys are no-ops; cleanup reclaims everything.
        for id in &ids {
            prop_assert!(site.destroy_vm(id).is_ok());
            prop_assert!(matches!(
                site.destroy_vm(id),
                Err(ShopError::UnknownVm(_))
            ));
        }
        prop_assert_eq!(site.total_vms(), 0);
        let leases: usize = site.plants.iter().map(Plant::networks_in_use).sum();
        prop_assert_eq!(leases, 0, "network leases leaked");
    }
}
