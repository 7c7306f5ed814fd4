//! The bid-collection protocol (§3.1, §3.4).
//!
//! "VMShop is responsible for selecting a VMPlant for the creation of a
//! virtual machine. This process is implemented through a communication
//! API and a binding protocol that allows VMShop to request and collect
//! bids containing estimated VM creation costs from VMPlants (directly,
//! or indirectly through VMBrokers)."

use std::rc::Rc;

use vmplants_plant::{Plant, ProductionOrder};
use vmplants_simkit::SimRng;

/// One plant's bid for a creation request.
#[derive(Clone)]
pub struct Bid {
    /// The bidding plant.
    pub plant: Plant,
    /// Its estimated creation cost (lower wins).
    pub cost: f64,
}

impl std::fmt::Debug for Bid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bid")
            .field("plant", &self.plant.name())
            .field("cost", &self.cost)
            .finish()
    }
}

/// A VMBroker: an aggregation point that collects bids from a set of
/// plants on the shop's behalf (the "indirectly through VMBrokers" path).
#[derive(Clone, Default)]
pub struct VmBroker {
    plants: Vec<Plant>,
}

impl VmBroker {
    /// A broker fronting the given plants.
    pub fn new(plants: Vec<Plant>) -> VmBroker {
        VmBroker { plants }
    }

    /// Plants this broker fronts.
    pub(crate) fn plants(&self) -> &[Plant] {
        &self.plants
    }
}

/// Collect bids from a set of plants, skipping failures.
pub fn collect_bids(plants: &[Plant], order: &ProductionOrder) -> Vec<Bid> {
    plants
        .iter()
        .filter_map(|plant| {
            plant.estimate(order).ok().map(|cost| Bid {
                plant: plant.clone(),
                cost,
            })
        })
        .collect()
}

/// Select the winning bid: lowest cost, ties broken uniformly at random
/// ("The VMShop picks one plant at random", §3.4). `exclude` filters out
/// plants that already failed this request (re-bid path).
pub fn select_bid(bids: &[Bid], exclude: &[Rc<str>], rng: &mut SimRng) -> Option<Bid> {
    let eligible: Vec<&Bid> = bids
        .iter()
        .filter(|b| !exclude.iter().any(|name| **name == *b.plant.name()))
        .collect();
    let min_cost = eligible
        .iter()
        .map(|b| b.cost)
        .fold(f64::INFINITY, f64::min);
    if !min_cost.is_finite() {
        return None;
    }
    // Tolerate float noise in "equal" bids.
    let winners: Vec<&&Bid> = eligible
        .iter()
        .filter(|b| (b.cost - min_cost).abs() < 1e-9)
        .collect();
    let pick = rng.index(winners.len());
    Some((*winners[pick]).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use vmplants_cluster::host::{Host, HostSpec};
    use vmplants_cluster::nfs::NfsServer;
    use vmplants_dag::ConfigDag;
    use vmplants_plant::{CostModel, DomainDirectory, PlantConfig};
    use vmplants_virt::VmSpec;
    use vmplants_warehouse::Warehouse;

    fn plant(name: &str, model: CostModel) -> Plant {
        let mut rng = SimRng::seed_from_u64(1);
        Plant::new(
            PlantConfig {
                cost_model: model,
                ..PlantConfig::new(name)
            },
            Host::new(HostSpec::e1350_node(name)),
            NfsServer::new("s"),
            Rc::new(RefCell::new(Warehouse::new())),
            DomainDirectory::new(),
            &mut rng,
        )
    }

    fn order() -> ProductionOrder {
        ProductionOrder::new(VmSpec::mandrake(64), ConfigDag::new(), "ufl.edu")
    }

    #[test]
    fn collects_from_live_plants_only() {
        let a = plant("a", CostModel::FreeMemoryPrototype);
        let b = plant("b", CostModel::FreeMemoryPrototype);
        b.fail();
        let bids = collect_bids(&[a, b], &order());
        assert_eq!(bids.len(), 1);
        assert_eq!(bids[0].plant.name(), "a");
    }

    #[test]
    fn lowest_cost_wins() {
        let a = plant("a", CostModel::FreeMemoryPrototype);
        let b = plant("b", CostModel::FreeMemoryPrototype);
        a.host().register_vm(256);
        let bids = collect_bids(&[a, b], &order());
        let mut rng = SimRng::seed_from_u64(3);
        let winner = select_bid(&bids, &[], &mut rng).unwrap();
        assert_eq!(winner.plant.name(), "b");
    }

    #[test]
    fn ties_break_randomly_but_cover_both() {
        let a = plant("a", CostModel::FreeMemoryPrototype);
        let b = plant("b", CostModel::FreeMemoryPrototype);
        let bids = collect_bids(&[a, b], &order());
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(
                select_bid(&bids, &[], &mut rng)
                    .unwrap()
                    .plant
                    .shared_name(),
            );
        }
        assert_eq!(seen.len(), 2, "both tied plants get picked eventually");
    }

    #[test]
    fn exclusion_supports_rebidding() {
        let a = plant("a", CostModel::FreeMemoryPrototype);
        let b = plant("b", CostModel::FreeMemoryPrototype);
        b.host().register_vm(64);
        let bids = collect_bids(&[a, b], &order());
        let mut rng = SimRng::seed_from_u64(5);
        // a would win, but has already failed this request.
        let winner = select_bid(&bids, &["a".into()], &mut rng).unwrap();
        assert_eq!(winner.plant.name(), "b");
        // Excluding everyone yields no winner.
        assert!(select_bid(&bids, &["a".into(), "b".into()], &mut rng).is_none());
        assert!(select_bid(&[], &[], &mut rng).is_none());
    }

    #[test]
    fn broker_fronts_its_plants() {
        let a = plant("a", CostModel::FreeMemoryPrototype);
        let b = plant("b", CostModel::FreeMemoryPrototype);
        let broker = VmBroker::new(vec![a, b]);
        assert_eq!(broker.plants().len(), 2);
        assert_eq!(collect_bids(broker.plants(), &order()).len(), 2);
    }
}
