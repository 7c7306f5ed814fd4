//! Service discovery: publish / discover / bind (Figure 1).
//!
//! The paper delegates discovery to "standard mechanisms for dynamic or
//! static discovery (e.g. UDDI)" and explicitly scopes them out of the
//! design. This registry provides the same three verbs over in-process
//! plant handles so the rest of the system can exercise the flow.

use std::collections::BTreeMap;

use vmplants_plant::Plant;

/// The registry: a name → plant map.
#[derive(Clone, Default)]
pub struct Registry {
    plants: BTreeMap<String, Plant>,
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Registry {
        Registry::default()
    }

    /// Publish a plant under its own name.
    pub(crate) fn publish_plant(&mut self, plant: Plant) {
        self.plants.insert(plant.name().to_owned(), plant);
    }

    /// Discover all plants.
    pub(crate) fn discover_plants(&self) -> Vec<Plant> {
        self.plants.values().cloned().collect()
    }

    /// Bind to a plant by name.
    pub(crate) fn bind_plant(&self, name: &str) -> Option<Plant> {
        self.plants.get(name).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use vmplants_cluster::host::{Host, HostSpec};
    use vmplants_cluster::nfs::NfsServer;
    use vmplants_plant::{DomainDirectory, PlantConfig};
    use vmplants_simkit::SimRng;
    use vmplants_warehouse::Warehouse;

    fn plant(name: &str) -> Plant {
        let mut rng = SimRng::seed_from_u64(1);
        Plant::new(
            PlantConfig::new(name),
            Host::new(HostSpec::e1350_node(name)),
            NfsServer::new("s"),
            Rc::new(RefCell::new(Warehouse::new())),
            DomainDirectory::new(),
            &mut rng,
        )
    }

    #[test]
    fn publish_discover_bind_plants() {
        let mut r = Registry::new();
        r.publish_plant(plant("node0"));
        r.publish_plant(plant("node1"));
        assert_eq!(r.discover_plants().len(), 2);
        assert_eq!(r.bind_plant("node1").unwrap().name(), "node1");
        assert!(r.bind_plant("ghost").is_none());
    }
}
