//! Service discovery: publish / discover / bind (Figure 1).
//!
//! The paper delegates discovery to "standard mechanisms for dynamic or
//! static discovery (e.g. UDDI)" and explicitly scopes them out of the
//! design. This registry provides the same three verbs over in-process
//! handles so the rest of the system can exercise the flow.

use std::collections::BTreeMap;

use vmplants_plant::Plant;

/// A published service entry.
#[derive(Clone)]
pub enum ServiceEntry {
    /// A VMPlant, bound by handle.
    Plant(Plant),
    /// A named endpoint of some other kind (shops, vnet services) —
    /// carried as an opaque location string, as a WSDL document would.
    Endpoint {
        /// Service kind tag (e.g. `"vmshop"`).
        kind: String,
        /// Location descriptor.
        location: String,
    },
}

/// The registry: a name → service map.
#[derive(Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, ServiceEntry>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Publish a plant under its own name.
    pub fn publish_plant(&mut self, plant: Plant) {
        self.entries
            .insert(plant.name().to_owned(), ServiceEntry::Plant(plant));
    }

    /// Publish a generic endpoint.
    pub fn publish_endpoint(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<String>,
        location: impl Into<String>,
    ) {
        self.entries.insert(
            name.into(),
            ServiceEntry::Endpoint {
                kind: kind.into(),
                location: location.into(),
            },
        );
    }

    /// Withdraw a published service. Returns `true` if it existed.
    pub fn withdraw(&mut self, name: &str) -> bool {
        self.entries.remove(name).is_some()
    }

    /// Discover all plants.
    pub fn discover_plants(&self) -> Vec<Plant> {
        self.entries
            .values()
            .filter_map(|e| match e {
                ServiceEntry::Plant(p) => Some(p.clone()),
                ServiceEntry::Endpoint { .. } => None,
            })
            .collect()
    }

    /// Discover endpoints of a given kind, as `(name, location)`.
    pub fn discover_endpoints(&self, kind: &str) -> Vec<(String, String)> {
        self.entries
            .iter()
            .filter_map(|(name, e)| match e {
                ServiceEntry::Endpoint { kind: k, location } if k == kind => {
                    Some((name.clone(), location.clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Bind to a plant by name.
    pub fn bind_plant(&self, name: &str) -> Option<Plant> {
        match self.entries.get(name) {
            Some(ServiceEntry::Plant(p)) => Some(p.clone()),
            _ => None,
        }
    }

    /// Number of published services.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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

    #[test]
    fn withdraw_removes() {
        let mut r = Registry::new();
        r.publish_plant(plant("node0"));
        assert!(r.withdraw("node0"));
        assert!(!r.withdraw("node0"));
        assert!(r.is_empty());
    }

    #[test]
    fn endpoints_filter_by_kind() {
        let mut r = Registry::new();
        r.publish_endpoint("shop-front", "vmshop", "tcp://gw:9000");
        r.publish_endpoint("vnet-svc", "vnet", "tcp://gw:9400");
        r.publish_plant(plant("node0"));
        let shops = r.discover_endpoints("vmshop");
        assert_eq!(shops, vec![("shop-front".to_owned(), "tcp://gw:9000".to_owned())]);
        assert_eq!(r.len(), 3);
        // Binding an endpoint name as a plant fails cleanly.
        assert!(r.bind_plant("shop-front").is_none());
    }
}
