//! Bidding cost models.
//!
//! §3.1: VMShop "requests and collects bids containing estimated VM
//! creation costs from VMPlants … Costs are generically represented as
//! numbers; a variety of models can be conceived". Two concrete models are
//! described and both are implemented:
//!
//! * [`CostModel::FreeMemoryPrototype`] — §4.1: "the bidding protocol uses
//!   a cost model that is based on the amount of host memory available for
//!   cloned VMs". Cost = memory already committed (so the plant with the
//!   most free memory bids lowest), which spreads a homogeneous request
//!   stream evenly across plants — the behaviour behind Figures 4–6.
//! * [`CostModel::NetworkAndCompute`] — the §3.4 model: a one-time
//!   "network cost" charged only when the client domain needs a fresh
//!   host-only network on this plant, plus a "compute cycles cost"
//!   proportional to the number of VMs already operating.

use vmplants_cluster::host::Host;
use vmplants_vnet::VirtualNetworkService;

/// §3.4's worked example uses a network cost of 50 …
pub const EXAMPLE_NETWORK_COST: f64 = 50.0;
/// … and a compute cost of 4 per resident VM.
pub const EXAMPLE_COMPUTE_PER_VM: f64 = 4.0;

/// A plant's bidding cost model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CostModel {
    /// Cost = MB of host memory already committed to VMs.
    FreeMemoryPrototype,
    /// Every plant bids the same constant, so VMShop's random tie-break
    /// produces uniform-random placement — the "no cost model" baseline
    /// used by the cost-model ablation (E13).
    Uniform,
    /// Cost = `network_cost`·(fresh network needed) + `compute_per_vm`·VMs.
    NetworkAndCompute {
        /// One-time charge for allocating a host-only network to a new
        /// client domain.
        network_cost: f64,
        /// Charge per VM already operating on the plant.
        compute_per_vm: f64,
    },
}

impl CostModel {
    /// The §3.4 worked-example parameterization (50 / 4).
    pub fn section_3_4_example() -> CostModel {
        CostModel::NetworkAndCompute {
            network_cost: EXAMPLE_NETWORK_COST,
            compute_per_vm: EXAMPLE_COMPUTE_PER_VM,
        }
    }

    /// Estimate the cost of creating one VM for `client_domain` on a plant
    /// with the given host and network service.
    pub(crate) fn estimate(&self, host: &Host, net: &VirtualNetworkService, client_domain: &str) -> f64 {
        match *self {
            CostModel::FreeMemoryPrototype => host.committed_mb() as f64,
            CostModel::Uniform => 1.0,
            CostModel::NetworkAndCompute {
                network_cost,
                compute_per_vm,
            } => {
                let net = if net.needs_new_network(client_domain) {
                    network_cost
                } else {
                    0.0
                };
                net + compute_per_vm * host.vm_count() as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::host::HostSpec;
    use vmplants_vnet::{DomainDirectory, ProxyEndpoint, Reachability};

    fn host() -> Host {
        Host::new(HostSpec::e1350_node("node0"))
    }

    fn service() -> VirtualNetworkService {
        let reach = Reachability::Direct { port: 9400 };
        VirtualNetworkService::new(4, reach, DomainDirectory::new())
    }

    fn attach(net: &mut VirtualNetworkService, domain: &str) {
        let proxy = ProxyEndpoint::new(domain, format!("proxy.{domain}"), 9300);
        net.attach(domain, &proxy).unwrap();
    }

    #[test]
    fn prototype_model_tracks_committed_memory() {
        let h = host();
        let net = service();
        let m = CostModel::FreeMemoryPrototype;
        assert_eq!(m.estimate(&h, &net, "d"), 0.0);
        h.register_vm(64);
        assert_eq!(m.estimate(&h, &net, "d"), 88.0); // 64 + 24 overhead
        h.register_vm(64);
        assert_eq!(m.estimate(&h, &net, "d"), 176.0);
    }

    #[test]
    fn section_3_4_walkthrough() {
        // Reproduce the §3.4 narrative: empty plant bids 50 (network), a
        // plant already serving the domain bids 4 per VM.
        let h = host();
        let mut net = service();
        let m = CostModel::section_3_4_example();
        assert_eq!(m.estimate(&h, &net, "client"), 50.0);
        // First VM created here: network allocated, VM registered.
        attach(&mut net, "client");
        h.register_vm(64);
        assert_eq!(m.estimate(&h, &net, "client"), 4.0);
        // After 12 VMs the cost is 48, still under a rival's 50; after 13
        // it is 52 and the rival wins — the paper's crossover.
        for _ in 1..13 {
            attach(&mut net, "client");
            h.register_vm(64);
        }
        assert_eq!(m.estimate(&h, &net, "client"), 52.0);
        let rival_host = host();
        let rival_net = service();
        assert_eq!(m.estimate(&rival_host, &rival_net, "client"), 50.0);
        assert!(m.estimate(&rival_host, &rival_net, "client") < m.estimate(&h, &net, "client"));
    }

    #[test]
    fn uniform_model_is_load_blind() {
        let h = host();
        let net = service();
        let m = CostModel::Uniform;
        assert_eq!(m.estimate(&h, &net, "d"), 1.0);
        h.register_vm(1024);
        assert_eq!(m.estimate(&h, &net, "d"), 1.0);
    }

    #[test]
    fn different_domain_pays_network_cost_even_on_busy_plant() {
        let h = host();
        let mut net = service();
        let m = CostModel::section_3_4_example();
        attach(&mut net, "tenant-a");
        h.register_vm(64);
        assert_eq!(m.estimate(&h, &net, "tenant-a"), 4.0);
        assert_eq!(m.estimate(&h, &net, "tenant-b"), 54.0);
    }
}
