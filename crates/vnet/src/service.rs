//! The virtual network service.
//!
//! §3.3: "The necessary requirements for virtual networking can be
//! encapsulated behind a virtual network service." Each plant owns one
//! service over its host-only pool and VNET bridge; every service of a
//! site shares one [`DomainDirectory`], since IP addresses belong to client
//! domains. The service is the only code that leases or releases a VM's
//! network, in two layers:
//!
//! * [`attach`](VirtualNetworkService::attach) /
//!   [`detach`](VirtualNetworkService::detach) — the host-only network and
//!   its bridge only (a migrated VM keeps its IP and MAC);
//! * [`lease`](VirtualNetworkService::lease) /
//!   [`release`](VirtualNetworkService::release) — the same plus a
//!   client-domain IP and MAC.

use std::net::Ipv4Addr;

use crate::bridge::{Bridge, BridgeError, ProxyEndpoint, Reachability, VnetBridge};
use crate::domains::DomainDirectory;
use crate::ip::{IpError, MacAddr};
use crate::pool::{HostOnlyPool, NetworkId, PoolError};

/// Everything networking-related a VM holds on its plant.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkLease {
    /// The client domain the VM belongs to.
    pub domain: String,
    /// The host-only network the VM's NIC joins.
    pub network: NetworkId,
    /// Whether the network was freshly allocated to the domain (this is
    /// the event §3.4's cost function charges for).
    pub fresh_network: bool,
    /// The client-domain IP assigned to the VM.
    pub ip: Ipv4Addr,
    /// The generated MAC address.
    pub mac: MacAddr,
}

/// Service failures.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The client domain has no registered IP allocator.
    UnknownDomain(String),
    /// Network pool failure.
    Pool(PoolError),
    /// Bridge failure.
    Bridge(BridgeError),
    /// IP allocation failure.
    Ip(IpError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDomain(d) => write!(f, "unknown client domain '{d}'"),
            ServiceError::Pool(e) => write!(f, "network pool: {e}"),
            ServiceError::Bridge(e) => write!(f, "vnet bridge: {e}"),
            ServiceError::Ip(e) => write!(f, "ip allocation: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PoolError> for ServiceError {
    fn from(e: PoolError) -> Self {
        ServiceError::Pool(e)
    }
}
impl From<BridgeError> for ServiceError {
    fn from(e: BridgeError) -> Self {
        ServiceError::Bridge(e)
    }
}
impl From<IpError> for ServiceError {
    fn from(e: IpError) -> Self {
        ServiceError::Ip(e)
    }
}

/// One plant's virtual network service.
pub struct VirtualNetworkService {
    pool: HostOnlyPool,
    bridge: VnetBridge,
    reachability: Reachability,
    domains: DomainDirectory,
}

impl VirtualNetworkService {
    /// A service over `networks` host-only networks whose VNET server is
    /// reached through `reachability`, allocating addresses from the
    /// site's `domains`.
    pub fn new(
        networks: usize,
        reachability: Reachability,
        domains: DomainDirectory,
    ) -> VirtualNetworkService {
        VirtualNetworkService {
            pool: HostOnlyPool::new(networks),
            bridge: VnetBridge::new(),
            reachability,
            domains,
        }
    }

    /// The site-wide client-domain directory.
    pub fn domains(&self) -> &DomainDirectory {
        &self.domains
    }

    /// Would a VM for `domain` need a fresh host-only network? (Feeds the
    /// §3.4 cost function.)
    pub fn needs_new_network(&self, domain: &str) -> bool {
        self.pool.needs_new_network(domain)
    }

    /// The bridge patching `network` through to its client's proxy.
    pub fn bridge(&self, network: NetworkId) -> Option<&Bridge> {
        self.bridge.bridge(network)
    }

    /// Host-only networks currently assigned to client domains.
    pub fn networks_in_use(&self) -> usize {
        self.pool.size() - self.pool.free_count()
    }

    /// Attach one VM of `domain` to the domain's host-only network,
    /// allocating the network and bridging it to `proxy` when it is
    /// fresh. A failed bridge rolls the attach back.
    pub fn attach(
        &mut self,
        domain: &str,
        proxy: &ProxyEndpoint,
    ) -> Result<(NetworkId, bool), ServiceError> {
        let (network, fresh) = self.pool.attach(domain)?;
        if fresh {
            let reach = self.reachability.clone();
            if let Err(e) = self.bridge.connect(network, domain, proxy.clone(), reach) {
                let _ = self.pool.detach(network);
                return Err(e.into());
            }
        }
        Ok((network, fresh))
    }

    /// Detach one VM from `network`; the bridge goes down with the
    /// network's last VM.
    pub fn detach(&mut self, network: NetworkId) -> Result<(), ServiceError> {
        if self.pool.detach(network)? {
            self.bridge.disconnect(network)?;
        }
        Ok(())
    }

    /// [`attach`](Self::attach) plus an IP and MAC from `domain`. A
    /// failed allocation rolls the attach back.
    pub fn lease(
        &mut self,
        domain: &str,
        proxy: &ProxyEndpoint,
    ) -> Result<NetworkLease, ServiceError> {
        let (network, fresh_network) = self.attach(domain, proxy)?;
        match self.domains.allocate(domain) {
            Ok((ip, mac)) => Ok(NetworkLease {
                domain: domain.to_owned(),
                network,
                fresh_network,
                ip,
                mac,
            }),
            Err(e) => {
                let _ = self.detach(network);
                Err(e)
            }
        }
    }

    /// [`detach`](Self::detach) plus the IP's return to its domain. Both
    /// halves run even if the first fails.
    pub fn release(&mut self, lease: &NetworkLease) -> Result<(), ServiceError> {
        let detached = self.detach(lease.network);
        self.domains.release(&lease.domain, lease.ip)?;
        detached
    }

    /// The pool's exclusivity invariant (test hook).
    pub fn invariant_holds(&self) -> bool {
        self.pool.invariant_holds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::DomainIpAllocator;

    fn service(networks: usize) -> VirtualNetworkService {
        let domains = DomainDirectory::new();
        domains.register(DomainIpAllocator::new("ufl.edu", [128, 227, 56], 10, 50));
        domains.register(DomainIpAllocator::new(
            "northwestern.edu",
            [129, 105, 44],
            100,
            150,
        ));
        VirtualNetworkService::new(networks, Reachability::Direct { port: 9400 }, domains)
    }

    fn ufl_proxy() -> ProxyEndpoint {
        ProxyEndpoint::new("ufl.edu", "proxy.ufl.edu", 9300)
    }

    #[test]
    fn first_lease_allocates_later_leases_reuse() {
        let mut s = service(4);
        let l1 = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        assert!(l1.fresh_network);
        assert_eq!(l1.ip.to_string(), "128.227.56.10");
        let l2 = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        assert!(!l2.fresh_network);
        assert_eq!(l2.network, l1.network);
        assert_ne!(l2.ip, l1.ip);
        assert_ne!(l2.mac, l1.mac);
        assert!(s.invariant_holds());
    }

    #[test]
    fn release_reclaims_network_and_ip() {
        let mut s = service(4);
        let l1 = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        let l2 = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        s.release(&l1).unwrap();
        assert!(!s.needs_new_network("ufl.edu"));
        s.release(&l2).unwrap();
        assert!(s.needs_new_network("ufl.edu"));
        assert_eq!(s.networks_in_use(), 0);
        // Both IPs are free again.
        assert_eq!(s.domains().allocated_count("ufl.edu"), 0);
        let l3 = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        assert_eq!(l3.ip, l1.ip);
    }

    #[test]
    fn attach_and_detach_leave_addresses_alone() {
        let mut s = service(4);
        let (network, fresh) = s.attach("ufl.edu", &ufl_proxy()).unwrap();
        assert!(fresh);
        assert_eq!(s.networks_in_use(), 1);
        assert_eq!(s.domains().allocated_count("ufl.edu"), 0);
        s.detach(network).unwrap();
        assert_eq!(s.networks_in_use(), 0);
        assert!(s.detach(network).is_err(), "double detach rejected");
    }

    #[test]
    fn domains_are_isolated_per_network() {
        let mut s = service(4);
        let l_ufl = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        let nw_proxy = ProxyEndpoint::new("northwestern.edu", "proxy.nw.edu", 9301);
        let l_nw = s.lease("northwestern.edu", &nw_proxy).unwrap();
        assert_ne!(l_ufl.network, l_nw.network);
        assert_eq!(l_nw.ip.octets()[..3], [129, 105, 44]);
        assert!(s.invariant_holds());
    }

    #[test]
    fn unknown_domain_fails_cleanly() {
        let mut s = service(4);
        assert!(matches!(
            s.lease("nowhere.org", &ProxyEndpoint::new("nowhere.org", "p", 1)),
            Err(ServiceError::UnknownDomain(_))
        ));
        assert_eq!(s.networks_in_use(), 0, "the attach was rolled back");
    }

    #[test]
    fn proxy_of_another_domain_is_refused() {
        let mut s = service(4);
        let err = s.lease("northwestern.edu", &ufl_proxy()).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Bridge(BridgeError::DomainMismatch { .. })
        ));
        assert_eq!(s.networks_in_use(), 0, "the attach was rolled back");
    }

    #[test]
    fn pool_exhaustion_surfaces_and_leaves_state_clean() {
        let domains = DomainDirectory::new();
        domains.register(DomainIpAllocator::new("d1", [10, 0, 0], 1, 5));
        domains.register(DomainIpAllocator::new("d2", [10, 0, 1], 1, 5));
        let mut s = VirtualNetworkService::new(1, Reachability::Direct { port: 9400 }, domains);
        s.lease("d1", &ProxyEndpoint::new("d1", "p1", 1)).unwrap();
        let err = s
            .lease("d2", &ProxyEndpoint::new("d2", "p2", 1))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Pool(PoolError::Exhausted)));
        assert!(s.invariant_holds());
    }

    #[test]
    fn ip_exhaustion_rolls_back_the_network_attach() {
        let domains = DomainDirectory::new();
        domains.register(DomainIpAllocator::new("d", [10, 0, 0], 1, 1));
        let mut s = VirtualNetworkService::new(2, Reachability::Direct { port: 9400 }, domains);
        let proxy = ProxyEndpoint::new("d", "proxy", 1);
        let l1 = s.lease("d", &proxy).unwrap();
        let err = s.lease("d", &proxy).unwrap_err();
        assert!(matches!(err, ServiceError::Ip(IpError::PoolExhausted)));
        // The failed lease must not leak a VM attachment.
        s.release(&l1).unwrap();
        assert_eq!(s.networks_in_use(), 0);
    }

    #[test]
    fn gateway_plants_lease_like_direct_ones() {
        let domains = DomainDirectory::new();
        domains.register(DomainIpAllocator::new("ufl.edu", [128, 227, 56], 10, 20));
        let reach = Reachability::GatewayTunnel {
            gateway: "gw.site".into(),
            public_port: 10_000,
            plant_port: 9400,
        };
        let mut s = VirtualNetworkService::new(2, reach, domains);
        let lease = s.lease("ufl.edu", &ufl_proxy()).unwrap();
        assert!(lease.fresh_network);
    }

    #[test]
    fn release_of_unknown_lease_fails() {
        let mut s = service(4);
        let bogus = NetworkLease {
            domain: "ufl.edu".into(),
            network: NetworkId(0),
            fresh_network: true,
            ip: Ipv4Addr::new(128, 227, 56, 10),
            mac: MacAddr([2, 0x56, 0, 0, 0, 1]),
        };
        assert!(s.release(&bogus).is_err());
    }
}
