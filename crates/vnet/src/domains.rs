//! Site-wide client-domain directory.
//!
//! IP addresses belong to *client domains*, not to plants: two VMs of the
//! same domain created on different plants must not collide. The directory
//! is therefore shared (one per site) and handed to every plant's
//! [`VirtualNetworkService`](crate::VirtualNetworkService).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

use crate::ip::{DomainIpAllocator, MacAddr};
use crate::service::ServiceError;

/// Shared registry of client-domain IP allocators.
#[derive(Clone, Default)]
pub struct DomainDirectory {
    inner: Rc<RefCell<BTreeMap<String, DomainIpAllocator>>>,
}

impl DomainDirectory {
    /// An empty directory.
    pub fn new() -> DomainDirectory {
        DomainDirectory::default()
    }

    /// Register a client domain's allocator (replacing any previous one).
    pub fn register(&self, allocator: DomainIpAllocator) {
        self.inner
            .borrow_mut()
            .insert(allocator.domain().to_owned(), allocator);
    }

    /// True if `domain` is registered.
    pub fn contains(&self, domain: &str) -> bool {
        self.inner.borrow().contains_key(domain)
    }

    /// Allocate an IP + MAC for a VM of `domain`.
    pub(crate) fn allocate(&self, domain: &str) -> Result<(Ipv4Addr, MacAddr), ServiceError> {
        let mut inner = self.inner.borrow_mut();
        let alloc = inner
            .get_mut(domain)
            .ok_or_else(|| ServiceError::UnknownDomain(domain.to_owned()))?;
        let ip = alloc.allocate()?;
        let mac = alloc.next_mac();
        Ok((ip, mac))
    }

    /// Release a VM's IP back to its domain.
    pub(crate) fn release(&self, domain: &str, ip: Ipv4Addr) -> Result<(), ServiceError> {
        let mut inner = self.inner.borrow_mut();
        let alloc = inner
            .get_mut(domain)
            .ok_or_else(|| ServiceError::UnknownDomain(domain.to_owned()))?;
        Ok(alloc.release(ip)?)
    }

    /// Allocated addresses for a domain (0 for unknown domains).
    pub fn allocated_count(&self, domain: &str) -> usize {
        self.inner
            .borrow()
            .get(domain)
            .map_or(0, DomainIpAllocator::allocated_count)
    }

    /// Register the default experiment domain (`ufl.edu` with a large
    /// pool) and return its name.
    pub fn register_experiment_domain(&self) -> String {
        self.register(DomainIpAllocator::new("ufl.edu", [128, 227, 56], 10, 250));
        "ufl.edu".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::IpError;

    #[test]
    fn allocations_are_site_wide_unique() {
        let dir = DomainDirectory::new();
        dir.register(DomainIpAllocator::new("d", [10, 0, 0], 1, 100));
        // Two "plants" sharing the directory never collide.
        let plant_a_view = dir.clone();
        let plant_b_view = dir.clone();
        let (ip_a, mac_a) = plant_a_view.allocate("d").unwrap();
        let (ip_b, mac_b) = plant_b_view.allocate("d").unwrap();
        assert_ne!(ip_a, ip_b);
        assert_ne!(mac_a, mac_b);
        assert_eq!(dir.allocated_count("d"), 2);
    }

    #[test]
    fn release_round_trips() {
        let dir = DomainDirectory::new();
        dir.register(DomainIpAllocator::new("d", [10, 0, 0], 1, 2));
        let (ip, _) = dir.allocate("d").unwrap();
        dir.release("d", ip).unwrap();
        assert_eq!(dir.allocated_count("d"), 0);
        assert_eq!(
            dir.release("d", ip),
            Err(ServiceError::Ip(IpError::NotAllocated(ip.to_string()))),
            "double release rejected"
        );
    }

    #[test]
    fn unknown_domain_errors() {
        let dir = DomainDirectory::new();
        let unknown = Err(ServiceError::UnknownDomain("ghost".into()));
        assert_eq!(dir.allocate("ghost").map(|_| ()), unknown);
        assert_eq!(dir.release("ghost", Ipv4Addr::new(1, 2, 3, 4)), unknown);
        assert!(!dir.contains("ghost"));
        assert_eq!(dir.allocated_count("ghost"), 0);
    }

    #[test]
    fn experiment_domain_preset() {
        let dir = DomainDirectory::new();
        let name = dir.register_experiment_domain();
        assert_eq!(name, "ufl.edu");
        assert!(dir.contains("ufl.edu"));
        let (ip, _) = dir.allocate(&name).unwrap();
        assert_eq!(ip.octets()[..3], [128, 227, 56]);
    }
}
