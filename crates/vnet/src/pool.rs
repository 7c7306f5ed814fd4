//! Per-plant host-only network pools.

use std::collections::HashMap;

/// Index of a host-only network within one plant's pool (e.g. `vmnet2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkId(pub usize);

impl std::fmt::Display for NetworkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vmnet{}", self.0)
    }
}

/// Pool failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// Every network is already assigned to some other domain.
    Exhausted,
    /// Detach of a VM that was never attached.
    NotAttached {
        /// The offending network.
        network: NetworkId,
    },
    /// Operation on a network outside the pool.
    UnknownNetwork(NetworkId),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "no free host-only networks"),
            PoolError::NotAttached { network } => {
                write!(f, "detach from {network} without a matching attach")
            }
            PoolError::UnknownNetwork(n) => write!(f, "no such network {n}"),
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Clone, Debug)]
struct Assignment {
    domain: String,
    vm_count: usize,
}

/// One plant's statically installed host-only networks and their dynamic
/// assignment to client domains.
#[derive(Clone, Debug)]
pub struct HostOnlyPool {
    assignments: Vec<Option<Assignment>>,
}

impl HostOnlyPool {
    /// A pool of `size` networks (§3.4's example uses 4 per plant).
    pub fn new(size: usize) -> HostOnlyPool {
        HostOnlyPool {
            assignments: vec![None; size],
        }
    }

    /// Total networks in the pool.
    pub fn size(&self) -> usize {
        self.assignments.len()
    }

    /// Networks not currently assigned to any domain.
    pub fn free_count(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_none()).count()
    }

    /// The network currently serving `domain`, if any.
    pub(crate) fn network_of(&self, domain: &str) -> Option<NetworkId> {
        self.assignments
            .iter()
            .position(|a| a.as_ref().is_some_and(|x| x.domain == domain))
            .map(NetworkId)
    }

    /// Would a request from `domain` need a *fresh* network (and thus incur
    /// the one-time network cost)? Used by the bidding cost function.
    pub(crate) fn needs_new_network(&self, domain: &str) -> bool {
        self.network_of(domain).is_none()
    }

    /// Attach one VM from `domain`, allocating a network if the domain has
    /// none here. Returns `(network, freshly_allocated)`.
    pub fn attach(&mut self, domain: &str) -> Result<(NetworkId, bool), PoolError> {
        if let Some(id) = self.network_of(domain) {
            let slot = self.assignments[id.0].as_mut().expect("assigned");
            slot.vm_count += 1;
            return Ok((id, false));
        }
        let free = self
            .assignments
            .iter()
            .position(Option::is_none)
            .ok_or(PoolError::Exhausted)?;
        self.assignments[free] = Some(Assignment {
            domain: domain.to_owned(),
            vm_count: 1,
        });
        Ok((NetworkId(free), true))
    }

    /// Detach one VM from its network; the network is reclaimed when its
    /// last VM detaches. Returns `true` if the network was reclaimed.
    pub fn detach(&mut self, network: NetworkId) -> Result<bool, PoolError> {
        let slot = self
            .assignments
            .get_mut(network.0)
            .ok_or(PoolError::UnknownNetwork(network))?;
        match slot {
            None => Err(PoolError::NotAttached { network }),
            Some(a) => {
                a.vm_count -= 1;
                if a.vm_count == 0 {
                    *slot = None;
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// Total VMs attached across the pool.
    pub fn total_vms(&self) -> usize {
        self.assignments
            .iter()
            .flatten()
            .map(|a| a.vm_count)
            .sum()
    }

    /// The §3.3 invariant, checkable at any time: each network serves at
    /// most one domain, and no two networks serve the same domain.
    pub fn invariant_holds(&self) -> bool {
        let mut domains: HashMap<&str, usize> = HashMap::new();
        for a in self.assignments.iter().flatten() {
            *domains.entry(a.domain.as_str()).or_default() += 1;
        }
        domains.values().all(|&n| n == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_domain_reuses_its_network() {
        let mut pool = HostOnlyPool::new(4);
        let (n1, fresh1) = pool.attach("ufl.edu").unwrap();
        let (n2, fresh2) = pool.attach("ufl.edu").unwrap();
        assert_eq!(n1, n2);
        assert!(fresh1);
        assert!(!fresh2, "reuse does not re-allocate");
        assert_eq!(pool.total_vms(), 2);
        assert_eq!(pool.free_count(), 3);
    }

    #[test]
    fn different_domains_get_different_networks() {
        let mut pool = HostOnlyPool::new(4);
        let (a, _) = pool.attach("ufl.edu").unwrap();
        let (b, _) = pool.attach("northwestern.edu").unwrap();
        assert_ne!(a, b);
        assert!(pool.invariant_holds());
        assert_eq!(pool.network_of("ufl.edu"), Some(a));
        assert_eq!(pool.network_of("northwestern.edu"), Some(b));
    }

    #[test]
    fn exhaustion_rejects_new_domains_but_not_existing() {
        let mut pool = HostOnlyPool::new(2);
        pool.attach("d1").unwrap();
        pool.attach("d2").unwrap();
        assert_eq!(pool.attach("d3"), Err(PoolError::Exhausted));
        // d1 can still add VMs to its existing network.
        assert!(pool.attach("d1").is_ok());
        assert_eq!(pool.total_vms(), 3);
    }

    #[test]
    fn network_reclaimed_when_last_vm_detaches() {
        let mut pool = HostOnlyPool::new(2);
        let (n, _) = pool.attach("d1").unwrap();
        pool.attach("d1").unwrap();
        assert!(!pool.detach(n).unwrap(), "one VM remains");
        assert!(pool.detach(n).unwrap(), "now reclaimed");
        assert_eq!(pool.free_count(), 2);
        assert!(pool.network_of("d1").is_none());
        // A later attach may land on the same slot, freshly.
        let (_, fresh) = pool.attach("d1").unwrap();
        assert!(fresh);
    }

    #[test]
    fn detach_errors() {
        let mut pool = HostOnlyPool::new(2);
        assert_eq!(
            pool.detach(NetworkId(0)),
            Err(PoolError::NotAttached {
                network: NetworkId(0)
            })
        );
        assert_eq!(
            pool.detach(NetworkId(9)),
            Err(PoolError::UnknownNetwork(NetworkId(9)))
        );
    }

    #[test]
    fn needs_new_network_drives_the_cost_function() {
        let mut pool = HostOnlyPool::new(4);
        assert!(pool.needs_new_network("d1"));
        pool.attach("d1").unwrap();
        assert!(!pool.needs_new_network("d1"));
        assert!(pool.needs_new_network("d2"));
    }

    #[test]
    fn invariant_holds_through_churn() {
        let mut pool = HostOnlyPool::new(3);
        let mut handles = Vec::new();
        for i in 0..3 {
            for _ in 0..=i {
                let (n, _) = pool.attach(&format!("domain{i}")).unwrap();
                handles.push(n);
            }
            assert!(pool.invariant_holds());
        }
        for n in handles {
            pool.detach(n).unwrap();
            assert!(pool.invariant_holds());
        }
        assert_eq!(pool.free_count(), 3);
    }

    #[test]
    fn display_matches_vmware_naming() {
        assert_eq!(NetworkId(2).to_string(), "vmnet2");
    }
}
