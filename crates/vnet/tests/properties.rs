//! Seeded property tests: the §3.3 exclusivity invariant survives random
//! attach/detach interleavings and leases never leak. Cases are drawn
//! from `SimRng` over a fixed seed range, so each run checks the same
//! sequences.

use vmplants_simkit::SimRng;
use vmplants_vnet::{
    DomainDirectory, DomainIpAllocator, HostOnlyPool, NetworkId, ProxyEndpoint, Reachability,
    VirtualNetworkService,
};

/// Cases per property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;

#[derive(Clone, Debug)]
enum Op {
    Attach(u8),
    DetachOldest,
}

/// Up to 63 operations, attaches to five domains and detaches equally
/// likely.
fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    (0..rng.index(64))
        .map(|_| {
            if rng.chance(0.5) {
                Op::Attach(rng.index(5) as u8)
            } else {
                Op::DetachOldest
            }
        })
        .collect()
}

/// Whatever sequence of attaches and detaches runs, no two networks ever
/// serve the same domain, and no network serves two domains.
#[test]
fn pool_invariant_under_churn() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let pool_size = 1 + rng.index(5);
        let mut pool = HostOnlyPool::new(pool_size);
        let mut live: Vec<NetworkId> = Vec::new();
        for op in random_ops(&mut rng) {
            match op {
                Op::Attach(d) => {
                    if let Ok((n, _)) = pool.attach(&format!("domain{d}")) {
                        live.push(n);
                    }
                }
                Op::DetachOldest => {
                    if !live.is_empty() {
                        pool.detach(live.remove(0)).unwrap();
                    }
                }
            }
            assert!(pool.invariant_holds(), "seed {seed}");
            assert_eq!(pool.total_vms(), live.len(), "seed {seed}");
            assert!(pool.free_count() <= pool.size(), "seed {seed}");
        }
        // Draining everything returns the pool to empty.
        for n in live {
            pool.detach(n).unwrap();
        }
        assert_eq!(pool.free_count(), pool.size(), "seed {seed}");
        assert_eq!(pool.total_vms(), 0, "seed {seed}");
    }
}

/// Leases through a plant's service never leak: after releasing every
/// lease, all networks and IPs are free again.
#[test]
fn service_leases_are_leak_free() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let domains = DomainDirectory::new();
        for d in 0..5u8 {
            domains.register(DomainIpAllocator::new(
                format!("domain{d}"),
                [10, 0, d],
                1,
                200,
            ));
        }
        let reach = Reachability::Direct { port: 9400 };
        let mut s = VirtualNetworkService::new(3, reach, domains.clone());
        let mut leases = Vec::new();
        for op in random_ops(&mut rng) {
            match op {
                Op::Attach(d) => {
                    let domain = format!("domain{d}");
                    let proxy = ProxyEndpoint::new(domain.clone(), "proxy", 1);
                    if let Ok(l) = s.lease(&domain, &proxy) {
                        leases.push(l);
                    }
                }
                Op::DetachOldest => {
                    if !leases.is_empty() {
                        s.release(&leases.remove(0)).unwrap();
                    }
                }
            }
            assert!(s.invariant_holds(), "seed {seed}");
        }
        for l in leases {
            s.release(&l).unwrap();
        }
        assert_eq!(s.networks_in_use(), 0, "seed {seed}");
        for d in 0..5u8 {
            assert_eq!(
                domains.allocated_count(&format!("domain{d}")),
                0,
                "seed {seed}"
            );
        }
    }
}
