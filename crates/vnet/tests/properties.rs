//! Seeded property tests: the §3.3 exclusivity invariant survives random
//! attach/detach interleavings and leases never leak. Cases are drawn
//! from `SimRng` over a fixed seed range, so each run checks the same
//! sequences.

use vmplants_simkit::SimRng;
use vmplants_vnet::{
    DomainIpAllocator, HostOnlyPool, NetworkId, ProxyEndpoint, VirtualNetworkService,
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

/// Leases through the full service never leak: after releasing every
/// lease, all networks and IPs are free again.
#[test]
fn service_leases_are_leak_free() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut s = VirtualNetworkService::new();
        s.register_plant("p", 3, 9400);
        for d in 0..5u8 {
            s.register_domain(DomainIpAllocator::new(
                format!("domain{d}"),
                [10, 0, d],
                1,
                200,
            ));
        }
        let mut leases = Vec::new();
        for op in random_ops(&mut rng) {
            match op {
                Op::Attach(d) => {
                    let proxy = ProxyEndpoint::new(format!("domain{d}"), "proxy", 1);
                    if let Ok(l) = s.lease("p", &proxy) {
                        leases.push(l);
                    }
                }
                Op::DetachOldest => {
                    if !leases.is_empty() {
                        s.release(&leases.remove(0)).unwrap();
                    }
                }
            }
            assert!(s.invariants_hold(), "seed {seed}");
        }
        for l in leases {
            s.release(&l).unwrap();
        }
        assert_eq!(s.free_networks("p").unwrap(), 3, "seed {seed}");
    }
}
