//! Seeded property tests: clone/destroy accounting symmetry under random
//! interleavings, and timing-model orderings. Cases are drawn from
//! `SimRng` over fixed seed ranges, so each run checks the same sequences.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_cluster::files::gb;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_simkit::{Engine, SimRng};
use vmplants_virt::Hypervisor;
use vmplants_virt::{ImageFiles, VmSpec, VmmType};

#[derive(Clone, Debug)]
enum Op {
    Clone { mem_idx: u8, uml: bool },
    DestroyOldest,
}

/// Up to 15 operations, clones twice as likely as destroys.
fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    (0..rng.index(16))
        .map(|_| {
            if rng.index(3) < 2 {
                Op::Clone {
                    mem_idx: rng.index(3) as u8,
                    uml: rng.chance(0.5),
                }
            } else {
                Op::DestroyOldest
            }
        })
        .collect()
}

/// Whatever clone/destroy order runs, host memory registration and disk
/// contents return exactly to zero when everything is destroyed.
#[test]
fn clone_destroy_accounting_balances() {
    for seed in 0..128 {
        let ops = random_ops(&mut SimRng::seed_from_u64(seed));
        let mut engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("node0"));
        let nfs = NfsServer::new("storage");
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
        let hv = Hypervisor::new(rng);
        // Publish goldens for both VMM types at every size.
        let mut images = std::collections::BTreeMap::new();
        for mem in [32u64, 64, 256] {
            for (vmm, label) in [(VmmType::VmwareLike, "vmw"), (VmmType::UmlLike, "uml")] {
                let img = ImageFiles::plan(&format!("/warehouse/{label}{mem}"), vmm, mem, gb(2));
                img.materialize(&nfs.store, mem, gb(2)).unwrap();
                images.insert((vmm, mem), img);
            }
        }
        let mut live: Vec<(String, VmSpec)> = Vec::new();
        let mut next = 0usize;
        for op in ops {
            match op {
                Op::Clone {
                    mem_idx,
                    uml: is_uml,
                } => {
                    let mem = [32u64, 64, 256][mem_idx as usize];
                    let spec = if is_uml {
                        VmSpec::uml(mem)
                    } else {
                        VmSpec::mandrake(mem)
                    };
                    let dir = format!("/clones/vm{next}");
                    next += 1;
                    let img = &images[&(spec.vmm, mem)];
                    let ok = Rc::new(RefCell::new(false));
                    let ok2 = Rc::clone(&ok);
                    hv.instantiate(
                        &mut engine,
                        img,
                        &spec,
                        &host,
                        &nfs,
                        &dir,
                        Box::new(move |_, res| {
                            res.expect("clone succeeds");
                            *ok2.borrow_mut() = true;
                        }),
                    );
                    engine.run();
                    assert!(*ok.borrow(), "seed {seed}");
                    live.push((dir, spec));
                }
                Op::DestroyOldest => {
                    if live.is_empty() {
                        continue;
                    }
                    let (dir, spec) = live.remove(0);
                    hv.destroy(
                        &mut engine,
                        &host,
                        &spec,
                        &dir,
                        Box::new(|_, res| res.expect("destroy succeeds")),
                    );
                    engine.run();
                }
            }
            // Host registration always mirrors the live set.
            assert_eq!(host.vm_count(), live.len(), "seed {seed}");
            let committed: u64 = live.iter().map(|(_, s)| s.memory_mb + 24).sum();
            assert_eq!(host.committed_mb(), committed, "seed {seed}");
        }
        // Drain.
        while let Some((dir, spec)) = live.pop() {
            hv.destroy(
                &mut engine,
                &host,
                &spec,
                &dir,
                Box::new(|_, res| res.expect("destroy succeeds")),
            );
            engine.run();
        }
        assert_eq!(host.vm_count(), 0, "seed {seed}");
        assert_eq!(host.committed_mb(), 0, "seed {seed}");
        assert_eq!(host.disk.file_count(), 0, "seed {seed}: leaked clone files");
        assert_eq!(host.disk.used_bytes(), 0, "seed {seed}");
    }
}

/// Linked-clone time grows with memory size.
#[test]
fn timing_orderings_hold() {
    for seed in 0..200 {
        let measure = |mem: u64, seed: u64| -> f64 {
            let mut engine = Engine::new();
            let host = Host::new(HostSpec::e1350_node("n"));
            let nfs = NfsServer::new("s");
            let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, mem, gb(2));
            img.materialize(&nfs.store, mem, gb(2)).unwrap();
            let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
            let hv = Hypervisor::new(rng);
            let out = Rc::new(RefCell::new(0.0));
            let out2 = Rc::clone(&out);
            hv.instantiate(
                &mut engine,
                &img,
                &VmSpec::mandrake(mem),
                &host,
                &nfs,
                "/c/vm",
                Box::new(move |_, res| {
                    *out2.borrow_mut() = res.unwrap().total.as_secs_f64();
                }),
            );
            engine.run();
            let t = *out.borrow();
            t
        };
        let t32 = measure(32, seed);
        let t256 = measure(256, seed + 1);
        assert!(t32 < t256, "seed {seed}: 32MB {t32} vs 256MB {t256}");
        assert!(t32 > 0.0, "seed {seed}");
    }
}
