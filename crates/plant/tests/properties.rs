//! Seeded property test: under random interleavings of create / collect
//! / crash / revive / prewarm / migrate, the site's resource accounting
//! stays exactly balanced — no leaked host memory, IP addresses,
//! host-only networks, or disk files. Operation sequences are drawn from
//! `SimRng` over a fixed seed range, so each run checks the same ones.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::graph::experiment_dag;
use vmplants_plant::{
    migrate, DomainDirectory, Plant, PlantConfig, PlantError, ProductionOrder, VmId,
};
use vmplants_simkit::{Engine, SimRng};
use vmplants_virt::VmSpec;
use vmplants_warehouse::store::publish_experiment_goldens;
use vmplants_warehouse::Warehouse;

#[derive(Clone, Debug)]
enum Op {
    Create { plant: u8, mem_idx: u8 },
    CollectOldest,
    Migrate { to: u8 },
    Prewarm { plant: u8 },
    CrashAndRevive { plant: u8 },
}

/// Up to 13 operations: creates weighted 3, collects 2, the rest 1.
fn random_ops(rng: &mut SimRng) -> Vec<Op> {
    (0..rng.index(14))
        .map(|_| {
            let plant = rng.index(3) as u8;
            match rng.index(8) {
                0..=2 => Op::Create {
                    plant,
                    mem_idx: rng.index(3) as u8,
                },
                3 | 4 => Op::CollectOldest,
                5 => Op::Migrate { to: plant },
                6 => Op::Prewarm { plant },
                _ => Op::CrashAndRevive { plant },
            }
        })
        .collect()
}

struct Fixture {
    seed: u64,
    engine: Engine,
    plants: Vec<Plant>,
    domains: DomainDirectory,
    live: Vec<(VmId, usize, u64)>, // (id, plant index, memory)
    spares_made: usize,
    spare_mem: u64,
}

fn fixture(seed: u64) -> Fixture {
    let engine = Engine::new();
    let mut rng = SimRng::seed_from_u64(seed);
    let nfs = NfsServer::new("storage");
    let mut warehouse = Warehouse::new();
    publish_experiment_goldens(&mut warehouse, &nfs);
    let warehouse = Rc::new(RefCell::new(warehouse));
    let domains = DomainDirectory::new();
    domains.register_experiment_domain();
    let plants = (0..3)
        .map(|i| {
            let name = format!("node{i}");
            Plant::new(
                PlantConfig::new(&name),
                Host::new(HostSpec::e1350_node(&name)),
                nfs.clone(),
                Rc::clone(&warehouse),
                domains.clone(),
                &mut rng,
            )
        })
        .collect();
    Fixture {
        seed,
        engine,
        plants,
        domains,
        live: Vec::new(),
        spares_made: 0,
        spare_mem: 0,
    }
}

fn settle<T: 'static>(engine: &mut Engine, out: Rc<RefCell<Option<T>>>) -> T {
    engine.run();
    Rc::try_unwrap(out)
        .ok()
        .expect("single owner after run")
        .into_inner()
        .expect("operation completed")
}

impl Fixture {
    fn create(&mut self, plant: usize, mem: u64) {
        let order =
            ProductionOrder::new(VmSpec::mandrake(mem), experiment_dag("arijit"), "ufl.edu");
        let out: Rc<RefCell<Option<Result<ClassAd, PlantError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        self.plants[plant].create(
            &mut self.engine,
            order,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        match settle(&mut self.engine, out) {
            Ok(ad) => {
                // A used spare is consumed.
                if self.spares_made > 0
                    && self.spare_mem == mem
                    && ad.get_f64("clone_s").unwrap() < 2.0
                {
                    self.spares_made -= 1;
                }
                self.live
                    .push((VmId(ad.get_str("vmid").unwrap()), plant, mem));
            }
            Err(PlantError::PlantDown | PlantError::NetworkExhausted(_)) => {}
            Err(other) => panic!("unexpected create failure: {other}"),
        }
    }

    fn collect_oldest(&mut self) {
        if self.live.is_empty() {
            return;
        }
        let (id, plant, mem) = self.live.remove(0);
        let out: Rc<RefCell<Option<Result<ClassAd, PlantError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        self.plants[plant].collect(
            &mut self.engine,
            &id,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        match settle(&mut self.engine, out) {
            Ok(_) => {}
            Err(PlantError::PlantDown) => {
                // Keep it live; the plant is down but the VM persists.
                self.live.insert(0, (id, plant, mem));
            }
            Err(other) => panic!("unexpected collect failure: {other}"),
        }
    }

    fn migrate_oldest(&mut self, to: usize) {
        let Some(&(ref id, from, mem)) = self.live.first() else {
            return;
        };
        let id = id.clone();
        if from == to {
            return;
        }
        let (source, target) = (self.plants[from].clone(), self.plants[to].clone());
        let out: Rc<RefCell<Option<Result<ClassAd, PlantError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        migrate(
            &mut self.engine,
            &source,
            &target,
            &id,
            None,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        match settle(&mut self.engine, out) {
            Ok(_) => {
                self.live[0] = (id, to, mem);
            }
            Err(
                PlantError::PlantDown
                | PlantError::NetworkExhausted(_)
                | PlantError::InvalidOrder(_),
            ) => {}
            Err(other) => panic!("unexpected migrate failure: {other}"),
        }
    }

    fn prewarm(&mut self, plant: usize) {
        let out: Rc<RefCell<Option<Result<usize, PlantError>>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        self.plants[plant].prewarm(
            &mut self.engine,
            VmSpec::mandrake(32),
            experiment_dag("arijit"),
            1,
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res);
            }),
        );
        match settle(&mut self.engine, out) {
            Ok(n) => {
                self.spares_made += n;
                self.spare_mem = 32;
            }
            Err(PlantError::PlantDown) => {}
            Err(other) => panic!("unexpected prewarm failure: {other}"),
        }
    }

    fn check_invariants(&self) {
        // Live VM count matches plant records.
        let recorded: usize = self.plants.iter().map(Plant::vm_count).sum();
        assert_eq!(
            recorded,
            self.live.len(),
            "seed {}: record count mismatch",
            self.seed
        );
        // One IP per live VM (spares hold no IPs).
        assert_eq!(
            self.domains.allocated_count("ufl.edu"),
            self.live.len(),
            "seed {}: IP leak",
            self.seed
        );
        // Host memory commits match live VMs + spares (each + 24 MB VMM
        // overhead); spare memory is a real cost.
        let committed: u64 = self.plants.iter().map(|p| p.host().committed_mb()).sum();
        let expected_vm: u64 = self.live.iter().map(|&(_, _, mem)| mem + 24).sum();
        let expected_spares: u64 = self.spares_made as u64 * (32 + 24);
        assert_eq!(
            committed,
            expected_vm + expected_spares,
            "seed {}: memory leak",
            self.seed
        );
        // Per-plant VM counts match, and a plant holds its one domain's
        // host-only network exactly while it hosts a VM.
        for (idx, plant) in self.plants.iter().enumerate() {
            let here = self.live.iter().filter(|&&(_, p, _)| p == idx).count();
            assert_eq!(
                plant.vm_count(),
                here,
                "seed {}: plant {idx} record drift",
                self.seed
            );
            assert_eq!(
                plant.networks_in_use(),
                usize::from(here > 0),
                "seed {}: plant {idx} network leak",
                self.seed
            );
        }
    }
}

#[test]
fn resource_accounting_is_exact_under_churn() {
    for seed in 0..64 {
        let mut f = fixture(seed);
        for op in random_ops(&mut SimRng::seed_from_u64(seed)) {
            match op {
                Op::Create { plant, mem_idx } => {
                    let mem = [32u64, 64, 256][mem_idx as usize];
                    f.create(plant as usize, mem);
                }
                Op::CollectOldest => f.collect_oldest(),
                Op::Migrate { to } => f.migrate_oldest(to as usize),
                Op::Prewarm { plant } => f.prewarm(plant as usize),
                Op::CrashAndRevive { plant } => {
                    f.plants[plant as usize].fail();
                    f.plants[plant as usize].revive();
                }
            }
            f.check_invariants();
        }
        // Drain: collecting everything returns the site to zero.
        while !f.live.is_empty() {
            f.collect_oldest();
        }
        f.check_invariants();
    }
}
