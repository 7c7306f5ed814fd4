//! End-to-end VMShop tests over a multi-plant simulated site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::{CostModel, DomainDirectory, Plant, PlantConfig, ProductionOrder, VmId};
use vmplants_shop::{ShopClient, ShopError, VmBroker, VmShop};
use vmplants_simkit::{Engine, SimDuration, SimRng};
use vmplants_virt::VmSpec;
use vmplants_warehouse::store::publish_experiment_goldens;
use vmplants_warehouse::Warehouse;

struct Site {
    engine: Engine,
    shop: VmShop,
    plants: Vec<Plant>,
    nfs: NfsServer,
}

fn site_with(n_plants: usize, cost_model: CostModel) -> Site {
    let engine = Engine::new();
    let mut rng = SimRng::seed_from_u64(2026);
    let nfs = NfsServer::new("storage");
    let mut warehouse = Warehouse::new();
    publish_experiment_goldens(&mut warehouse, &nfs);
    let warehouse = Rc::new(RefCell::new(warehouse));
    let domains = DomainDirectory::new();
    domains.register_experiment_domain();
    let shop = VmShop::new("shop", rng.fork(99));
    let mut plants = Vec::new();
    for i in 0..n_plants {
        let name = format!("node{i}");
        let plant = Plant::new(
            PlantConfig {
                cost_model,
                ..PlantConfig::new(&name)
            },
            Host::new(HostSpec::e1350_node(&name)),
            nfs.clone(),
            Rc::clone(&warehouse),
            domains.clone(),
            &mut rng,
        );
        shop.register_plant(plant.clone());
        plants.push(plant);
    }
    Site {
        engine,
        shop,
        plants,
        nfs,
    }
}

fn total_vms(s: &Site) -> usize {
    s.plants.iter().map(Plant::vm_count).sum()
}

fn order(mem: u64) -> ProductionOrder {
    ProductionOrder::new(VmSpec::mandrake(mem), invigo_workspace_dag("arijit"), "ufl.edu")
}

fn run_create(site: &mut Site, order: ProductionOrder) -> Result<ClassAd, ShopError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.shop.create(
        &mut site.engine,
        order,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
}

fn run_query(site: &mut Site, id: &VmId) -> Result<ClassAd, ShopError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.shop.query(
        &mut site.engine,
        id,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
}

fn run_destroy(site: &mut Site, id: &VmId) -> Result<ClassAd, ShopError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.shop.destroy(
        &mut site.engine,
        id,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
}

#[test]
fn create_assigns_shop_vmid_and_caches() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(64)).unwrap();
    let vmid = ad.get_str("vmid").unwrap();
    assert!(vmid.starts_with("vm-shop-"), "{vmid}");
    assert_eq!(ad.get_str("state"), Some("running".into()));
    let log = s.shop.request_log();
    assert_eq!(log.len(), 1);
    assert!(log[0].success);
    assert!(log[0].latency.as_secs_f64() > 15.0);
    // Query hits the cache path (plant_of known).
    let q = run_query(&mut s, &VmId(vmid)).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
    let (hits, _) = s.shop.cache_stats();
    let _ = hits; // plant_of path does not count; just ensure no panic
}

#[test]
fn prototype_bidding_spreads_load_evenly() {
    // The Figure 4–6 setup: free-memory bidding over 8 plants spreads a
    // homogeneous stream evenly (16 × 64 MB clones per plant for 128
    // requests).
    let mut s = site_with(8, CostModel::FreeMemoryPrototype);
    for _ in 0..32 {
        run_create(&mut s, order(64)).unwrap();
    }
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for entry in s.shop.request_log() {
        *counts.entry(entry.plant.clone()).or_default() += 1;
    }
    assert_eq!(counts.len(), 8, "all plants used: {counts:?}");
    for (plant, n) in &counts {
        assert_eq!(*n, 4, "{plant} should host exactly 4 of 32: {counts:?}");
    }
}

#[test]
fn section_3_4_cost_function_crossover_at_13_vms() {
    // E6: two plants, network cost 50, compute cost 4/VM, one client
    // domain. The shop keeps picking the first plant until its compute
    // cost (4 × 13 = 52) exceeds the rival's network cost (50): the first
    // 13 VMs land on one plant and the 14th goes to the other.
    let mut s = site_with(2, CostModel::section_3_4_example());
    let mut placements = Vec::new();
    for _ in 0..14 {
        run_create(&mut s, order(32)).unwrap();
        placements.push(s.shop.request_log().last().unwrap().plant.clone());
    }
    let first = placements[0].clone();
    assert!(
        placements[..13].iter().all(|p| *p == first),
        "first 13 VMs stay on {first}: {placements:?}"
    );
    assert_ne!(
        placements[13], first,
        "the 14th request crosses over: {placements:?}"
    );
}

#[test]
fn plant_death_triggers_rebid() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    // Kill one plant; creation must land on the survivor.
    s.plants[0].fail();
    let ad = run_create(&mut s, order(64)).unwrap();
    assert_eq!(ad.get_str("plant"), Some("node1".into()));
    // Kill both: no bids at all — nobody was even eligible.
    s.plants[1].fail();
    assert!(matches!(
        run_create(&mut s, order(64)).unwrap_err(),
        ShopError::AllPlantsExcluded
    ));
}

#[test]
fn host_crash_mid_clone_completes_the_order_on_another_plant() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    // Bias the bid so node0 wins the first round.
    s.plants[1].host().register_vm(512);
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.create(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    // 10 s in, node0 is mid-clone; its host dies.
    let victim = s.plants[0].clone();
    s.engine
        .schedule(vmplants_simkit::SimDuration::from_secs(10), move |engine| {
            victim.host_crashed(engine);
        });
    s.engine.run();
    let ad = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_eq!(ad.get_str("plant"), Some("node1".into()), "rerouted");
    assert_eq!(ad.get_str("state"), Some("running".into()));
    let log = s.shop.request_log();
    assert_eq!(log.len(), 1);
    assert!(log[0].success);
    assert!(log[0].attempts >= 2, "took a re-bid: {}", log[0].attempts);
    // Within the default 600 s deadline, and nothing leaked anywhere.
    assert!(log[0].latency.as_secs_f64() < 600.0);
    assert_eq!(s.plants[0].vm_count(), 0);
    assert_eq!(s.plants[1].vm_count(), 1);
    assert_eq!(s.shop.gc_orphans(&mut s.engine), 0, "no orphaned VMs");
}

#[test]
fn total_message_loss_hits_the_deadline_instead_of_hanging() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    s.shop.transport().set_loss("shop", 1.0);
    s.shop.set_tuning(vmplants_shop::ShopTuning {
        order_deadline: Some(vmplants_simkit::SimDuration::from_secs(120)),
        attempt_timeout: vmplants_simkit::SimDuration::from_secs(30),
        ..vmplants_shop::ShopTuning::default()
    });
    let err = run_create(&mut s, order(64)).unwrap_err();
    assert!(
        matches!(err, ShopError::DeadlineExceeded(Some(_))),
        "{err:?}"
    );
    let log = s.shop.request_log();
    assert!(!log[0].success);
    assert!(log[0].attempts >= 2, "watchdog kept retrying");
    // The order settled shortly after its deadline — no hang-forever.
    let lat = log[0].latency.as_secs_f64();
    assert!((120.0..200.0).contains(&lat), "latency {lat}");
}

#[test]
fn degraded_mode_sheds_load_when_too_few_plants_are_alive() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    s.shop.set_tuning(vmplants_shop::ShopTuning {
        min_live_plants: 2,
        ..vmplants_shop::ShopTuning::default()
    });
    s.plants[0].fail();
    let err = run_create(&mut s, order(64)).unwrap_err();
    assert_eq!(
        err,
        ShopError::Degraded {
            alive: 1,
            required: 2
        }
    );
    // With both plants back, service resumes.
    s.plants[0].revive();
    assert!(run_create(&mut s, order(64)).is_ok());
}

#[test]
fn gc_reaps_orphans_but_spares_cached_and_inflight_vms() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(32)).unwrap();
    let known = VmId(ad.get_str("vmid").unwrap());
    // A VM created behind the shop's back is an orphan in its registry.
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].create(
        &mut s.engine,
        order(32),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_eq!(s.plants.iter().map(Plant::vm_count).sum::<usize>(), 2);
    let reaped = s.shop.gc_orphans(&mut s.engine);
    s.engine.run();
    assert_eq!(reaped, 1);
    assert_eq!(s.plants.iter().map(Plant::vm_count).sum::<usize>(), 1);
    // The shop-known VM survived.
    let q = run_query(&mut s, &known).unwrap();
    assert_eq!(q.get_str("vmid"), Some(known.0.clone()));
}

/// The VMIDs in the shop's soft cache, in order.
fn cached_ids(s: &Site) -> Vec<VmId> {
    s.shop
        .select("true")
        .unwrap()
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn recovery_preserves_live_vms_and_drops_destroyed_ones() {
    let mut s = site_with(3, CostModel::FreeMemoryPrototype);
    let mut ids = Vec::new();
    for _ in 0..4 {
        let ad = run_create(&mut s, order(32)).unwrap();
        ids.push(VmId(ad.get_str("vmid").unwrap()));
    }
    run_destroy(&mut s, &ids[0]).unwrap();
    s.shop.crash(&mut s.engine);
    assert!(cached_ids(&s).is_empty(), "a crash loses the soft cache");
    let stats = s.shop.recover(&mut s.engine);
    assert_eq!(stats.settled, 4, "{stats:?}");
    assert_eq!(stats.reaped, 0, "{stats:?}");
    assert_eq!(
        cached_ids(&s),
        ids[1..],
        "live VMs restored, destroyed one dropped"
    );
    assert!(matches!(
        run_query(&mut s, &ids[0]).unwrap_err(),
        ShopError::UnknownVm(_)
    ));
    for id in &ids[1..] {
        assert_eq!(
            run_query(&mut s, id).unwrap().get_str("vmid"),
            Some(id.0.clone())
        );
    }
}

#[test]
fn rebuild_after_restart_skips_a_plant_that_died_in_between() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let mut ids = Vec::new();
    for _ in 0..4 {
        let ad = run_create(&mut s, order(32)).unwrap();
        ids.push(VmId(ad.get_str("vmid").unwrap()));
    }
    // Two per plant under free-memory bidding.
    assert_eq!(s.plants[0].vm_count(), 2);
    s.shop.crash(&mut s.engine);
    // node0's host crashes and reboots between the crash and the
    // recovery: it answers the census, without its VMs.
    let victim = s.plants[0].clone();
    s.engine.schedule(SimDuration::from_secs(1), move |engine| {
        victim.host_crashed(engine);
        victim.host_recovered(engine);
    });
    s.engine.run();
    let stats = s.shop.recover(&mut s.engine);
    assert_eq!(stats.reaped, 0, "{stats:?}");
    let survivors: Vec<VmId> = ids
        .iter()
        .filter(|id| s.plants[1].vm_state(id).unwrap().is_some())
        .cloned()
        .collect();
    assert_eq!(survivors.len(), 2);
    assert_eq!(
        cached_ids(&s),
        survivors,
        "only the survivor's VMs come back"
    );
    // The dead plant's VMs are gone; the survivor's are served.
    let mut served = 0;
    for id in &ids {
        if run_query(&mut s, id).is_ok() {
            served += 1;
        }
    }
    assert_eq!(served, 2);
}

#[test]
fn recovery_keeps_the_vms_of_a_plant_that_did_not_answer() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let mut ids = Vec::new();
    for _ in 0..4 {
        let ad = run_create(&mut s, order(32)).unwrap();
        ids.push(VmId(ad.get_str("vmid").unwrap()));
    }
    // node0 is down, not wiped, across the shop's crash and recovery:
    // its VMs stay cached, so once it is back they are no orphans.
    s.plants[0].fail();
    s.shop.crash(&mut s.engine);
    let stats = s.shop.recover(&mut s.engine);
    assert_eq!(stats.reaped, 0, "{stats:?}");
    assert_eq!(cached_ids(&s), ids);
    s.plants[0].revive();
    assert_eq!(s.shop.gc_orphans(&mut s.engine), 0);
    s.engine.run();
    assert_eq!(total_vms(&s), 4);
    for id in &ids {
        assert!(run_query(&mut s, id).is_ok(), "VM {id} lost after recovery");
    }
}

#[test]
fn recovery_reaps_a_vm_the_journal_never_recorded() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let known = run_create(&mut s, order(64)).unwrap();
    let known = VmId(known.get_str("vmid").unwrap());
    // A VM created on a plant behind the shop's back.
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].create(
        &mut s.engine,
        order(32),
        Box::new(move |_, res| *out2.borrow_mut() = Some(res)),
    );
    s.engine.run();
    out.borrow().clone().unwrap().unwrap();
    assert_eq!(total_vms(&s), 2);
    s.shop.crash(&mut s.engine);
    let stats = s.shop.recover(&mut s.engine);
    s.engine.run();
    assert_eq!(stats.reaped, 1, "{stats:?}");
    assert_eq!(total_vms(&s), 1);
    assert!(run_query(&mut s, &known).is_ok());

    // With journaling off the journal records nothing: recovery cannot
    // tell a client's VM from an orphan, so it reaps nothing.
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    s.shop.set_tuning(vmplants_shop::ShopTuning {
        journal: false,
        ..vmplants_shop::ShopTuning::default()
    });
    run_create(&mut s, order(64)).unwrap();
    s.shop.crash(&mut s.engine);
    let stats = s.shop.recover(&mut s.engine);
    s.engine.run();
    assert_eq!(stats.reaped, 0, "{stats:?}");
    assert_eq!(total_vms(&s), 1);
}

#[test]
fn no_plants_registered() {
    let mut s = site_with(0, CostModel::FreeMemoryPrototype);
    assert_eq!(run_create(&mut s, order(64)).unwrap_err(), ShopError::NoPlants);
}

#[test]
fn shop_restart_recovers_from_plants() {
    let mut s = site_with(3, CostModel::FreeMemoryPrototype);
    let mut ids = Vec::new();
    for _ in 0..5 {
        let ad = run_create(&mut s, order(32)).unwrap();
        ids.push(VmId(ad.get_str("vmid").unwrap()));
    }
    // The shop crashes and loses its soft cache — while the NFS server
    // is browned out to a quarter of its bandwidth. Recovery must not
    // care: classads live on the plants and in the journal, not on the
    // file server.
    s.nfs.set_bandwidth_factor(&mut s.engine, 0.25);
    s.shop.crash(&mut s.engine);
    assert!(cached_ids(&s).is_empty());
    let stats = s.shop.recover(&mut s.engine);
    assert_eq!((stats.settled, stats.reaped), (5, 0), "{stats:?}");
    assert_eq!(cached_ids(&s), ids);
    // Every VM is cached at the plant that hosts it, and a query serves
    // that plant's authoritative copy byte for byte.
    for (id, ad) in s.shop.select("true").unwrap() {
        let plant = ad.get_str("plant").unwrap();
        let host = s.plants.iter().find(|p| p.name() == plant).unwrap().clone();
        let served = run_query(&mut s, &id).unwrap();
        assert_eq!(
            served.to_string(),
            host.query(&s.engine, &id).unwrap().to_string(),
            "query for {id:?} drifted from the plant's copy"
        );
    }
    // Back at full bandwidth, service continues.
    s.nfs.set_bandwidth_factor(&mut s.engine, 1.0);
    assert!(run_create(&mut s, order(32)).is_ok());
}

#[test]
fn query_survives_authoritative_plant_death_if_vm_unreachable() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let plant_name = ad.get_str("plant").unwrap();
    let plant = s
        .plants
        .iter()
        .find(|p| p.name() == plant_name)
        .unwrap()
        .clone();
    plant.fail();
    // The VM's plant is down and no other plant knows the VM.
    assert!(matches!(
        run_query(&mut s, &id).unwrap_err(),
        ShopError::UnknownVm(_)
    ));
    // Plant restoration brings the classad back (it is authoritative).
    plant.revive();
    let q = run_query(&mut s, &id).unwrap();
    assert_eq!(q.get_str("vmid"), Some(id.0.clone()));
}

#[test]
fn destroy_through_the_shop() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let final_ad = run_destroy(&mut s, &id).unwrap();
    assert_eq!(final_ad.get_str("state"), Some("collected".into()));
    assert!(matches!(
        run_destroy(&mut s, &id).unwrap_err(),
        ShopError::UnknownVm(_)
    ));
    assert_eq!(s.plants.iter().map(Plant::vm_count).sum::<usize>(), 0);
}

#[test]
fn destroy_of_a_vm_in_production_is_refused_then_succeeds() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let created = Rc::new(RefCell::new(None));
    let created2 = Rc::clone(&created);
    s.shop.create(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| *created2.borrow_mut() = Some(res)),
    );
    s.engine.run_until(vmplants_simkit::SimTime::from_secs(5));
    let id = s
        .plants
        .iter()
        .find_map(|p| p.list_vms().unwrap().pop())
        .expect("a VM in production");
    let refused = Rc::new(RefCell::new(None));
    let refused2 = Rc::clone(&refused);
    s.shop.destroy(
        &mut s.engine,
        &id,
        Box::new(move |_, res| *refused2.borrow_mut() = Some(res)),
    );
    s.engine.run();
    match refused.borrow_mut().take() {
        Some(Err(ShopError::Plant(vmplants_plant::PlantError::InvalidOrder(m)))) => {
            assert!(m.contains("cannot collect a VM in state 'cloning'"), "{m}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    let ad = created.borrow_mut().take().unwrap().unwrap();
    assert_eq!(ad.get_str("vmid"), Some(id.0.clone()));
    // The later destroy reuses the shop's `destroy:{id}` key and runs.
    let final_ad = run_destroy(&mut s, &id).unwrap();
    assert_eq!(final_ad.get_str("state"), Some("collected".into()));
    assert_eq!(total_vms(&s), 0);
}

#[test]
fn brokered_plants_participate_in_bidding() {
    let mut s = site_with(1, CostModel::FreeMemoryPrototype);
    // A second plant reachable only through a broker.
    let mut rng = SimRng::seed_from_u64(77);
    let nfs = NfsServer::new("storage2");
    let mut warehouse = Warehouse::new();
    publish_experiment_goldens(&mut warehouse, &nfs);
    let domains = DomainDirectory::new();
    domains.register_experiment_domain();
    let remote = Plant::new(
        PlantConfig::new("remote0"),
        Host::new(HostSpec::e1350_node("remote0")),
        nfs,
        Rc::new(RefCell::new(warehouse)),
        domains,
        &mut rng,
    );
    s.shop
        .register_broker(VmBroker::new("broker", vec![remote.clone()]));
    assert_eq!(s.shop.plants().len(), 2);
    // Fill the local plant so the brokered one wins the next bid.
    s.plants[0].host().register_vm(1024);
    let ad = run_create(&mut s, order(64)).unwrap();
    assert_eq!(ad.get_str("plant"), Some("remote0".into()));
}

#[test]
fn shop_migrates_vms_and_repoints_its_cache() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let source = ad.get_str("plant").unwrap();
    let target = if source == "node0" { "node1" } else { "node0" };

    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.migrate(
        &mut s.engine,
        &id,
        target,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    let moved = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_eq!(moved.get_str("plant"), Some(target.to_owned()));

    // Queries and destroys route to the new plant without a search.
    let q = run_query(&mut s, &id).unwrap();
    assert_eq!(q.get_str("plant"), Some(target.to_owned()));
    run_destroy(&mut s, &id).unwrap();
    assert_eq!(s.plants.iter().map(Plant::vm_count).sum::<usize>(), 0);

    // Unknown target plant fails cleanly.
    let ad2 = run_create(&mut s, order(32)).unwrap();
    let id2 = VmId(ad2.get_str("vmid").unwrap());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.migrate(
        &mut s.engine,
        &id2,
        "ghost-plant",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().is_err());
}

#[test]
fn shop_publish_routes_to_the_authoritative_plant() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.publish(
        &mut s.engine,
        &id,
        "published-through-shop",
        "published through the shop",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    let gid = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_eq!(gid.0, "published-through-shop");
    // The VM resumed and the new golden serves future requests.
    let q = run_query(&mut s, &id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
    let ad2 = run_create(&mut s, order(64)).unwrap();
    assert_eq!(ad2.get_str("golden_id"), Some("published-through-shop".into()));
    // Unknown VM fails cleanly.
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.publish(
        &mut s.engine,
        &VmId("vm-ghost".into()),
        "x",
        "x",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(matches!(
        Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap(),
        Err(ShopError::UnknownVm(_))
    ));
}

#[test]
fn creation_latencies_land_in_the_paper_envelope() {
    let mut s = site_with(8, CostModel::FreeMemoryPrototype);
    for _ in 0..16 {
        run_create(&mut s, order(32)).unwrap();
    }
    let log = s.shop.request_log();
    let latencies: Vec<f64> = log.iter().map(|e| e.latency.as_secs_f64()).collect();
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    // §4.3: 32 MB VMs average ~25 s end-to-end.
    assert!((20.0..32.0).contains(&mean), "mean latency {mean}");
    assert!(latencies.iter().all(|&l| (15.0..45.0).contains(&l)));
}

#[test]
fn requirements_constrain_the_bidders() {
    let mut s = site_with(4, CostModel::FreeMemoryPrototype);
    // Load every plant but node2 so only it clears the free-memory bar.
    for (i, plant) in s.plants.iter().enumerate() {
        if i != 2 {
            plant.host().register_vm(2048);
        }
    }
    let constraint = "alive && name == \"node2\" && freememory >= 64";
    for _ in 0..3 {
        let ad = run_create(&mut s, order(64).with_requirements(constraint)).unwrap();
        assert_eq!(ad.get_str("plant"), Some("node2".into()));
    }
    // One parse, the rest served from the expression cache.
    let (hits, misses) = s.shop.expr_cache_stats();
    assert_eq!(misses, 1);
    assert!(hits >= 2, "repeat orders hit the cache ({hits} hits)");
}

#[test]
fn unsatisfiable_requirements_fail_fast() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let err = run_create(&mut s, order(64).with_requirements("freememory > 999999"))
        .unwrap_err();
    assert_eq!(err, ShopError::AllPlantsExcluded);
}

#[test]
fn malformed_requirements_are_an_invalid_order() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let err = run_create(&mut s, order(64).with_requirements("&& nope")).unwrap_err();
    assert!(
        matches!(err, ShopError::Plant(vmplants_plant::PlantError::InvalidOrder(_))),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------
// Shop crash–recovery: the durable journal, deterministic restart, and
// client failover. Each test pins the crash into a different order
// phase (verified from the journal itself at crash time) and asserts
// exactly-once completion.
// ---------------------------------------------------------------------

fn submit_keyed(
    s: &mut Site,
    key: &str,
    order: ProductionOrder,
) -> Rc<RefCell<Option<Result<ClassAd, ShopError>>>> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.shop.create_keyed(
        &mut s.engine,
        key.to_string(),
        order,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    out
}

/// Crash the shop at `crash_at`, capturing the journal at that instant,
/// and recover it at `recover_at`, capturing the recovery stats.
fn crash_then_recover(
    s: &mut Site,
    crash_at: SimDuration,
    recover_at: SimDuration,
) -> (
    Rc<RefCell<String>>,
    Rc<RefCell<Option<vmplants_shop::RecoveryStats>>>,
) {
    let journal_at_crash = Rc::new(RefCell::new(String::new()));
    let stats = Rc::new(RefCell::new(None));
    let shop = s.shop.clone();
    let journal2 = Rc::clone(&journal_at_crash);
    s.engine.schedule(crash_at, move |engine| {
        *journal2.borrow_mut() = shop.journal_text();
        shop.crash(engine);
    });
    let shop = s.shop.clone();
    let stats2 = Rc::clone(&stats);
    s.engine.schedule(recover_at, move |engine| {
        *stats2.borrow_mut() = Some(shop.recover(engine));
    });
    (journal_at_crash, stats)
}

#[test]
fn shop_crash_mid_bidding_restarts_the_order_exactly_once() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let client = ShopClient::new("c", s.shop.clone());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    client.submit(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    // The bid round is still in flight 250 ms in: bids solicited, no
    // winner dispatched yet.
    let (journal, stats) = crash_then_recover(
        &mut s,
        SimDuration::from_millis(250),
        SimDuration::from_secs(5),
    );
    s.engine.run();

    let journal = journal.borrow().clone();
    assert!(
        journal.contains("bids-requested"),
        "crash was meant to land mid-bidding:\n{journal}"
    );
    assert!(
        !journal.contains("dispatched"),
        "crash was meant to land before dispatch:\n{journal}"
    );
    let stats = stats.borrow().clone().unwrap();
    assert_eq!(stats.restarted, 1, "{stats:?}");
    assert_eq!(stats.adopted + stats.resumed, 0, "{stats:?}");

    let ad = out.borrow().clone().expect("client settled").unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert_eq!(total_vms(&s), 1, "exactly one VM for the restarted order");
    assert!(client.resubmits() >= 1, "failover actually resubmitted");
    assert_eq!(s.shop.gc_orphans(&mut s.engine), 0, "no orphans");
}

#[test]
fn shop_crash_mid_dispatch_resumes_the_production_exactly_once() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let client = ShopClient::new("c", s.shop.clone());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    client.submit(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    // 12 s in the winning plant is mid-clone: dispatched, not published.
    let (journal, stats) = crash_then_recover(
        &mut s,
        SimDuration::from_secs(12),
        SimDuration::from_secs(15),
    );
    s.engine.run();

    let journal = journal.borrow().clone();
    assert!(
        journal.contains("dispatched"),
        "crash was meant to land mid-dispatch:\n{journal}"
    );
    assert!(
        !journal.contains("published"),
        "crash was meant to land before publish:\n{journal}"
    );
    let stats = stats.borrow().clone().unwrap();
    assert_eq!(stats.resumed, 1, "{stats:?}");
    assert_eq!(stats.adopted + stats.restarted, 0, "{stats:?}");

    let ad = out.borrow().clone().expect("client settled").unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert_eq!(
        total_vms(&s),
        1,
        "the resumed dispatch must not fork a duplicate production"
    );
    assert_eq!(s.shop.gc_orphans(&mut s.engine), 0, "no orphans");
}

#[test]
fn shop_crash_post_publish_replays_from_the_journal_without_a_second_vm() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let out = submit_keyed(&mut s, "order:c:0", order(64));
    s.engine.run();
    let first = out.borrow().clone().unwrap().unwrap();
    assert_eq!(total_vms(&s), 1);

    s.shop.crash(&mut s.engine);
    let stats = s.shop.recover(&mut s.engine);
    assert_eq!(stats.settled, 1, "{stats:?}");
    assert_eq!(stats.adopted + stats.resumed + stats.restarted, 0, "{stats:?}");

    // A client that never saw the answer resubmits under the same key:
    // the journal replays the published classad verbatim, with zero
    // re-execution.
    let replay = submit_keyed(&mut s, "order:c:0", order(64));
    s.engine.run();
    let replayed = replay.borrow().clone().unwrap().unwrap();
    assert_eq!(replayed.to_string(), first.to_string());
    assert_eq!(total_vms(&s), 1, "replay created no second VM");
    // The recovered cache still serves queries for the adopted classad.
    let id = VmId(first.get_str("vmid").unwrap());
    assert_eq!(
        run_query(&mut s, &id).unwrap().get_str("vmid"),
        Some(id.0.clone())
    );
}

/// `n` keyed orders, run one at a time; each VM is destroyed through
/// the shop once created, except the last `live`. Returns the site and
/// every VMID in order.
fn churn(n: usize, live: usize) -> (Site, Vec<VmId>) {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let mut ids = Vec::new();
    for i in 0..n {
        let out = submit_keyed(&mut s, &format!("order:c:{i}"), order(64));
        s.engine.run();
        let ad = out.borrow().clone().unwrap().unwrap();
        let id = VmId(ad.get_str("vmid").unwrap());
        if i + live < n {
            run_destroy(&mut s, &id).unwrap();
        }
        ids.push(id);
    }
    (s, ids)
}

/// The journal holds a classad only while its VM lives: at N and at 4N
/// orders it holds as many as there are live VMs, while its records keep
/// growing at four per order. A destroyed VM's key replays a typed error
/// and re-executes nothing, and a recovery restores only live VMs into
/// the soft cache.
#[test]
fn journal_classads_are_bounded_by_live_vms() {
    const N: usize = 6;
    const LIVE: usize = 2;
    for n in [N, 4 * N] {
        let (mut s, ids) = churn(n, LIVE);
        assert_eq!(total_vms(&s), LIVE, "n={n}");
        assert_eq!(s.shop.journal_ads(), LIVE, "n={n}");
        assert_eq!(s.shop.journal_len(), 4 * n, "n={n}");

        let replay = submit_keyed(&mut s, "order:c:0", order(64));
        s.engine.run();
        assert_eq!(
            replay.borrow().clone().unwrap(),
            Err(ShopError::UnknownVm(ids[0].clone())),
            "n={n}"
        );
        assert_eq!(total_vms(&s), LIVE, "n={n}: the replay created a VM");
        assert_eq!(s.shop.journal_len(), 4 * n, "n={n}: the replay journaled");

        s.shop.crash(&mut s.engine);
        let stats = s.shop.recover(&mut s.engine);
        assert_eq!(stats.settled, n, "{stats:?}");
        let cached: Vec<VmId> = s
            .shop
            .select("memory_mb == 64")
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(cached, ids[n - LIVE..], "n={n}");
        assert_eq!(s.shop.journal_ads(), LIVE, "n={n}");
    }
}

#[test]
fn vm_finished_during_downtime_is_adopted_not_reexecuted() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let client = ShopClient::new("c", s.shop.clone());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    client.submit(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    // Crash mid-production, stay down long enough for the plant to
    // finish on its own, then recover: the VM must be adopted, not
    // re-executed.
    let (_, stats) = crash_then_recover(
        &mut s,
        SimDuration::from_secs(12),
        SimDuration::from_secs(120),
    );
    s.engine.run();

    let stats = stats.borrow().clone().unwrap();
    assert_eq!(stats.adopted, 1, "{stats:?}");
    assert_eq!(stats.resumed + stats.restarted, 0, "{stats:?}");
    let ad = out.borrow().clone().expect("client settled").unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert_eq!(total_vms(&s), 1);
    assert!(client.resubmits() >= 1);
    assert_eq!(
        s.shop.gc_orphans(&mut s.engine),
        0,
        "the adopted VM is cached, not orphaned"
    );
}

#[test]
fn direct_create_on_a_crashed_shop_is_refused_and_never_resurrected() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    s.shop.crash(&mut s.engine);
    let shop = s.shop.clone();
    s.engine.schedule(SimDuration::from_secs(30), move |engine| {
        shop.recover(engine);
    });
    let result = run_create(&mut s, order(64));
    assert!(matches!(result, Err(ShopError::ShopDown)), "{result:?}");
    // Nothing was journaled, so recovery had nothing to re-run.
    assert!(s.shop.is_alive());
    assert!(
        !s.shop.journal_text().contains("received"),
        "a refused order must not be journaled:\n{}",
        s.shop.journal_text()
    );
    assert_eq!(total_vms(&s), 0, "recovery built a VM nobody is waiting for");
}

#[test]
fn permanent_shop_crash_fails_clients_without_hanging() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let client = ShopClient::new("c", s.shop.clone());
    client.set_tuning(vmplants_shop::ClientTuning {
        give_up: SimDuration::from_secs(600),
        ..vmplants_shop::ClientTuning::default()
    });
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    client.submit(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    let shop = s.shop.clone();
    s.engine.schedule(SimDuration::from_secs(2), move |engine| {
        shop.crash(engine);
    });
    s.engine.run();
    // The client gave up with a typed error instead of waiting forever.
    assert!(matches!(
        out.borrow().clone().expect("client settled"),
        Err(ShopError::ShopDown)
    ));
    assert!(client.resubmits() >= 2, "kept trying until give-up");
    let log = client.log();
    assert_eq!(log.len(), 1);
    assert!(!log[0].success);
    assert!(log[0].latency.as_secs_f64() >= 600.0);
}

#[test]
fn undersized_dedup_cache_still_preserves_exactly_once() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    // A pathological one-entry dedup cache per plant: recovery must then
    // lean on the running-VM backstop instead of the replay slot.
    for plant in &s.plants {
        plant.set_dedup_capacity(1);
    }
    // Bias node1 so both orders land on node0 and share its tiny cache.
    s.plants[1].host().register_vm(512);
    let client = ShopClient::new("c", s.shop.clone());
    let outs: Vec<_> = (0..2)
        .map(|_| {
            let out: Rc<RefCell<Option<Result<ClassAd, ShopError>>>> =
                Rc::new(RefCell::new(None));
            let out2 = Rc::clone(&out);
            client.submit(
                &mut s.engine,
                order(64),
                Box::new(move |_, res| {
                    *out2.borrow_mut() = Some(res);
                }),
            );
            out
        })
        .collect();
    let (_, stats) = crash_then_recover(
        &mut s,
        SimDuration::from_secs(12),
        SimDuration::from_secs(15),
    );
    s.engine.run();

    let stats = stats.borrow().clone().unwrap();
    assert_eq!(
        stats.adopted + stats.resumed + stats.restarted,
        2,
        "both in-flight orders reconciled: {stats:?}"
    );
    for out in &outs {
        let ad = out.borrow().clone().expect("client settled").unwrap();
        assert_eq!(ad.get_str("state"), Some("running".into()));
    }
    assert_eq!(total_vms(&s), 2, "exactly one VM per order");
    // No VMID is resident on two plants.
    let mut seen = std::collections::BTreeSet::new();
    for plant in &s.plants {
        for id in plant.list_vms().unwrap_or_default() {
            assert!(seen.insert(id.clone()), "vm {id:?} resident on two plants");
        }
    }
    assert_eq!(s.shop.gc_orphans(&mut s.engine), 0, "no orphans");
}

#[test]
fn recovery_replay_is_deterministic() {
    let run = || {
        let mut s = site_with(2, CostModel::FreeMemoryPrototype);
        let client = ShopClient::new("c", s.shop.clone());
        for _ in 0..3 {
            client.submit(&mut s.engine, order(64), Box::new(|_, _| {}));
        }
        let (_, _) = crash_then_recover(
            &mut s,
            SimDuration::from_secs(12),
            SimDuration::from_secs(20),
        );
        s.engine.run();
        (s.shop.journal_text(), format!("{:?}", client.log()))
    };
    let (j1, l1) = run();
    let (j2, l2) = run();
    assert_eq!(j1, j2, "journal replay diverged across identical runs");
    assert_eq!(l1, l2, "client log diverged across identical runs");
}

#[test]
fn select_filters_cached_classads() {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    run_create(&mut s, order(32)).unwrap();
    run_create(&mut s, order(64)).unwrap();
    run_create(&mut s, order(64)).unwrap();
    let big = s.shop.select("memory_mb >= 64").unwrap();
    assert_eq!(big.len(), 2);
    assert!(big.iter().all(|(_, ad)| ad.get_int("memory_mb") == Some(64)));
    assert!(s.shop.select("memory_mb >= 4096").unwrap().is_empty());
    assert!(s.shop.select("&& nope").is_err());
}

/// Create one VM, migrate it to the other plant, then crash the shop
/// while `down` (the source, the target or neither) is `fail()`ed,
/// recover, and revive that plant. Neither the recovery nor the orphan
/// sweep after the revival may reap the VM, and a query finds it on
/// the target.
#[test]
fn recovery_recaches_a_migrated_vm_at_the_plant_hosting_it() {
    for case in ["neither", "source", "target"] {
        let mut s = site_with(2, CostModel::FreeMemoryPrototype);
        let out = submit_keyed(&mut s, "order:c:0", order(64));
        s.engine.run();
        let ad = out.borrow().clone().unwrap().unwrap();
        let id = VmId(ad.get_str("vmid").unwrap());
        let (source, target) = match ad.get_str("plant").as_deref() {
            Some("node0") => (0, 1),
            _ => (1, 0),
        };
        let moved = Rc::new(RefCell::new(None));
        let moved2 = Rc::clone(&moved);
        let name = s.plants[target].name().to_owned();
        s.shop.migrate(
            &mut s.engine,
            &id,
            &name,
            Box::new(move |_, res| *moved2.borrow_mut() = Some(res)),
        );
        s.engine.run();
        moved.borrow().clone().unwrap().unwrap();

        let down = match case {
            "source" => Some(s.plants[source].clone()),
            "target" => Some(s.plants[target].clone()),
            _ => None,
        };
        down.iter().for_each(Plant::fail);
        s.shop.crash(&mut s.engine);
        let stats = s.shop.recover(&mut s.engine);
        s.engine.run();
        down.iter().for_each(Plant::revive);
        let gc = s.shop.gc_orphans(&mut s.engine);
        s.engine.run();
        assert_eq!((stats.reaped, gc, total_vms(&s)), (0, 0, 1), "{case} down");
        let q = run_query(&mut s, &id).unwrap();
        assert_eq!(q.get_str("plant"), Some(name));
    }
}

// ---------------------------------------------------------------------
// Crash-point sweep: a fault after every event of a small run.
// ---------------------------------------------------------------------

/// Memory sizes of the orders every sweep run submits through one
/// failover client.
const SWEEP_ORDERS: [u64; 3] = [64, 32, 64];

/// A fault injected into a sweep run after its `k`th event.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The shop crashes and recovers `downtime` later.
    Shop(SimDuration),
    /// The shop crashes and recovers at once, then crashes again
    /// `after` events later and recovers 5 s after that.
    DoubleShop { after: u64 },
    /// Plant `i`'s host crashes and comes back 60 s later.
    Host(usize),
    /// The NFS server goes offline for 30 s.
    Nfs,
    /// Plant `i` is `fail()`ed (down, its productions still running),
    /// the shop crashes and recovers 1 s later, and the plant is
    /// revived 60 s after that. A production the shop re-ran elsewhere
    /// meanwhile leaves a losing copy on the revived plant, so this run
    /// is audited after one orphan sweep.
    ShopWithPlantDown(usize),
}

fn crash_shop(s: &mut Site, downtime: SimDuration) {
    s.shop.crash(&mut s.engine);
    let shop = s.shop.clone();
    s.engine.schedule(downtime, move |engine| {
        shop.recover(engine);
    });
}

fn step_n(s: &mut Site, n: u64) {
    for _ in 0..n {
        if !s.engine.step() {
            break;
        }
    }
}

/// Run the sweep load with `fault` injected after `k` events, to
/// quiesce, and audit the site — before any orphan sweep, except after
/// [`Fault::ShopWithPlantDown`]. Returns the number of events a
/// fault-free run executes (`fault == None`), or the first broken
/// invariant.
fn sweep_run(k: u64, fault: Option<Fault>) -> Result<u64, String> {
    let mut s = site_with(2, CostModel::FreeMemoryPrototype);
    let client = ShopClient::new("c", s.shop.clone());
    let answers = Rc::new(RefCell::new(vec![Vec::new(); SWEEP_ORDERS.len()]));
    for (i, mem) in SWEEP_ORDERS.into_iter().enumerate() {
        let answers = Rc::clone(&answers);
        client.submit(
            &mut s.engine,
            order(mem),
            Box::new(move |_, res| answers.borrow_mut()[i].push(res)),
        );
    }
    let mut crashed_host = None;
    if let Some(fault) = fault {
        step_n(&mut s, k);
        match fault {
            Fault::Shop(downtime) => crash_shop(&mut s, downtime),
            Fault::DoubleShop { after } => {
                s.shop.crash(&mut s.engine);
                s.shop.recover(&mut s.engine);
                step_n(&mut s, after);
                crash_shop(&mut s, SimDuration::from_secs(5));
            }
            Fault::Host(i) => {
                let plant = s.plants[i].clone();
                plant.host_crashed(&mut s.engine);
                s.engine
                    .schedule(SimDuration::from_secs(60), move |engine| {
                        plant.host_recovered(engine);
                    });
                crashed_host = Some(s.plants[i].name().to_owned());
            }
            Fault::ShopWithPlantDown(i) => {
                let plant = s.plants[i].clone();
                plant.fail();
                crash_shop(&mut s, SimDuration::from_secs(1));
                s.engine
                    .schedule(SimDuration::from_secs(61), move |_| plant.revive());
            }
            Fault::Nfs => {
                s.nfs.set_offline(&mut s.engine);
                let nfs = s.nfs.clone();
                s.engine
                    .schedule(SimDuration::from_secs(30), move |engine| {
                        nfs.set_online(engine);
                    });
            }
        }
    }
    s.engine.run();
    if let Some(Fault::ShopWithPlantDown(_)) = fault {
        s.shop.gc_orphans(&mut s.engine);
        s.engine.run();
    }

    // Each order settles exactly once, OK.
    let mut client_vms = Vec::new();
    for (i, answers) in answers.borrow().iter().enumerate() {
        match answers.as_slice() {
            [Ok(ad)] => client_vms.push((
                VmId(ad.get_str("vmid").unwrap()),
                ad.get_str("plant").unwrap(),
            )),
            other => return Err(format!("order {i} settled as {other:?}")),
        }
    }
    // No VmId on two plants; plant records equal host registrations.
    let mut hosted = BTreeMap::new();
    for plant in &s.plants {
        if plant.vm_count() != plant.host().vm_count() {
            return Err(format!(
                "{}: {} VM records, {} host registrations",
                plant.name(),
                plant.vm_count(),
                plant.host().vm_count()
            ));
        }
        for id in plant.list_vms().unwrap_or_default() {
            if let Some(other) = hosted.insert(id.clone(), plant.name().to_owned()) {
                return Err(format!("{id} runs on {other} and {}", plant.name()));
            }
        }
    }
    // Every hosted VM is a client's, at the plant its classad names; a
    // client VM is missing only when its host crashed under it.
    for (id, plant) in &client_vms {
        match hosted.remove(id) {
            Some(at) if at == *plant => {}
            None if crashed_host.as_deref() == Some(plant.as_str()) => {}
            at => return Err(format!("{id} answered on {plant}, hosted on {at:?}")),
        }
    }
    if !hosted.is_empty() {
        return Err(format!("VMs no order owns: {hosted:?}"));
    }
    if crashed_host.is_none() && total_vms(&s) != SWEEP_ORDERS.len() {
        return Err(format!(
            "{} VMs for {} orders",
            total_vms(&s),
            SWEEP_ORDERS.len()
        ));
    }
    Ok(s.engine.events_executed())
}

/// Run `fault` after every event boundary of the fault-free run and
/// fail with every broken point.
fn sweep(faults: &[Fault]) {
    let events = sweep_run(0, None).expect("the fault-free run is clean");
    let mut broken = Vec::new();
    for &fault in faults {
        for k in 0..=events {
            if let Err(why) = sweep_run(k, Some(fault)) {
                broken.push(format!("{fault:?} at k={k}: {why}"));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} broken points:\n{}",
        broken.len(),
        broken.join("\n")
    );
}

#[test]
fn shop_crash_at_every_event_boundary_settles_each_order_on_one_vm() {
    sweep(&[0, 10, 100, 5000].map(|ms| Fault::Shop(SimDuration::from_millis(ms))));
}

#[test]
fn second_shop_crash_soon_after_a_recovery_settles_each_order_on_one_vm() {
    let faults: Vec<Fault> = (5..=21).map(|after| Fault::DoubleShop { after }).collect();
    sweep(&faults);
}

#[test]
fn host_crash_or_nfs_outage_at_every_event_boundary_leaves_no_duplicate() {
    sweep(&[Fault::Host(0), Fault::Host(1), Fault::Nfs]);
}

#[test]
fn shop_crash_while_a_plant_is_down_settles_each_order_on_one_vm() {
    sweep(&[Fault::ShopWithPlantDown(0), Fault::ShopWithPlantDown(1)]);
}
