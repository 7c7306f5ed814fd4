//! Tests for the §3.2 publish flow and the §6 extensions (migration,
//! speculative pre-creation).

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::{
    migrate, DomainDirectory, Plant, PlantConfig, PlantError, ProductionOrder, Request, VmId,
};
use vmplants_simkit::{Engine, SimDuration, SimRng};
use vmplants_virt::VmSpec;
use vmplants_vnet::ProxyEndpoint;
use vmplants_warehouse::store::publish_experiment_goldens;
use vmplants_warehouse::{GoldenId, Warehouse};

struct Site {
    engine: Engine,
    plants: Vec<Plant>,
    warehouse: Rc<RefCell<Warehouse>>,
    domains: DomainDirectory,
    nfs: NfsServer,
}

fn site(n: usize) -> Site {
    let engine = Engine::new();
    let mut rng = SimRng::seed_from_u64(4711);
    let nfs = NfsServer::new("storage");
    let mut warehouse = Warehouse::new();
    publish_experiment_goldens(&mut warehouse, &nfs);
    let warehouse = Rc::new(RefCell::new(warehouse));
    let domains = DomainDirectory::new();
    domains.register_experiment_domain();
    let plants: Vec<Plant> = (0..n)
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
    Site {
        engine,
        plants,
        warehouse,
        domains,
        nfs,
    }
}

fn order(mem: u64, user: &str) -> ProductionOrder {
    ProductionOrder::new(VmSpec::mandrake(mem), invigo_workspace_dag(user), "ufl.edu")
}

fn create_on(site: &mut Site, plant_idx: usize, order: ProductionOrder) -> ClassAd {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.plants[plant_idx].create(
        &mut site.engine,
        order,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap()
}

// ---------------------------------------------------------------- publish

#[test]
fn publish_vm_creates_a_matching_golden_and_resumes_the_vm() {
    let mut s = site(1);
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());

    let before = s.engine.now();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].publish_vm(
        &mut s.engine,
        &id,
        "arijit-workspace-64",
        "Arijit's configured workspace",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    let gid = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_eq!(gid, GoldenId("arijit-workspace-64".into()));
    // Publishing takes real (virtual) time: suspend + upload + resume.
    let elapsed = s.engine.now().since(before).as_secs_f64();
    assert!(elapsed > 8.0, "publish took {elapsed}s");

    // The VM is running again and notes its publication.
    let q = s.plants[0].query(&s.engine, &id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
    assert_eq!(q.get_str("published_as"), Some("arijit-workspace-64".into()));

    // The new golden carries the FULL action history (A-F inherited or
    // executed plus G, H, I), so the same user's DAG now matches with
    // zero residual work.
    let warehouse = s.warehouse.borrow();
    let img = warehouse.get(&gid).unwrap();
    assert_eq!(img.performed.len(), 9);
    let (best, report) = warehouse
        .lookup(&VmSpec::mandrake(64), &invigo_workspace_dag("arijit"))
        .unwrap();
    assert_eq!(best.id, gid);
    assert!(report.is_complete());
}

#[test]
fn published_image_speeds_up_subsequent_creations() {
    let mut s = site(1);
    let first = create_on(&mut s, 0, order(64, "arijit"));
    let first_config = first.get_f64("config_s").unwrap();
    let id = VmId(first.get_str("vmid").unwrap());
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].publish_vm(
        &mut s.engine,
        &id,
        "ws",
        "ws",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(out.borrow().as_ref().unwrap().is_ok());
    // A second identical request clones the published image: everything
    // is cached, configuration is (near) zero.
    let second = create_on(&mut s, 0, order(64, "arijit"));
    assert_eq!(second.get_str("golden_id"), Some("ws".into()));
    let second_config = second.get_f64("config_s").unwrap();
    assert!(
        second_config < first_config / 3.0,
        "config {second_config}s vs first {first_config}s"
    );
}

#[test]
fn publish_rejects_duplicates_and_bad_states() {
    let mut s = site(1);
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());
    // Duplicate of an existing golden id.
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].publish_vm(
        &mut s.engine,
        &id,
        "mandrake81-64mb",
        "dup",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(matches!(
        Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap(),
        Err(PlantError::InvalidOrder(_))
    ));
    // Unknown VM.
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].publish_vm(
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
        Err(PlantError::UnknownVm(_))
    ));
}

/// While a collect's destroy is in flight the VM's record stays
/// `Running`. A publish, a migrate or a second collect issued in that
/// window is refused, the first collect completes, and the host's books
/// still match the VMs it holds.
#[test]
fn a_vm_being_collected_takes_no_publish_migrate_or_collect() {
    let mut s = site(2);
    create_on(&mut s, 0, order(64, "arijit"));
    let doomed = create_on(&mut s, 0, order(32, "arijit"));
    let id = VmId(doomed.get_str("vmid").unwrap());
    let collected = Rc::new(RefCell::new(None));
    let refusals: Rc<RefCell<Vec<PlantError>>> = Rc::default();
    let collected2 = Rc::clone(&collected);
    s.plants[0].collect(
        &mut s.engine,
        &id,
        Box::new(move |_, res| *collected2.borrow_mut() = Some(res)),
    );
    // The same instant: the backend's destroy has not run yet.
    let refused = Rc::clone(&refusals);
    s.plants[0].publish_vm(
        &mut s.engine,
        &id,
        "mid-destroy",
        "mid-destroy",
        Box::new(move |_, res| refused.borrow_mut().push(res.unwrap_err())),
    );
    let refused = Rc::clone(&refusals);
    let (source, target) = (s.plants[0].clone(), s.plants[1].clone());
    migrate(
        &mut s.engine,
        &source,
        &target,
        &id,
        None,
        Box::new(move |_, res| refused.borrow_mut().push(res.unwrap_err())),
    );
    let refused = Rc::clone(&refusals);
    s.plants[0].collect(
        &mut s.engine,
        &id,
        Box::new(move |_, res| refused.borrow_mut().push(res.unwrap_err())),
    );
    s.engine.run();

    let final_ad = collected.borrow_mut().take().unwrap().unwrap();
    assert_eq!(final_ad.get_str("state"), Some("collected".into()));
    let messages: Vec<String> = refusals
        .borrow()
        .iter()
        .map(|e| match e {
            PlantError::InvalidOrder(m) => m.clone(),
            other => panic!("expected a refusal, got {other:?}"),
        })
        .collect();
    assert_eq!(
        messages,
        [
            "cannot publish a VM that is being collected",
            "cannot migrate a VM that is being collected",
            "cannot collect a VM that is being collected",
        ]
    );
    assert!(s.warehouse.borrow().get(&GoldenId("mid-destroy".into())).is_none());
    assert_eq!(s.plants[1].vm_count(), 0);
    // The host's committed memory is the sum over the VMs it still holds.
    for plant in &s.plants {
        let host = plant.host();
        let live: u64 = plant
            .list_vms()
            .unwrap()
            .iter()
            .map(|id| {
                let mem = plant.query(&s.engine, id).unwrap().get_int("memory_mb").unwrap();
                mem as u64 + host.spec().per_vm_overhead_mb
            })
            .sum();
        assert_eq!(host.committed_mb(), live, "{}", plant.name());
        assert_eq!(host.vm_count(), plant.vm_count(), "{}", plant.name());
    }
    assert_eq!(s.plants[0].vm_count(), 1);
}

// -------------------------------------------------------------- migration

fn run_migrate(s: &mut Site, from: usize, to: usize, id: &VmId) -> Result<ClassAd, PlantError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    let (source, target) = (s.plants[from].clone(), s.plants[to].clone());
    migrate(
        &mut s.engine,
        &source,
        &target,
        id,
        None,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
}

/// A migrated VM's target network is bridged to the proxy its order
/// named — here one decoded from the wire with its own host and port,
/// not the `proxy.<domain>:9300` a bare order synthesizes.
#[test]
fn migration_bridges_to_the_proxy_the_order_named() {
    let mut s = site(2);
    let proxy = ProxyEndpoint::new("ufl.edu", "vnet.cise.ufl.edu", 9412);
    let mut sent = order(64, "arijit");
    sent.proxy = proxy.clone().into();
    let wire = Request::Create(sent).to_wire();
    let Ok(Request::Create(decoded)) = Request::from_wire(&wire) else {
        panic!("a create request decodes");
    };
    let ad = create_on(&mut s, 0, decoded);
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(s.plants[0].bridge_of(&id).unwrap().proxy, proxy);

    run_migrate(&mut s, 0, 1, &id).unwrap();
    let bridge = s.plants[1]
        .bridge_of(&id)
        .expect("the target bridged the VM's network");
    assert_eq!(bridge.proxy, proxy);
}

#[test]
fn migration_moves_the_vm_and_all_its_resources() {
    let mut s = site(2);
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());
    let original_ip = ad.get_str("ip_address").unwrap();
    assert_eq!(s.plants[0].vm_count(), 1);

    let before = s.engine.now();
    let moved = run_migrate(&mut s, 0, 1, &id).unwrap();
    let elapsed = s.engine.now().since(before).as_secs_f64();

    // Identity travels; location changes.
    assert_eq!(moved.get_str("vmid"), Some(id.0.clone()));
    assert_eq!(moved.get_str("ip_address"), Some(original_ip));
    assert_eq!(moved.get_str("plant"), Some("node1".into()));
    assert_eq!(moved.get_str("migrated_from"), Some("node0".into()));
    assert_eq!(moved.get_str("state"), Some("running".into()));

    // Source fully released, target fully charged.
    assert_eq!(s.plants[0].vm_count(), 0);
    assert_eq!(s.plants[0].host().vm_count(), 0);
    assert_eq!(s.plants[0].host().disk.file_count(), 0);
    assert_eq!(s.plants[1].vm_count(), 1);
    assert_eq!(s.plants[1].host().vm_count(), 1);
    // Only one IP remains allocated for the domain.
    assert_eq!(s.domains.allocated_count("ufl.edu"), 1);
    // Migration costs suspend + transfer + resume but no NFS cloning:
    // far cheaper than a fresh 64 MB creation (~30 s).
    assert!(elapsed > 3.0 && elapsed < 20.0, "migration took {elapsed}s");

    // The moved VM remains fully operable: query and collect on target.
    let q = s.plants[1].query(&s.engine, &id).unwrap();
    assert!(q.get_f64("uptime_s").is_none() || q.get_str("state") == Some("running".into()));
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[1].collect(
        &mut s.engine,
        &id,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(out.borrow().as_ref().unwrap().is_ok());
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0);
}

#[test]
fn migration_rejects_bad_preconditions() {
    let mut s = site(2);
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());
    // Same plant.
    assert!(matches!(
        run_migrate(&mut s, 0, 0, &id),
        Err(PlantError::InvalidOrder(_))
    ));
    // Unknown VM.
    assert!(matches!(
        run_migrate(&mut s, 0, 1, &VmId("vm-ghost".into())),
        Err(PlantError::UnknownVm(_))
    ));
    // Dead target.
    s.plants[1].fail();
    assert!(matches!(
        run_migrate(&mut s, 0, 1, &id),
        Err(PlantError::PlantDown)
    ));
    // The VM is untouched by the failed attempts.
    let q = s.plants[0].query(&s.engine, &id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
}

#[test]
fn migration_respects_target_network_exhaustion() {
    let mut s = site(2);
    // Rebuild target with zero headroom: 1 network held by another domain.
    let mut rng = SimRng::seed_from_u64(5);
    s.domains
        .register(vmplants_vnet::DomainIpAllocator::new("other.org", [10, 9, 0], 1, 20));
    let tight = Plant::new(
        PlantConfig {
            host_only_networks: 1,
            ..PlantConfig::new("tight")
        },
        Host::new(HostSpec::e1350_node("tight")),
        s.nfs.clone(),
        Rc::clone(&s.warehouse),
        s.domains.clone(),
        &mut rng,
    );
    s.plants[1] = tight;
    // Occupy the single network with the other domain.
    let occupier = ProductionOrder::new(
        VmSpec::mandrake(32),
        invigo_workspace_dag("x"),
        "other.org",
    );
    create_on(&mut s, 1, occupier);
    // Now migrate a ufl.edu VM there: must fail and roll back.
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());
    assert!(matches!(
        run_migrate(&mut s, 0, 1, &id),
        Err(PlantError::NetworkExhausted(_))
    ));
    let q = s.plants[0].query(&s.engine, &id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
    assert_eq!(s.plants[0].vm_count(), 1);
}

#[test]
fn target_crash_during_resume_releases_the_moved_vms_lease() {
    // An undisturbed twin times the migration; the run under test then
    // crashes the target 1 ms before the resume would finish.
    let (start, end) = {
        let mut twin = site(2);
        let ad = create_on(&mut twin, 0, order(64, "arijit"));
        let start = twin.engine.now();
        run_migrate(&mut twin, 0, 1, &VmId(ad.get_str("vmid").unwrap())).unwrap();
        (start, twin.engine.now())
    };
    let mut s = site(2);
    let ad = create_on(&mut s, 0, order(64, "arijit"));
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(s.engine.now(), start);
    let target = s.plants[1].clone();
    let crash_in = end.since(start) - SimDuration::from_millis(1);
    s.engine.schedule(crash_in, move |engine| {
        target.host_crashed(engine);
    });
    assert!(matches!(
        run_migrate(&mut s, 0, 1, &id),
        Err(PlantError::PlantDown)
    ));
    assert_eq!(s.plants[0].vm_count(), 0);
    assert_eq!(s.plants[1].vm_count(), 0);
    assert_eq!(s.plants[0].networks_in_use(), 0);
    assert_eq!(s.plants[1].networks_in_use(), 0);
    // The VM is gone with the target's disk, and so is its address.
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0);
}

// ------------------------------------------------------------- prewarming

fn run_prewarm(s: &mut Site, plant_idx: usize, mem: u64, count: usize) -> usize {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[plant_idx].prewarm(
        &mut s.engine,
        VmSpec::mandrake(mem),
        invigo_workspace_dag("arijit"),
        count,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap()
}

#[test]
fn prewarmed_spares_slash_creation_latency() {
    let mut s = site(1);
    // Cold creation for reference.
    let cold = create_on(&mut s, 0, order(64, "arijit"));
    let cold_clone = cold.get_f64("clone_s").unwrap();

    let made = run_prewarm(&mut s, 0, 64, 2);
    assert_eq!(made, 2);
    let gid = GoldenId("mandrake81-64mb".into());
    assert_eq!(s.plants[0].spare_count(&gid), 2);
    // Spares hold host memory (that is their cost).
    assert_eq!(s.plants[0].host().vm_count(), 3);

    // A warm creation adopts a spare: cloning collapses to sub-second.
    let warm = create_on(&mut s, 0, order(64, "arijit"));
    let warm_clone = warm.get_f64("clone_s").unwrap();
    assert!(warm_clone < 1.0, "warm clone {warm_clone}s");
    // Configuration still runs, so the end-to-end saving is bounded by
    // the clone share of creation (the paper's latency-hiding argument).
    assert!(
        warm.get_f64("create_s").unwrap() < cold.get_f64("create_s").unwrap() / 1.4,
        "warm {} vs cold {}",
        warm.get_f64("create_s").unwrap(),
        cold.get_f64("create_s").unwrap()
    );
    assert!(cold_clone > 10.0 * warm_clone);
    assert_eq!(s.plants[0].spare_count(&gid), 1, "one spare consumed");

    // The adopted VM is a fully functional instance.
    let id = VmId(warm.get_str("vmid").unwrap());
    let q = s.plants[0].query(&s.engine, &id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));
    assert!(warm.get_str("ip_address").is_some());
}

#[test]
fn spares_are_golden_specific() {
    let mut s = site(1);
    run_prewarm(&mut s, 0, 64, 1);
    // A 32 MB request does not match the 64 MB spare: full clone happens.
    let ad = create_on(&mut s, 0, order(32, "arijit"));
    assert!(ad.get_f64("clone_s").unwrap() > 5.0);
    assert_eq!(
        s.plants[0].spare_count(&GoldenId("mandrake81-64mb".into())),
        1,
        "the 64 MB spare is untouched"
    );
}

#[test]
fn prewarm_without_matching_golden_fails() {
    let mut s = site(1);
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plants[0].prewarm(
        &mut s.engine,
        VmSpec::mandrake(128),
        invigo_workspace_dag("arijit"),
        1,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    assert!(matches!(
        Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap(),
        Err(PlantError::NoGoldenImage)
    ));
}
