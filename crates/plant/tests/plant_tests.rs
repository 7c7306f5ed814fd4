//! End-to-end tests of the plant daemon against the simulated substrate.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_dag::{Action, ConfigDag, ErrorPolicy, PerformedLog};
use vmplants_plant::{DomainDirectory, Plant, PlantConfig, PlantError, ProductionOrder, VmId};
use vmplants_simkit::{Engine, SimDuration, SimRng};
use vmplants_virt::{Hypervisor, VmSpec};
use vmplants_warehouse::store::publish_experiment_goldens;
use vmplants_warehouse::Warehouse;
use vmplants_vnet::DomainIpAllocator;

struct Site {
    engine: Engine,
    plant: Plant,
    nfs: NfsServer,
    warehouse: Rc<RefCell<Warehouse>>,
    domains: DomainDirectory,
}

fn site() -> Site {
    let engine = Engine::new();
    let mut rng = SimRng::seed_from_u64(1234);
    let nfs = NfsServer::new("storage");
    let mut warehouse = Warehouse::new();
    publish_experiment_goldens(&mut warehouse, &nfs);
    let warehouse = Rc::new(RefCell::new(warehouse));
    let domains = DomainDirectory::new();
    domains.register_experiment_domain();
    let host = Host::new(HostSpec::e1350_node("node0"));
    let plant = Plant::new(
        PlantConfig::new("node0"),
        host,
        nfs.clone(),
        Rc::clone(&warehouse),
        domains.clone(),
        &mut rng,
    );
    Site {
        engine,
        plant,
        nfs,
        warehouse,
        domains,
    }
}

fn order(mem: u64) -> ProductionOrder {
    ProductionOrder::new(VmSpec::mandrake(mem), invigo_workspace_dag("arijit"), "ufl.edu")
}

fn run_create(site: &mut Site, order: ProductionOrder) -> Result<ClassAd, PlantError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.plant.create(
        &mut site.engine,
        order,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap()
}

fn run_collect(site: &mut Site, id: &VmId) -> Result<ClassAd, PlantError> {
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.plant.collect(
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
fn create_produces_a_complete_classad() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert_eq!(ad.get_int("memory_mb"), Some(64));
    assert_eq!(ad.get_str("plant"), Some("node0".into()));
    assert_eq!(ad.get_str("golden_id"), Some("mandrake81-64mb".into()));
    // The host action D applied the lease.
    let ip = ad.get_str("ip_address").unwrap();
    assert!(ip.starts_with("128.227.56."), "{ip}");
    assert!(ad.get_str("mac_address").unwrap().starts_with("02:"));
    // Guest outputs (H reports vnc_port) landed too.
    assert!(ad.get_str("vnc_port").is_some());
    // Timing attributes.
    assert!(ad.get_f64("clone_s").unwrap() > 5.0);
    assert!(ad.get_f64("create_s").unwrap() > ad.get_f64("clone_s").unwrap());
    assert_eq!(s.plant.vm_count(), 1);
    assert_eq!(s.plant.host().vm_count(), 1);
}

#[test]
fn creation_latency_is_in_the_papers_envelope() {
    // §1: "VM creation in 17 to 85 seconds"; a lone 32 MB clone on an idle
    // plant sits at the fast end.
    let mut s = site();
    let started = s.engine.now();
    let ad = run_create(&mut s, order(32)).unwrap();
    let create_s = ad.get_f64("create_s").unwrap();
    assert!((15.0..40.0).contains(&create_s), "create took {create_s}s");
    assert!(s.engine.now() > started);
}

#[test]
fn collect_releases_all_resources() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(s.domains.allocated_count("ufl.edu"), 1);
    let final_ad = run_collect(&mut s, &id).unwrap();
    assert_eq!(final_ad.get_str("state"), Some("collected".into()));
    assert_eq!(s.plant.vm_count(), 0);
    assert_eq!(s.plant.host().vm_count(), 0);
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0);
    // Clone files are gone from the host disk.
    assert_eq!(s.plant.host().disk.file_count(), 0);
    // Collect of the same id again errors.
    assert!(matches!(
        run_collect(&mut s, &id),
        Err(PlantError::UnknownVm(_))
    ));
}

#[test]
fn collect_refuses_a_vm_still_in_production() {
    let mut s = site();
    let created = Rc::new(RefCell::new(None));
    let created2 = Rc::clone(&created);
    s.plant.create(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| *created2.borrow_mut() = Some(res)),
    );
    s.engine.run_until(vmplants_simkit::SimTime::from_secs(2));
    let id = s
        .plant
        .list_vms()
        .unwrap()
        .pop()
        .expect("record inserted on accept");
    let refused = Rc::new(RefCell::new(None));
    let refused2 = Rc::clone(&refused);
    s.plant.collect(
        &mut s.engine,
        &id,
        Box::new(move |_, res| *refused2.borrow_mut() = Some(res)),
    );
    s.engine.run();
    match refused.borrow_mut().take() {
        Some(Err(PlantError::InvalidOrder(m))) => {
            assert_eq!(m, "cannot collect a VM in state 'cloning'")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The production line kept its clone tree and memory and finished.
    let ad = created.borrow_mut().take().unwrap().unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    let final_ad = run_collect(&mut s, &id).unwrap();
    assert_eq!(final_ad.get_str("state"), Some("collected".into()));
    assert_eq!(s.plant.vm_count(), 0);
    assert_eq!(s.plant.host().vm_count(), 0);
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0);
}

#[test]
fn query_refreshes_dynamic_attributes() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    s.engine.advance(SimDuration::from_secs(100));
    let q = s.plant.query(&s.engine, &id).unwrap();
    let uptime = q.get_f64("uptime_s").unwrap();
    assert!((99.0..102.0).contains(&uptime), "uptime {uptime}");
    assert!(matches!(
        s.plant.query(&s.engine, &VmId("vm-ghost".into())),
        Err(PlantError::UnknownVm(_))
    ));
}

#[test]
fn estimates_follow_the_cost_models() {
    let mut s = site();
    // Prototype model: cost equals committed memory.
    assert_eq!(s.plant.estimate(&order(64)).unwrap(), 0.0);
    run_create(&mut s, order(64)).unwrap();
    assert_eq!(s.plant.estimate(&order(64)).unwrap(), 88.0);
}

#[test]
fn no_matching_golden_fails_fast() {
    let mut s = site();
    // 128 MB has no golden.
    let err = run_create(&mut s, order(128)).unwrap_err();
    assert_eq!(err, PlantError::NoGoldenImage);
    assert_eq!(s.plant.vm_count(), 0);
    // The base goldens are user-independent, so a DAG for a different user
    // still finds a golden (and gets its own user created at clone time).
    let other = ProductionOrder::new(
        VmSpec::mandrake(64),
        invigo_workspace_dag("someone-else"),
        "ufl.edu",
    );
    let ad = run_create(&mut s, other).unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
}

#[test]
fn unknown_client_domain_is_rejected() {
    let mut s = site();
    let bad = ProductionOrder::new(
        VmSpec::mandrake(64),
        invigo_workspace_dag("arijit"),
        "unregistered.example",
    );
    assert!(matches!(
        run_create(&mut s, bad).unwrap_err(),
        PlantError::Network(_)
    ));
}

#[test]
fn host_only_network_exhaustion() {
    let mut s = site();
    // Rebuild the plant with a single network and two domains.
    let mut rng = SimRng::seed_from_u64(5);
    s.domains
        .register(DomainIpAllocator::new("other.org", [10, 1, 0], 1, 50));
    let plant = Plant::new(
        PlantConfig {
            host_only_networks: 1,
            ..PlantConfig::new("tiny")
        },
        Host::new(HostSpec::e1350_node("tiny")),
        s.nfs.clone(),
        Rc::clone(&s.warehouse),
        s.domains.clone(),
        &mut rng,
    );
    s.plant = plant;
    run_create(&mut s, order(32)).unwrap();
    let other = ProductionOrder::new(
        VmSpec::mandrake(32),
        invigo_workspace_dag("arijit"),
        "other.org",
    );
    assert!(matches!(
        run_create(&mut s, other).unwrap_err(),
        PlantError::NetworkExhausted(_)
    ));
    // Same domain still fine.
    run_create(&mut s, order(32)).unwrap();
    assert_eq!(s.plant.vm_count(), 2);
}

/// Build a one-action DAG with the given error policy and a warehouse
/// golden that matches it with everything residual.
fn failing_site(policy: ErrorPolicy, failure_rate: f64) -> (Site, ProductionOrder) {
    let s = site();
    let mut dag = ConfigDag::new();
    dag.add_action(
        Action::guest("X", "flaky-step")
            .with_nominal_ms(1_000)
            .with_error_policy(policy),
    )
    .unwrap();
    s.warehouse
        .borrow_mut()
        .publish(
            &s.nfs,
            "blank-64",
            "blank",
            VmSpec::mandrake(64),
            PerformedLog::new(),
        )
        .unwrap();
    // Replace the backend with a fault-injecting one.
    let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(77)));
    let mut hv = Hypervisor::new(rng);
    hv.set_exec_failure_rate(failure_rate);
    s.plant.install_hypervisor(hv);
    let order = ProductionOrder::new(VmSpec::mandrake(64), dag, "ufl.edu");
    (s, order)
}

#[test]
fn abort_policy_fails_creation_and_cleans_up() {
    let (mut s, order) = failing_site(ErrorPolicy::Abort, 1.0);
    let err = run_create(&mut s, order).unwrap_err();
    assert!(
        matches!(err, PlantError::ActionFailed { ref action_id, .. } if action_id == "X"),
        "{err}"
    );
    assert_eq!(s.plant.vm_count(), 0);
    assert_eq!(s.plant.host().vm_count(), 0);
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0);
    assert_eq!(s.plant.host().disk.file_count(), 0);
}

#[test]
fn ignore_policy_completes_with_a_note() {
    let (mut s, order) = failing_site(ErrorPolicy::Ignore, 1.0);
    let ad = run_create(&mut s, order).unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert_eq!(ad.get_str("ignored_failures"), Some("X".into()));
    assert_eq!(s.plant.vm_count(), 1);
}

#[test]
fn retry_policy_exhausts_then_aborts() {
    let (mut s, order) = failing_site(ErrorPolicy::Retry(2), 1.0);
    let err = run_create(&mut s, order).unwrap_err();
    assert!(matches!(err, PlantError::ActionFailed { .. }));
}

#[test]
fn retry_policy_recovers_from_transient_failures() {
    // With a 60% failure rate and 5 retries, some seed will pass; use a
    // seed verified to succeed so the test is deterministic.
    let (mut s, order) = failing_site(ErrorPolicy::Retry(5), 0.6);
    match run_create(&mut s, order) {
        Ok(ad) => assert_eq!(ad.get_str("state"), Some("running".into())),
        Err(PlantError::ActionFailed { .. }) => {
            // Statistically possible; accept but require cleanup.
            assert_eq!(s.plant.vm_count(), 0);
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn recover_policy_runs_the_recovery_sequence() {
    let recovery = vec![Action::guest("X-fix", "cleanup-temp").with_nominal_ms(500)];
    let (mut s, order) = failing_site(ErrorPolicy::Recover(recovery), 1.0);
    // Recovery runs, the retry still fails (rate 1.0) -> abort.
    let err = run_create(&mut s, order).unwrap_err();
    assert!(matches!(err, PlantError::ActionFailed { .. }));
    assert_eq!(s.plant.vm_count(), 0);
}

#[test]
fn dead_plants_answer_plant_down() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    s.plant.fail();
    assert!(matches!(
        run_create(&mut s, order(64)).unwrap_err(),
        PlantError::PlantDown
    ));
    assert!(matches!(
        s.plant.query(&s.engine, &id),
        Err(PlantError::PlantDown)
    ));
    assert!(matches!(s.plant.estimate(&order(64)), Err(PlantError::PlantDown)));
    assert!(matches!(s.plant.list_vms(), Err(PlantError::PlantDown)));
    // After revival the information system is intact (§3.1: the plant is
    // authoritative for its classads).
    s.plant.revive();
    let q = s.plant.query(&s.engine, &id).unwrap();
    assert_eq!(q.get_str("vmid"), Some(id.0.clone()));
}

#[test]
fn host_crash_mid_creation_fails_the_order_and_leaks_nothing() {
    let mut s = site();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.plant.create(
        &mut s.engine,
        order(64),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    // 10 s in, the clone transfer is mid-flight.
    let plant = s.plant.clone();
    s.engine.schedule(SimDuration::from_secs(10), move |engine| {
        plant.host_crashed(engine);
    });
    s.engine.run();
    let res = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap();
    assert!(
        matches!(res, Err(PlantError::PlantDown) | Err(PlantError::Virt(_))),
        "{res:?}"
    );
    assert_eq!(s.plant.vm_count(), 0, "no orphaned records");
    assert_eq!(s.plant.host().vm_count(), 0);
    assert_eq!(s.plant.networks_in_use(), 0, "lease reclaimed");
    assert_eq!(s.domains.allocated_count("ufl.edu"), 0, "IP reclaimed");
    assert!(!s.plant.is_alive());
    assert!(!s.plant.host().is_up());
    assert_eq!(s.plant.epoch(), 1);
}

#[test]
fn host_crash_evicts_running_vms_and_recovery_serves_again() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(s.plant.vm_count(), 1);
    let plant = s.plant.clone();
    s.engine.schedule(SimDuration::from_secs(5), move |engine| {
        let evicted = plant.host_crashed(engine);
        assert_eq!(evicted, 1);
    });
    s.engine.run();
    // The crash wiped the record: records do NOT survive a host crash
    // (unlike a soft Plant::fail, whose info system persists).
    assert!(matches!(
        s.plant.query(&s.engine, &id),
        Err(PlantError::PlantDown)
    ));
    s.plant.host_recovered(&s.engine);
    assert!(s.plant.is_alive());
    assert!(s.plant.host().is_up());
    assert!(matches!(
        s.plant.query(&s.engine, &id),
        Err(PlantError::UnknownVm(_))
    ));
    // A fresh creation on the recovered plant works end to end.
    let ad2 = run_create(&mut s, order(64)).unwrap();
    assert_eq!(ad2.get_str("state"), Some("running".into()));
    assert_eq!(s.plant.vm_count(), 1);
}

#[test]
fn a_failed_plant_answers_no_classad_until_revived() {
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let start = s.engine.now();
    let plant = s.plant.clone();
    let down = Rc::new(RefCell::new(None));
    let down2 = Rc::clone(&down);
    let id2 = id.clone();
    s.engine.schedule(SimDuration::from_secs(45), move |engine| {
        plant.fail();
        *down2.borrow_mut() = Some(plant.query(engine, &id2));
    });
    // Revive at 72 s and at once collect the VM: the collected classad
    // reads the host at the collect.
    let plant = s.plant.clone();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    s.engine.schedule(SimDuration::from_secs(72), move |engine| {
        plant.revive();
        plant.collect(
            engine,
            &id,
            Box::new(move |_, res| *out2.borrow_mut() = Some(res)),
        );
    });
    s.engine.run();
    assert!(matches!(
        down.borrow_mut().take(),
        Some(Err(PlantError::PlantDown))
    ));
    let collected = out.borrow_mut().take().unwrap().unwrap();
    assert_eq!(
        collected.get_f64("last_monitor_s"),
        Some((start + SimDuration::from_secs(72)).as_secs_f64())
    );
}

#[test]
fn clone_log_records_every_clone() {
    let mut s = site();
    for _ in 0..3 {
        run_create(&mut s, order(32)).unwrap();
    }
    let log = s.plant.clone_log();
    assert_eq!(log.len(), 3);
    assert_eq!(log[0].resident_before, 0);
    assert_eq!(log[2].resident_before, 2);
    assert!(log.iter().all(|e| e.memory_mb == 32));
    assert!(log.iter().all(|e| e.stats.total.as_secs_f64() > 3.0));
}

#[test]
fn monitor_ticks_update_running_vms() {
    // No monitor event runs: each read carries the host's state at the
    // moment of the read, from the create reply on.
    let mut s = site();
    let ad = run_create(&mut s, order(64)).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(ad.get_f64("uptime_s"), Some(0.0));
    assert_eq!(
        ad.get_f64("last_monitor_s"),
        Some(s.engine.now().as_secs_f64())
    );
    s.engine.advance(SimDuration::from_secs(60));
    let q = s.plant.query(&s.engine, &id).unwrap();
    assert_eq!(q.get_f64("uptime_s"), Some(60.0));
    assert_eq!(
        q.get_f64("last_monitor_s"),
        Some(s.engine.now().as_secs_f64())
    );
    assert_eq!(
        q.get_int("host_free_mb"),
        Some(s.plant.host().free_mb() as i64)
    );
}

#[test]
fn uml_production_line_clones_via_boot() {
    let mut s = site();
    // Publish a UML golden with the base actions performed.
    let dag = invigo_workspace_dag("arijit");
    let base: PerformedLog = ["A", "B", "C", "D", "E", "F"]
        .iter()
        .map(|id| dag.action(id).unwrap().clone())
        .collect();
    s.warehouse
        .borrow_mut()
        .publish(&s.nfs, "uml-32", "uml", VmSpec::uml(32), base)
        .unwrap();
    let order = ProductionOrder::new(VmSpec::uml(32), invigo_workspace_dag("arijit"), "ufl.edu");
    let ad = run_create(&mut s, order).unwrap();
    let clone_s = ad.get_f64("clone_s").unwrap();
    // §4.3: UML average cloning (to boot completion) is 76 s.
    assert!((68.0..86.0).contains(&clone_s), "UML clone {clone_s}s");
    assert_eq!(ad.get_str("vmm"), Some("uml".into()));
}

#[test]
fn two_plants_share_the_domain_directory_without_ip_collisions() {
    let mut s = site();
    let mut rng = SimRng::seed_from_u64(9);
    let plant_b = Plant::new(
        PlantConfig::new("node1"),
        Host::new(HostSpec::e1350_node("node1")),
        s.nfs.clone(),
        Rc::clone(&s.warehouse),
        s.domains.clone(),
        &mut rng,
    );
    let ad_a = run_create(&mut s, order(32)).unwrap();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    plant_b.create(
        &mut s.engine,
        order(32),
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    s.engine.run();
    let ad_b = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    assert_ne!(ad_a.get_str("ip_address"), ad_b.get_str("ip_address"));
    assert_eq!(s.domains.allocated_count("ufl.edu"), 2);
}

#[test]
fn create_times_grow_under_load_figure_6_mechanism() {
    let mut s = site();
    let mut clone_times = Vec::new();
    for _ in 0..16 {
        let ad = run_create(&mut s, order(64)).unwrap();
        clone_times.push(ad.get_f64("clone_s").unwrap());
    }
    let early: f64 = clone_times[..4].iter().sum::<f64>() / 4.0;
    let late: f64 = clone_times[12..].iter().sum::<f64>() / 4.0;
    assert!(
        late > early * 1.2,
        "cloning should slow as the plant fills: early {early:.1}s late {late:.1}s"
    );
}
