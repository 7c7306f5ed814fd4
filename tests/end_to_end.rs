//! Integration tests spanning the whole stack: shop → plant → warehouse →
//! virt → cluster → vnet, in simulation mode.

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_dag::{Action, ConfigDag, PerformedLog};
use vmplants_plant::{CostModel, ProductionOrder, VmId};
use vmplants_shop::ShopError;
use vmplants_virt::VmSpec;
use vmplants_vnet::DomainIpAllocator;

#[test]
fn full_lifecycle_create_query_destroy() {
    let mut site = SimSite::build(SiteConfig::default());
    let ad = site
        .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
        .unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());

    // Everything a client needs to reach its VM is in the classad (§3.1).
    assert!(ad.get_str("ip_address").is_some());
    assert!(ad.get_str("mac_address").is_some());
    assert!(ad.get_str("network").is_some());
    assert!(ad.get_str("vnc_port").is_some());
    assert_eq!(ad.get_str("client_domain"), Some("ufl.edu".into()));

    let q = site.query_vm(&id).unwrap();
    assert_eq!(q.get_str("state"), Some("running".into()));

    let f = site.destroy_vm(&id).unwrap();
    assert_eq!(f.get_str("state"), Some("collected".into()));
    assert_eq!(site.total_vms(), 0);
    assert!(matches!(
        site.query_vm(&id).unwrap_err(),
        ShopError::UnknownVm(_)
    ));
}

#[test]
fn cross_domain_isolation_holds_site_wide() {
    let mut site = SimSite::build(SiteConfig::default());
    site.domains
        .register(DomainIpAllocator::new("nw.edu", [129, 105, 44], 10, 200));
    let mut ufl_networks = Vec::new();
    let mut nw_networks = Vec::new();
    for i in 0..12 {
        let domain = if i % 2 == 0 { "ufl.edu" } else { "nw.edu" };
        let order = ProductionOrder::new(
            VmSpec::mandrake(32),
            invigo_workspace_dag("user"),
            domain,
        );
        let ad = site.create_order(order).unwrap();
        let key = (ad.get_str("plant").unwrap(), ad.get_str("network").unwrap());
        if domain == "ufl.edu" {
            ufl_networks.push(key);
        } else {
            nw_networks.push(key);
        }
        // IPs come from the right domain.
        let ip = ad.get_str("ip_address").unwrap();
        if domain == "ufl.edu" {
            assert!(ip.starts_with("128.227.56."), "{ip}");
        } else {
            assert!(ip.starts_with("129.105.44."), "{ip}");
        }
    }
    // §3.3's invariant: no (plant, network) pair is shared across domains.
    for key in &ufl_networks {
        assert!(
            !nw_networks.contains(key),
            "host-only network {key:?} shared across client domains!"
        );
    }
}

#[test]
fn installer_publishes_custom_application_image_and_it_wins_matching() {
    // The §3.2 "virtual workspace" story: a user installs an application,
    // the image is published, and later requests for that application DAG
    // clone the customized image instead of reconfiguring from base.
    let mut site = SimSite::build(SiteConfig::default());

    // An application DAG: base install + app install + app start.
    let mut dag = ConfigDag::new();
    dag.add_action(Action::guest("base", "install-mandrake-8.1").with_nominal_ms(600_000))
        .unwrap();
    dag.add_action(Action::guest("app", "install-lss-pipeline").with_nominal_ms(120_000))
        .unwrap();
    dag.add_action(
        Action::guest("run", "start-lss-worker")
            .with_nominal_ms(1_000)
            .with_output("worker_port"),
    )
    .unwrap();
    dag.chain(&["base", "app", "run"]).unwrap();

    // Publish a golden that already has base+app installed.
    let performed: PerformedLog = ["base", "app"]
        .iter()
        .map(|id| dag.action(id).unwrap().clone())
        .collect();
    site.warehouse
        .borrow_mut()
        .publish(
            site.cluster.nfs(),
            "lss-appliance-64",
            "LSS appliance",
            VmSpec::mandrake(64),
            performed,
        )
        .unwrap();

    let ad = site.create_vm(VmSpec::mandrake(64), dag).unwrap();
    // The PPP picked the appliance (score 2) over the base goldens
    // (score 0 for this DAG — their A/B/C operations are foreign to it,
    // so they fail the subset test outright).
    assert_eq!(ad.get_str("golden_id"), Some("lss-appliance-64".into()));
    // Only "run" executed after the clone: creation is fast despite the
    // DAG nominally containing a 10-minute base install.
    let config_s = ad.get_f64("config_s").unwrap();
    assert!(config_s < 15.0, "config took {config_s}s");
    assert!(ad.get_str("worker_port").is_some());
}

#[test]
fn shop_survives_plant_crash_and_cache_loss_together() {
    let mut site = SimSite::build(SiteConfig::default());
    let mut ids = Vec::new();
    for _ in 0..6 {
        let ad = site
            .create_vm(VmSpec::mandrake(32), invigo_workspace_dag("alice"))
            .unwrap();
        ids.push((
            VmId(ad.get_str("vmid").unwrap()),
            ad.get_str("plant").unwrap(),
        ));
    }
    // One plant crashes; the shop crashes and recovers while it is down.
    let crashed = ids[0].1.clone();
    let crashed_plant = site
        .plants
        .iter()
        .find(|p| p.name() == crashed)
        .unwrap()
        .clone();
    crashed_plant.fail();
    site.shop.crash(&mut site.engine);
    let stats = site.shop.recover(&mut site.engine);
    assert_eq!((stats.settled, stats.reaped), (6, 0), "{stats:?}");

    // New creations keep working (re-bid around the dead plant).
    let ad = site
        .create_vm(VmSpec::mandrake(32), invigo_workspace_dag("alice"))
        .unwrap();
    assert_ne!(ad.get_str("plant"), Some(crashed.clone()));

    // VMs on live plants are still queryable.
    let on_live = ids.iter().find(|(_, p)| *p != crashed);
    if let Some((id, _)) = on_live {
        assert!(site.query_vm(id).is_ok());
    }

    // The crashed plant's VMs return after it revives. Recovery kept
    // them cached, so the soft cache covers everything the site hosts
    // and the orphan sweep leaves them alone.
    crashed_plant.revive();
    assert_eq!(site.shop.select("true").unwrap().len(), site.total_vms());
    assert_eq!(site.shop.gc_orphans(&mut site.engine), 0);
    for (id, _) in &ids {
        assert!(site.query_vm(id).is_ok(), "VM {id} lost after recovery");
    }
}

#[test]
fn uml_and_vmware_vms_coexist_on_one_site() {
    let mut site = SimSite::build(SiteConfig::default());
    // Publish a UML golden too.
    {
        let dag = invigo_workspace_dag("template");
        let base: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        site.warehouse
            .borrow_mut()
            .publish(
                site.cluster.nfs(),
                "uml-32",
                "UML golden",
                VmSpec::uml(32),
                base,
            )
            .unwrap();
    }
    let vmware_ad = site
        .create_vm(VmSpec::mandrake(32), invigo_workspace_dag("a"))
        .unwrap();
    let uml_ad = site
        .create_vm(VmSpec::uml(32), invigo_workspace_dag("b"))
        .unwrap();
    assert_eq!(vmware_ad.get_str("vmm"), Some("vmware".into()));
    assert_eq!(uml_ad.get_str("vmm"), Some("uml".into()));
    // UML boots, so its clone is much slower (§4.3: 76 s vs ~10 s).
    let vmware_clone = vmware_ad.get_f64("clone_s").unwrap();
    let uml_clone = uml_ad.get_f64("clone_s").unwrap();
    assert!(
        uml_clone > 4.0 * vmware_clone,
        "uml {uml_clone}s vs vmware {vmware_clone}s"
    );
    assert_eq!(site.total_vms(), 2);
}

#[test]
fn classads_support_expression_queries_over_the_fleet() {
    let mut site = SimSite::build(SiteConfig::default());
    for mem in [32u64, 64, 256, 32, 64] {
        site.create_vm(VmSpec::mandrake(mem), invigo_workspace_dag("alice"))
            .unwrap();
    }
    // Use the classad expression language to filter the fleet, as an
    // information system consumer would.
    let constraint = vmplants_classad::parse_expr("memory_mb >= 64 && state == \"running\"")
        .unwrap();
    let mut hits = 0;
    for plant in &site.plants {
        for id in plant.list_vms().unwrap() {
            let ad = plant.query(&site.engine, &id).unwrap();
            if constraint.eval_solo(&ad).is_true() {
                hits += 1;
            }
        }
    }
    assert_eq!(hits, 3, "64, 256, 64");
}

#[test]
fn memory_exhaustion_eventually_rejects_new_vms() {
    // Five plants can host a finite number of 256 MB VMs; the free-memory
    // bid never refuses, but the golden-matching and network paths hold,
    // and host memory pressure keeps accumulating. Verify the site tracks
    // commitment accurately under a long burst.
    let mut config = SiteConfig::default();
    config.testbed.nodes = 2;
    config.cost_model = CostModel::FreeMemoryPrototype;
    let mut site = SimSite::build(config);
    for _ in 0..10 {
        site.create_vm(VmSpec::mandrake(256), invigo_workspace_dag("alice"))
            .unwrap();
    }
    let total_committed: u64 = site
        .plants
        .iter()
        .map(|p| p.host().committed_mb())
        .sum();
    assert_eq!(total_committed, 10 * (256 + 24));
    // Pressure is now well above 1 on both hosts.
    for plant in &site.plants {
        assert!(plant.host().pressure_factor() > 1.0);
    }
}
