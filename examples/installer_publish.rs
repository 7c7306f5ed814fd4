//! The §3.2 installer story, end to end: a user builds a customized
//! application VM, publishes it to the warehouse, and from then on the
//! whole site can instantiate it in seconds — then operations moves the
//! original VM to another plant without losing it (§6's migration).
//!
//! ```text
//! cargo run --example installer_publish
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::{Action, ConfigDag};
use vmplants_plant::VmId;
use vmplants_virt::VmSpec;

/// The installer's application DAG: base OS (cached in the stock goldens'
/// history is NOT possible here — this is a fresh application), so the
/// first build is expensive.
fn lss_dag() -> ConfigDag {
    let mut dag = ConfigDag::new();
    dag.add_action(Action::guest("os", "install-mandrake-8.1-base").with_nominal_ms(480_000))
        .unwrap();
    dag.add_action(Action::guest("lss", "install-lss-pipeline").with_nominal_ms(150_000))
        .unwrap();
    dag.add_action(
        Action::guest("worker", "start-lss-worker")
            .with_nominal_ms(1_500)
            .with_output("worker_port"),
    )
    .unwrap();
    dag.chain(&["os", "lss", "worker"]).unwrap();
    dag
}

fn main() {
    let mut site = SimSite::build(SiteConfig::default());
    // A bare-OS golden exists (someone installed the OS off-line once).
    let bare: vmplants_dag::PerformedLog =
        std::iter::once(lss_dag().action("os").unwrap().clone()).collect();
    site.warehouse
        .borrow_mut()
        .publish(
            site.cluster.nfs(),
            "bare-os-64",
            "bare Mandrake 8.1",
            VmSpec::mandrake(64),
            bare,
        )
        .unwrap();

    // 1. The installer builds the application VM: the 2.5-minute pipeline
    // install runs inside the guest.
    let first = site
        .create_vm(VmSpec::mandrake(64), lss_dag())
        .expect("installer build");
    let id = VmId(first.get_str("vmid").unwrap());
    println!(
        "installer build: {:.0}s (clone {:.0}s + configure {:.0}s) on {}",
        first.get_f64("create_s").unwrap(),
        first.get_f64("clone_s").unwrap(),
        first.get_f64("config_s").unwrap(),
        first.eval("plant"),
    );

    // 2. Publish the configured machine as a new golden image.
    let plant = site
        .plants
        .iter()
        .find(|p| p.name() == first.get_str("plant").unwrap())
        .unwrap()
        .clone();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    let t0 = site.engine.now();
    plant.publish_vm(
        &mut site.engine,
        &id,
        "lss-appliance-64",
        "LSS pipeline appliance",
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    out.borrow().as_ref().unwrap().as_ref().expect("published");
    println!(
        "published as 'lss-appliance-64' in {:.0}s (suspend + upload + resume)",
        site.engine.now().since(t0).as_secs_f64()
    );

    // 3. Everyone else now gets the appliance in seconds: the published
    // image matches the full DAG, zero residual configuration.
    let clone = site
        .create_vm(VmSpec::mandrake(64), lss_dag())
        .expect("appliance clone");
    println!(
        "appliance clone: {:.0}s from golden '{}' — {:.0}x faster than the installer build",
        clone.get_f64("create_s").unwrap(),
        clone.get_str("golden_id").unwrap(),
        first.get_f64("create_s").unwrap() / clone.get_f64("create_s").unwrap(),
    );

    // 4. Operations drains the installer's node: migrate the original VM.
    let target = site
        .plants
        .iter()
        .find(|p| p.name() != plant.name())
        .unwrap()
        .name();
    let out = Rc::new(RefCell::new(None));
    let out2 = Rc::clone(&out);
    site.shop.migrate(
        &mut site.engine,
        &id,
        target,
        Box::new(move |_, res| {
            *out2.borrow_mut() = Some(res);
        }),
    );
    site.engine.run();
    let moved = Rc::try_unwrap(out).ok().unwrap().into_inner().unwrap().unwrap();
    println!(
        "migrated {} from {} to {} keeping its address {}",
        id,
        moved.get_str("migrated_from").unwrap(),
        moved.get_str("plant").unwrap(),
        moved.get_str("ip_address").unwrap(),
    );
    println!(
        "\nsite now hosts {} VMs; warehouse holds {} golden images",
        site.total_vms(),
        site.warehouse.borrow().len(),
    );
}
