//! Quickstart: bring up a simulated 8-node site, create a virtual
//! workspace VM through VMShop, inspect it, and collect it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::VmId;
use vmplants_simkit::Obs;
use vmplants_virt::VmSpec;

fn main() {
    // An 8-node IBM e1350-like site with the paper's Mandrake 8.1 golden
    // images (32/64/256 MB) already published to the warehouse. The
    // enabled obs handle records a sim-time trace of everything the site
    // does; pass `Obs::disabled()` (or use `SimSite::build`) to opt out.
    let obs = Obs::enabled();
    let mut site = SimSite::build_with_obs(SiteConfig::default(), obs.clone());
    println!(
        "site up: {} plants, {} golden images, warehouse uses {:.1} GB",
        site.plants.len(),
        site.warehouse.borrow().golden_count(),
        site.cluster.nfs().store.used_bytes() as f64 / (1u64 << 30) as f64,
    );

    // Ask for a 64 MB In-VIGO virtual workspace for user "alice". The DAG
    // names nine configuration actions (Figure 3); the warehouse golden
    // already carries the three base installs, so only the per-user tail
    // executes after cloning.
    let ad = site
        .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
        .expect("creation succeeds");

    println!("\ncreated VM:");
    for attr in [
        "vmid", "plant", "golden_id", "ip_address", "mac_address", "network", "state",
    ] {
        println!("  {attr:<12} = {}", ad.eval(attr));
    }
    println!(
        "  timings      = clone {:.1}s + config {:.1}s = create {:.1}s (paper: 17-85s)",
        ad.get_f64("clone_s").unwrap(),
        ad.get_f64("config_s").unwrap(),
        ad.get_f64("create_s").unwrap(),
    );

    // The same story, recovered from the sim-time trace: the order's
    // critical path tiles the end-to-end latency into contiguous phases
    // (bidding, planning, clone vs resume, configuration scripts), so
    // the phase durations sum exactly to the creation latency above.
    for root in obs.spans_named("order") {
        if let Some(path) = obs.critical_path(root) {
            print!("\n{}", path.render());
        }
    }

    // Query it later: the shop serves from the authoritative plant and
    // refreshes dynamic attributes.
    let id = VmId(ad.get_str("vmid").unwrap());
    site.engine.advance(vmplants_simkit::SimDuration::from_secs(300));
    let q = site.query_vm(&id).expect("query succeeds");
    println!(
        "\nafter 5 minutes: uptime {:.0}s, host pressure {:.2}",
        q.get_f64("uptime_s").unwrap(),
        q.get_f64("host_pressure").unwrap(),
    );

    // Collect (destroy) it: every resource — host memory, host-only
    // network, client-domain IP, clone files — is released.
    let final_ad = site.destroy_vm(&id).expect("collect succeeds");
    println!(
        "\ncollected: state={}, VMs left on site: {}",
        final_ad.eval("state"),
        site.total_vms()
    );
}
