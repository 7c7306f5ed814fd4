//! Live service mode: run the whole stack as a real localhost TCP service
//! speaking the XML protocol, and drive it from a client — the Figure 1
//! interaction (discover → bind → create/query/destroy) over actual
//! sockets.
//!
//! ```text
//! cargo run --example live_shop
//! ```

use vmplants::live::{LiveClient, LiveShop};
use vmplants::SiteConfig;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::protocol::Request;
use vmplants_plant::{ProductionOrder, VmId};
use vmplants_virt::VmSpec;

fn main() {
    // "Publish": start the shop and learn its endpoint.
    let shop = LiveShop::start(SiteConfig::default()).expect("bind localhost");
    println!("VMShop live at tcp://{}", shop.addr());

    // "Bind": a client holding the endpoint.
    let client = LiveClient::connect(shop.addr());

    let order = ProductionOrder::new(
        VmSpec::mandrake(64),
        invigo_workspace_dag("alice"),
        "ufl.edu",
    );

    // Show the actual XML that crosses the wire.
    println!("\ncreate request on the wire:\n{}", Request::Create(order.clone()).to_xml().to_pretty_xml());

    // Estimate first (the bidding probe), then create.
    let bid = client.estimate(order.clone()).expect("estimate");
    println!("cheapest bid: {bid}");

    let ad = client.create(order).expect("create over TCP");
    let id = VmId(ad.get_str("vmid").unwrap());
    println!(
        "created {} on {} at {} (simulated creation latency {:.1}s)",
        id,
        ad.eval("plant"),
        ad.eval("ip_address"),
        ad.get_f64("create_s").unwrap(),
    );

    let q = client.query(&id).expect("query over TCP");
    println!("query: state={}", q.eval("state"));

    let final_ad = client.destroy(&id).expect("destroy over TCP");
    println!("destroyed: state={}", final_ad.eval("state"));

    // Errors travel as structured responses too.
    let err = client.query(&VmId("vm-ghost".into())).unwrap_err();
    println!("querying a ghost VM: {err}");

    shop.stop();
    println!("shop stopped.");
}
