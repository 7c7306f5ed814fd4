//! Integration tests of the live TCP service mode.

use vmplants::live::{ClientError, LiveClient, LiveShop};
use vmplants::SiteConfig;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::{ProductionOrder, VmId};
use vmplants_virt::VmSpec;

fn order(user: &str) -> ProductionOrder {
    ProductionOrder::new(
        VmSpec::mandrake(64),
        invigo_workspace_dag(user),
        "ufl.edu",
    )
}

#[test]
fn full_lifecycle_over_tcp() {
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let client = LiveClient::connect(shop.addr());

    let bid = client.estimate(order("alice")).unwrap();
    assert_eq!(bid, 0.0, "idle site bids zero committed memory");

    let ad = client.create(order("alice")).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    assert_eq!(ad.get_str("state"), Some("running".into()));
    assert!(ad.get_f64("create_s").unwrap() > 15.0);

    let q = client.query(&id).unwrap();
    assert_eq!(q.get_str("vmid"), Some(id.0.clone()));

    let f = client.destroy(&id).unwrap();
    assert_eq!(f.get_str("state"), Some("collected".into()));

    match client.query(&id) {
        Err(ClientError::Service { code, .. }) => assert_eq!(code, "unknown-vm"),
        other => panic!("expected unknown-vm, got {other:?}"),
    }
    shop.stop();
}

#[test]
fn multiple_clients_share_one_shop() {
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let addr = shop.addr();
    // Clients on separate threads, strictly request/response — the server
    // serializes them like the prototype's single shop process.
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let client = LiveClient::connect(addr);
                let ad = client.create(order(&format!("user{i}"))).unwrap();
                ad.get_str("vmid").unwrap()
            })
        })
        .collect();
    let ids: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // All four creations succeeded with distinct VMIDs.
    let mut unique = ids.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 4, "{ids:?}");
    shop.stop();
}

#[test]
fn malformed_requests_get_structured_errors() {
    use std::net::TcpStream;
    use vmplants::live::{read_frame, write_frame};
    use vmplants_plant::protocol::Response;

    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let mut stream = TcpStream::connect(shop.addr()).unwrap();
    write_frame(&mut stream, "<this is not xml").unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_wire(&reply).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected error, got {other:?}"),
    }
    shop.stop();
}

#[test]
fn create_failures_cross_the_wire_as_errors() {
    let config = SiteConfig {
        publish_goldens: false, // nothing to clone from
        ..SiteConfig::default()
    };
    let shop = LiveShop::start(config).unwrap();
    let client = LiveClient::connect(shop.addr());
    match client.create(order("alice")) {
        Err(ClientError::Service { code, .. }) => assert_eq!(code, "no-golden"),
        other => panic!("expected no-golden, got {other:?}"),
    }
    shop.stop();
}

#[test]
fn deeply_nested_requirements_are_refused_and_the_shop_keeps_serving() {
    // ~10 KB of parens is far under the frame limit, so only the parser's
    // depth bound keeps it from overflowing the shop thread's stack.
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let client = LiveClient::connect(shop.addr());
    let deep = format!("{}true{}", "(".repeat(5000), ")".repeat(5000));
    match client.create(order("alice").with_requirements(deep)) {
        Err(ClientError::Service { message, .. }) => {
            assert!(message.contains("nested deeper"), "{message}")
        }
        other => panic!("expected a service error, got {other:?}"),
    }
    let ad = client.create(order("alice")).unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    shop.stop();
}

#[test]
fn deeply_nested_xml_frame_is_refused_and_the_shop_keeps_serving() {
    use std::net::TcpStream;
    use vmplants::live::{read_frame, write_frame};
    use vmplants_plant::protocol::Response;

    // 10,000 levels is 70 KB, far under the frame limit, so only the XML
    // parser's depth bound keeps it from overflowing the shop thread's
    // stack.
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let mut stream = TcpStream::connect(shop.addr()).unwrap();
    let deep = "<a>".repeat(10_000) + &"</a>".repeat(10_000);
    write_frame(&mut stream, &deep).unwrap();
    let reply = read_frame(&mut stream).unwrap();
    match Response::from_wire(&reply).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("nested deeper"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    let client = LiveClient::connect(shop.addr());
    let ad = client.create(order("alice")).unwrap();
    assert_eq!(ad.get_str("state"), Some("running".into()));
    shop.stop();
}

#[test]
fn migrate_and_publish_over_tcp() {
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let client = LiveClient::connect(shop.addr());
    let ad = client.create(order("alice")).unwrap();
    let id = VmId(ad.get_str("vmid").unwrap());
    let source = ad.get_str("plant").unwrap();
    let target = if source == "node0" { "node1" } else { "node0" };

    // Publish over the wire.
    let gid = client
        .publish(&id, "alice-workspace", "Alice's workspace")
        .unwrap();
    assert_eq!(gid, "alice-workspace");

    // Migrate over the wire.
    let moved = client.migrate(&id, target).unwrap();
    assert_eq!(moved.get_str("plant"), Some(target.to_owned()));
    assert_eq!(moved.get_str("migrated_from"), Some(source));

    // Error paths travel as structured responses.
    match client.migrate(&VmId("vm-ghost".into()), target) {
        Err(ClientError::Service { code, .. }) => assert_eq!(code, "unknown-vm"),
        other => panic!("expected unknown-vm, got {other:?}"),
    }
    match client.publish(&id, "alice-workspace", "dup") {
        Err(ClientError::Service { code, .. }) => assert_eq!(code, "plant-error"),
        other => panic!("expected plant-error, got {other:?}"),
    }
    shop.stop();
}

#[test]
fn shop_stops_cleanly_and_drops_stop_too() {
    let shop = LiveShop::start(SiteConfig::default()).unwrap();
    let addr = shop.addr();
    shop.stop();
    // The port no longer answers.
    assert!(std::net::TcpStream::connect_timeout(
        &addr,
        std::time::Duration::from_millis(200)
    )
    .is_err());

    // Dropping without stop() also shuts the thread down.
    let shop2 = LiveShop::start(SiteConfig::default()).unwrap();
    let addr2 = shop2.addr();
    drop(shop2);
    assert!(std::net::TcpStream::connect_timeout(
        &addr2,
        std::time::Duration::from_millis(200)
    )
    .is_err());
}
