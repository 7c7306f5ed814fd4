//! Seeded property tests: the XML service protocol round-trips random
//! requests and responses, and bid selection is total and fair. Cases are
//! drawn from `SimRng` over a fixed seed range, so each run checks the
//! same inputs.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::{Action, ConfigDag};
use vmplants_plant::protocol::{ErrorCode, Request, Response};
use vmplants_plant::{DomainDirectory, Plant, PlantConfig, ProductionOrder, VmId};
use vmplants_shop::bidding::{select_bid, Bid};
use vmplants_simkit::SimRng;
use vmplants_virt::{VmSpec, VmmType};
use vmplants_vnet::ProxyEndpoint;
use vmplants_warehouse::Warehouse;

/// Cases per property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

/// A string of `len` characters drawn from `alphabet`.
fn chars(rng: &mut SimRng, alphabet: &str, len: usize) -> String {
    let alphabet: Vec<char> = alphabet.chars().collect();
    (0..len)
        .map(|_| alphabet[rng.index(alphabet.len())])
        .collect()
}

/// A lowercase word of `1 + rng.index(max_rest + 1)` characters whose
/// tail may also use `extra`.
fn word(rng: &mut SimRng, extra: &str, max_rest: usize) -> String {
    let len = rng.index(max_rest + 1);
    chars(rng, LOWER, 1) + &chars(rng, &format!("{LOWER}0123456789{extra}"), len)
}

/// A chain of 1–7 host or guest actions, some with a nominal duration.
fn random_dag(rng: &mut SimRng) -> ConfigDag {
    let mut dag = ConfigDag::new();
    let mut prev: Option<String> = None;
    for i in 0..1 + rng.index(7) {
        let id = format!("n{i}");
        let cmd = word(rng, "-", 12);
        let mut a = if rng.chance(0.5) {
            Action::host(&id, cmd)
        } else {
            Action::guest(&id, cmd)
        };
        let nominal = rng.uniform_u64(0, 99_999);
        if nominal > 0 {
            a.nominal_ms = Some(nominal);
        }
        dag.add_action(a).unwrap();
        if let Some(p) = prev {
            dag.add_edge(&p, &id).unwrap();
        }
        prev = Some(id);
    }
    dag
}

fn random_order(rng: &mut SimRng) -> ProductionOrder {
    let spec = VmSpec {
        memory_mb: [32, 64, 128, 256][rng.index(4)],
        disk_gb: rng.uniform_u64(1, 63),
        os: "linux-mandrake-8.1".into(),
        vmm: if rng.chance(0.5) {
            VmmType::UmlLike
        } else {
            VmmType::VmwareLike
        },
    };
    let domain = word(rng, ".-", 16);
    let mut order = ProductionOrder::new(spec, random_dag(rng), domain.clone());
    order.proxy = ProxyEndpoint::new(domain, "proxy.example", 9300);
    if rng.chance(0.5) {
        let len = 1 + rng.index(12);
        order.vm_id = Some(VmId(chars(rng, &format!("{LOWER}0123456789-"), len)));
    }
    if rng.chance(0.5) {
        let floor = rng.uniform_u64(0, 2048);
        order.requirements = Some(format!("freememory >= {floor} && os == \"linux\""));
    }
    order
}

/// The wire carries every order field but the trace context, which is
/// per hop.
fn orders_equal(a: &ProductionOrder, b: &ProductionOrder) -> bool {
    a.spec == b.spec
        && a.dag == b.dag
        && a.client_domain == b.client_domain
        && a.proxy == b.proxy
        && a.vm_id == b.vm_id
        && a.requirements == b.requirements
}

/// Create and Estimate requests survive the wire exactly.
#[test]
fn order_messages_round_trip() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let order = random_order(&mut rng);
        let req = if rng.chance(0.5) {
            Request::Estimate(order.clone())
        } else {
            Request::Create(order.clone())
        };
        let wire = req.to_wire();
        match Request::from_wire(&wire) {
            Ok(Request::Create(o) | Request::Estimate(o)) => {
                assert!(orders_equal(&order, &o), "seed {seed}: {wire}");
            }
            other => panic!("seed {seed}: {wire} decoded as {other:?}"),
        }
    }
}

/// Responses round-trip, including error payloads with hostile text.
/// Codes are drawn from the closed [`ErrorCode`] set — arbitrary strings
/// would decode to `ErrorCode::Unknown` by design.
#[test]
fn responses_round_trip() {
    let printable: String = (' '..='~').collect();
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let cost = rng.uniform(0.0, 1e6);
        let code = ErrorCode::ALL[rng.index(ErrorCode::ALL.len())];
        let len = rng.index(61);
        let message = chars(&mut rng, &printable, len);
        for resp in [
            Response::Bid(cost),
            Response::Error {
                code,
                message: message.clone(),
            },
        ] {
            let wire = resp.to_wire();
            let decoded =
                Response::from_wire(&wire).unwrap_or_else(|e| panic!("seed {seed}: {wire}: {e}"));
            match (&resp, &decoded) {
                (Response::Bid(a), Response::Bid(b)) => assert_eq!(a, b, "seed {seed}"),
                (
                    Response::Error {
                        code: c1,
                        message: m1,
                    },
                    Response::Error {
                        code: c2,
                        message: m2,
                    },
                ) => {
                    assert_eq!(c1, c2, "seed {seed}");
                    assert_eq!(m1.trim(), m2.trim(), "seed {seed}: {wire}");
                }
                _ => panic!("seed {seed}: {wire} changed variant"),
            }
        }
    }
}

/// Bid selection always picks a minimum-cost bid, and over many draws
/// every tied minimum is selected.
#[test]
fn bid_selection_is_min_and_fair() {
    let mut plant_rng = SimRng::seed_from_u64(9);
    let plants: Vec<Plant> = (0..10)
        .map(|i| {
            let name = format!("p{i}");
            Plant::new(
                PlantConfig::new(&name),
                Host::new(HostSpec::e1350_node(&name)),
                NfsServer::new("s"),
                Rc::new(RefCell::new(Warehouse::new())),
                DomainDirectory::new(),
                &mut plant_rng,
            )
        })
        .collect();
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let costs: Vec<u64> = (0..1 + rng.index(10))
            .map(|_| rng.uniform_u64(0, 4))
            .collect();
        let bids: Vec<Bid> = costs
            .iter()
            .zip(&plants)
            .map(|(&c, plant)| Bid {
                plant: plant.clone(),
                cost: c as f64,
            })
            .collect();
        let min = *costs.iter().min().unwrap();
        let minima: BTreeSet<String> = costs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == min)
            .map(|(i, _)| format!("p{i}"))
            .collect();
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            let winner = select_bid(&bids, &[], &mut rng).unwrap();
            assert_eq!(winner.cost, min as f64, "seed {seed}: {costs:?}");
            seen.insert(winner.plant.name().to_string());
        }
        // With 200 draws, every tied minimum (at most 10) appears.
        assert_eq!(seen, minima, "seed {seed}: {costs:?}");
    }
}
