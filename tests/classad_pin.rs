//! Pins the exact text of every classad a client receives while the
//! plants' VM monitors run: create, mid-life query, destroy, migration,
//! and the errors around a host reboot. The monitor's dynamic attributes
//! (`uptime_s`, `host_free_mb`, `host_pressure`, `last_monitor_s`) and
//! their position in each ad are part of what this fixture fixes.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants::{SimSite, SiteConfig};
use vmplants_classad::ClassAd;
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_plant::{Plant, VmId};
use vmplants_shop::ShopError;
use vmplants_simkit::{Engine, SimDuration, SimTime};
use vmplants_virt::VmSpec;

type Log = Rc<RefCell<Vec<String>>>;

fn record(log: &Log, engine: &Engine, op: &str, who: &str, res: &Result<ClassAd, ShopError>) {
    let line = match res {
        Ok(ad) => format!("{:>9} {op} {who}: {ad}", engine.now().as_millis()),
        Err(e) => format!("{:>9} {op} {who}: error {e}", engine.now().as_millis()),
    };
    log.borrow_mut().push(line);
}

/// Run the pinned scenario and render one line per client-visible answer.
fn render() -> String {
    let mut site = SimSite::build(SiteConfig {
        seed: 11,
        ..SiteConfig::default()
    });
    let horizon = SimTime::from_secs(3_000);
    for plant in &site.plants {
        plant.start_monitor(&mut site.engine, SimDuration::from_secs(10), horizon);
    }
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    // Ids of VMs whose create succeeded, in creation order.
    let created: Rc<RefCell<Vec<VmId>>> = Rc::new(RefCell::new(Vec::new()));

    for i in 0..16u64 {
        let order = site.order(
            VmSpec::mandrake([32, 64, 256, 64][i as usize % 4]),
            invigo_workspace_dag(&format!("user{i}")),
        );
        let shop = site.shop.clone();
        let log = Rc::clone(&log);
        let created = Rc::clone(&created);
        site.engine
            .schedule_at(SimTime::from_millis(5_000 + 17_300 * i), move |engine| {
                let shop2 = shop.clone();
                shop.create(
                    engine,
                    order,
                    Box::new(move |engine, res| {
                        record(&log, engine, "create", &format!("#{i}"), &res);
                        let Ok(ad) = res else { return };
                        let id = VmId(ad.get_str("vmid").expect("vmid"));
                        created.borrow_mut().push(id.clone());
                        // A query mid-life, then a destroy later on.
                        for (op, after_ms) in [("query", 95_700), ("destroy", 420_000 + 13_100 * i)]
                        {
                            let shop = shop2.clone();
                            let log = Rc::clone(&log);
                            let id = id.clone();
                            engine.schedule(SimDuration::from_millis(after_ms), move |engine| {
                                let who = id.0.clone();
                                let done = Box::new(move |engine: &mut Engine, res| {
                                    record(&log, engine, op, &who, &res)
                                });
                                if op == "query" {
                                    shop.query(engine, &id, done);
                                } else {
                                    shop.destroy(engine, &id, done);
                                }
                            });
                        }
                    }),
                );
            });
    }

    // Reboot the busiest host: its VMs are lost, and their later
    // queries and destroys answer with errors.
    let plants: Vec<Plant> = site.plants.clone();
    site.engine
        .schedule_at(SimTime::from_millis(160_500), move |engine| {
            let plant = plants
                .iter()
                .max_by_key(|p| p.vm_count())
                .expect("plants")
                .clone();
            plant.host_crashed(engine);
            engine.schedule(SimDuration::from_secs(60), move |engine| {
                plant.host_recovered(engine)
            });
        });

    // Migrate the first still-hosted VM to the first live plant that
    // does not host it, then query it on its new plant.
    let plants: Vec<Plant> = site.plants.clone();
    let shop = site.shop.clone();
    let log2 = Rc::clone(&log);
    site.engine
        .schedule_at(SimTime::from_millis(255_250), move |engine| {
            let hosted = |id: &VmId| {
                plants
                    .iter()
                    .find(|p| p.list_vms().is_ok_and(|ids| ids.contains(id)))
                    .cloned()
            };
            let Some((id, source)) = created
                .borrow()
                .iter()
                .find_map(|id| hosted(id).map(|p| (id.clone(), p)))
            else {
                return;
            };
            let target = plants
                .iter()
                .find(|p| p.is_alive() && p.name() != source.name())
                .expect("a target plant")
                .name();
            let shop2 = shop.clone();
            let what = format!("{} -> {target}", id.0);
            shop.migrate(
                engine,
                &id.clone(),
                target,
                Box::new(move |engine, res| {
                    record(&log2, engine, "migrate", &what, &res);
                    let log = Rc::clone(&log2);
                    let who = id.0.clone();
                    shop2.query(
                        engine,
                        &id,
                        Box::new(move |engine, res| record(&log, engine, "query", &who, &res)),
                    );
                }),
            );
        });

    site.engine.run();
    let mut out = log.borrow().join("\n");
    out.push('\n');
    out
}

#[test]
fn client_classads_match_committed_fixture() {
    let rendered = render();
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/classad_pin.txt"
        );
        std::fs::write(path, &rendered).expect("bless fixture");
    }
    let expected = include_str!("fixtures/classad_pin.txt");
    assert!(
        rendered == expected,
        "client classads drifted from the committed fixture; bless with UPDATE_FIXTURES=1 if intended"
    );
}

#[test]
fn pinned_scenario_exercises_every_path() {
    let rendered = render();
    for op in [" create ", " query ", " destroy ", " migrate "] {
        assert!(rendered.contains(op), "no{op}answer in:\n{rendered}");
    }
    assert!(rendered.contains("uptime_s"), "monitor attributes missing");
    assert!(rendered.contains("error"), "the reboot lost no VM");
}
