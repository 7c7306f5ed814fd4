//! One pass of a workload: build a site, schedule the order stream
//! through the public shop API, run the event loop to quiescence and
//! capture what the simulation produced.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use vmplants::dag::graph::{experiment_dag, zipf_dag};
use vmplants::plant::{ProductionOrder, VmId};
use vmplants::shop::{ShopClient, ShopDone, ShopTuning, VmShop};
use vmplants::simkit::{Engine, LinkTuning, Obs, SimDuration, SimTime};
use vmplants::virt::VmSpec;
use vmplants::warehouse::WarehouseConfig;
use vmplants::{SimSite, SiteConfig};

use crate::reference;
use crate::workload::{Faults, Kind, Plan, ZIPF_BUDGET_BYTES, ZIPF_GOLDENS};

/// Host seconds of event loop between two reference probes.
const PROBE_EVERY_S: f64 = 0.05;

/// A built site plus the orders it is about to receive.
pub struct Prepared {
    pub site: SimSite,
    pub orders: Vec<ProductionOrder>,
    /// Host seconds to build the testbed, publish the goldens and turn
    /// the plan into orders.
    pub setup_s: f64,
    /// Reference probes taken just before and after the set-up.
    pub setup_probes: [f64; 2],
}

impl Prepared {
    /// Set-up host seconds scaled to the reference machine.
    pub fn nominal_setup_s(&self) -> f64 {
        reference::nominal(self.setup_s, &self.setup_probes)
    }
}

/// Build the site for `plan` and generate its orders.
pub fn prepare(plan: &Plan, obs: Obs, journal: bool) -> Prepared {
    let probe_before = reference::probe_s();
    let started = Instant::now();
    let mut config = SiteConfig {
        seed: plan.seed,
        ..SiteConfig::default()
    };
    if plan.kind == Kind::Zipf {
        config.zipf_goldens = ZIPF_GOLDENS;
        config.warehouse = WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(ZIPF_BUDGET_BYTES),
            replicate_after: Some(6),
        };
        config.testbed.replica_servers = 2;
    }
    let site = SimSite::build_with_obs(config, obs);
    site.shop.set_tuning(ShopTuning {
        journal,
        ..ShopTuning::default()
    });
    let orders = plan
        .arrivals
        .iter()
        .map(|a| {
            let dag = match a.rank {
                Some(rank) => zipf_dag(rank, "arijit"),
                None => experiment_dag("arijit"),
            };
            site.order(VmSpec::mandrake(64), dag)
        })
        .collect();
    let setup_s = started.elapsed().as_secs_f64();
    Prepared {
        site,
        orders,
        setup_s,
        setup_probes: [probe_before, reference::probe_s()],
    }
}

/// How one order settled.
#[derive(Clone, Debug)]
pub struct Settled {
    pub success: bool,
    /// Sim milliseconds from the order's due time to the response.
    pub latency_ms: u64,
    pub vmid: String,
    pub plant: String,
    pub error: String,
}

/// What one pass produced.
pub struct Outcome {
    /// Per arrival, in arrival order; `None` never settled.
    pub settled: Vec<Option<Settled>>,
    /// Host seconds of the timed event loop (scheduling the stream and
    /// running to quiescence), probes excluded.
    pub loop_s: f64,
    /// Reference probes taken between chunks of the event loop.
    pub probes: Vec<f64>,
    /// Host nanoseconds of each create/submit call, when timed.
    pub create_ns: Vec<u64>,
    /// Completions delivered for an order that had already settled.
    pub double_settles: usize,
    /// Destroys that failed (a host reboot can take a VM with it).
    pub destroy_failures: usize,
    /// VMIDs hosted by more than one plant at quiesce.
    pub duplicate_vms: usize,
    /// VMs still resident at quiesce, before the orphan sweep.
    pub live_vms: usize,
    pub events: u64,
    pub client_resubmits: u64,
    /// FNV-1a digest of every sim-time output of the pass.
    pub digest: u64,
    /// The site's metrics registry at quiesce.
    pub metrics: String,
}

impl Outcome {
    /// Event-loop host seconds scaled to the reference machine.
    pub fn nominal_loop_s(&self) -> f64 {
        reference::nominal(self.loop_s, &self.probes)
    }

    pub fn attempted(&self) -> usize {
        self.settled.len()
    }

    pub fn successes(&self) -> usize {
        self.settled.iter().flatten().filter(|s| s.success).count()
    }

    pub fn hung(&self) -> usize {
        self.settled.iter().filter(|s| s.is_none()).count()
    }

    /// Sim latencies of the successful orders, ascending.
    pub fn latencies_ms(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .settled
            .iter()
            .flatten()
            .filter(|s| s.success)
            .map(|s| s.latency_ms)
            .collect();
        v.sort_unstable();
        v
    }
}

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Lossy links for the whole run, Poisson host reboots and one shop
/// crash, applied through the components' public fault hooks.
fn install_faults(site: &mut SimSite, faults: &Faults) {
    site.shop.transport().set_tuning(LinkTuning {
        drop_p: faults.loss,
        dup_p: faults.duplicate,
        reorder_p: faults.reorder,
        ..LinkTuning::default()
    });
    let reboot_downtime = SimDuration::from_millis(faults.reboot_downtime_ms);
    for &(at_ms, host) in &faults.reboots {
        let plant = site.plants[host].clone();
        site.engine
            .schedule_at(SimTime::from_millis(at_ms), move |engine| {
                plant.host_crashed(engine);
                let plant = plant.clone();
                engine.schedule(reboot_downtime, move |engine| plant.host_recovered(engine));
            });
    }
    let shop = site.shop.clone();
    let shop_downtime = SimDuration::from_millis(faults.shop_downtime_ms);
    site.engine
        .schedule_at(SimTime::from_millis(faults.shop_crash_ms), move |engine| {
            shop.crash(engine);
            let shop = shop.clone();
            engine.schedule(shop_downtime, move |engine| {
                shop.recover(engine);
            });
        });
}

/// Shared bookkeeping the order callbacks write into.
#[derive(Clone)]
struct Sink {
    shop: VmShop,
    settled: Rc<RefCell<Vec<Option<Settled>>>>,
    double_settles: Rc<Cell<usize>>,
    destroy_failures: Rc<Cell<usize>>,
}

impl Sink {
    /// The completion of order `index`: record it and, on success,
    /// destroy the VM after its lifetime so the site reaches a steady
    /// state instead of filling up.
    fn done(&self, index: usize, due: SimTime, lifetime: SimDuration) -> ShopDone {
        let sink = self.clone();
        Box::new(move |engine, result| {
            let latency_ms = engine.now().since(due).as_millis();
            let settled = match result {
                Ok(ad) => {
                    let vmid = ad.get_str("vmid").unwrap_or_default();
                    let plant = ad.get_str("plant").unwrap_or_default();
                    let id = VmId(vmid.clone());
                    let shop = sink.shop.clone();
                    let failures = Rc::clone(&sink.destroy_failures);
                    engine.schedule(lifetime, move |engine| {
                        shop.destroy(
                            engine,
                            &id,
                            Box::new(move |_, res| {
                                if res.is_err() {
                                    failures.set(failures.get() + 1);
                                }
                            }),
                        );
                    });
                    Settled {
                        success: !vmid.is_empty(),
                        latency_ms,
                        vmid,
                        plant,
                        error: String::new(),
                    }
                }
                Err(e) => Settled {
                    success: false,
                    latency_ms,
                    vmid: String::new(),
                    plant: String::new(),
                    error: e.to_string(),
                },
            };
            let mut all = sink.settled.borrow_mut();
            if all[index].is_some() {
                sink.double_settles.set(sink.double_settles.get() + 1);
            } else {
                all[index] = Some(settled);
            }
        })
    }
}

/// Run `prepared` to quiescence. With `time_calls` the benchmark times
/// each create/submit call (a benchmark-side span; off for end-to-end
/// runs). Returns the outcome and the quiesced site.
pub fn run(prepared: Prepared, plan: &Plan, time_calls: bool) -> (Outcome, SimSite) {
    let Prepared {
        mut site, orders, ..
    } = prepared;
    // Monitors refresh the plants' dynamic classads until well past the
    // last possible order deadline.
    let horizon = SimTime::from_millis(plan.end_ms() + 7_500_000);
    for plant in &site.plants {
        plant.start_monitor(&mut site.engine, SimDuration::from_secs(10), horizon);
    }
    if let Some(faults) = &plan.faults {
        install_faults(&mut site, faults);
    }
    let client = plan
        .kind
        .uses_client()
        .then(|| ShopClient::new("client", site.shop.clone()));
    let sink = Sink {
        shop: site.shop.clone(),
        settled: Rc::new(RefCell::new(vec![None; orders.len()])),
        double_settles: Rc::new(Cell::new(0)),
        destroy_failures: Rc::new(Cell::new(0)),
    };
    let create_ns = Rc::new(RefCell::new(Vec::new()));

    let started = Instant::now();
    for (index, (arrival, order)) in plan.arrivals.iter().zip(orders).enumerate() {
        let due = SimTime::from_millis(arrival.at_ms);
        let done = sink.done(index, due, SimDuration::from_millis(arrival.lifetime_ms));
        let shop = site.shop.clone();
        let client = client.clone();
        let create_ns = Rc::clone(&create_ns);
        site.engine.schedule_at(due, move |engine: &mut Engine| {
            let t0 = time_calls.then(Instant::now);
            match &client {
                Some(client) => client.submit(engine, order, done),
                None => shop.create(engine, order, done),
            }
            if let Some(t0) = t0 {
                create_ns.borrow_mut().push(t0.elapsed().as_nanos() as u64);
            }
        });
    }
    // Run to quiescence with a reference probe about every
    // PROBE_EVERY_S of loop time, so host speed is sampled while the loop
    // runs. Stepping executes exactly the events `Engine::run` would.
    let mut loop_s = 0.0;
    let mut probes = Vec::new();
    let mut chunk = started;
    let mut more = true;
    while more {
        for _ in 0..1_000 {
            more = site.engine.step();
            if !more {
                break;
            }
        }
        let chunk_s = chunk.elapsed().as_secs_f64();
        if chunk_s >= PROBE_EVERY_S || !more {
            loop_s += chunk_s;
            probes.push(reference::probe_s());
            chunk = Instant::now();
        }
    }

    let mut hosted: BTreeMap<VmId, usize> = BTreeMap::new();
    for plant in &site.plants {
        for id in plant.list_vms().unwrap_or_default() {
            *hosted.entry(id).or_insert(0) += 1;
        }
    }
    let duplicate_vms = hosted.values().filter(|&&n| n > 1).count();
    let live_vms = site.total_vms();
    let events = site.engine.events_executed();

    let settled = sink.settled.borrow().clone();
    let mut digest = Fnv::new();
    for (i, s) in settled.iter().enumerate() {
        match s {
            Some(s) => digest.write(&format!(
                "{i} {} {} {} {} {}\n",
                s.success, s.latency_ms, s.vmid, s.plant, s.error
            )),
            None => digest.write(&format!("{i} hung\n")),
        }
    }
    for e in site.shop.request_log() {
        digest.write(&format!(
            "{} {} {} {} {} {}\n",
            e.vm_id,
            e.plant,
            e.attempts,
            e.requested_at.as_millis(),
            e.latency.as_millis(),
            e.success
        ));
    }
    digest.write(&format!(
        "end={} events={events} transport={} live={live_vms} dup={duplicate_vms} \
         destroy_failures={}\n",
        site.engine.now().as_millis(),
        site.shop.transport().stats(),
        sink.destroy_failures.get(),
    ));
    let outcome = Outcome {
        settled,
        loop_s,
        probes,
        create_ns: create_ns.take(),
        double_settles: sink.double_settles.get(),
        destroy_failures: sink.destroy_failures.get(),
        duplicate_vms,
        live_vms,
        events,
        client_resubmits: client.as_ref().map_or(0, ShopClient::resubmits),
        digest: digest.0,
        metrics: site.obs.metrics_text(),
    };
    (outcome, site)
}
