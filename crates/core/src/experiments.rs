//! Regeneration of the paper's evaluation (§3.4 example + §4.3 results).
//!
//! Each function reproduces one artifact; the `vmplants-bench` binaries
//! print them and `EXPERIMENTS.md` records paper-vs-measured. The
//! experiment ids (E1…E9) follow DESIGN.md §4.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_cluster::files::gb;
use vmplants_cluster::host::{Host, HostSpec};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::graph::{experiment_dag, invigo_workspace_dag};
use vmplants_dag::PerformedLog;
use vmplants_plant::CostModel;
use vmplants_simkit::stats::{percentile, Histogram, Series, Summary};
use vmplants_simkit::{
    Engine, FlightRecorder, Obs, SamplerConfig, SamplerStats, SimDuration, SimRng, SimTime,
    SketchMetric, WindowSeries,
};
use vmplants_virt::overhead::{overhead_percent, AppProfile};
use vmplants_virt::{Hypervisor, ImageFiles, VmSpec, VmmType};

use crate::site::{SimSite, SiteConfig};

/// One clone observation within a creation run.
#[derive(Clone, Debug)]
pub struct CloneSample {
    /// Global request sequence number (1-based, the paper's Figure 6 x
    /// axis).
    pub seq: usize,
    /// Cloning latency in seconds (PPP clone request → resume complete).
    pub clone_s: f64,
    /// VMs already resident on the chosen plant when the clone started.
    pub resident_before: usize,
    /// The plant that served it.
    pub plant: String,
}

/// The raw data of one §4.2 creation experiment (one golden memory size).
#[derive(Clone, Debug)]
pub struct CreationRun {
    /// Golden memory size (32, 64 or 256).
    pub memory_mb: u64,
    /// Requests issued.
    pub requests: usize,
    /// Requests that produced a running VM.
    pub successes: usize,
    /// End-to-end creation latencies (client request → shop response), s.
    pub latencies: Vec<f64>,
    /// Per-request clone timings in request order.
    pub clones: Vec<CloneSample>,
}

impl CreationRun {
    /// Summary of the end-to-end latencies.
    pub(crate) fn latency_summary(&self) -> Summary {
        let mut s = Summary::new();
        for &l in &self.latencies {
            s.record(l);
        }
        s
    }

    /// Summary of the cloning latencies.
    pub(crate) fn clone_summary(&self) -> Summary {
        let mut s = Summary::new();
        for c in &self.clones {
            s.record(c.clone_s);
        }
        s
    }
}

/// Run the §4.2 experiment for one golden size: `requests` sequential
/// Create-VM calls through VMShop on the 8-plant testbed, VMs left
/// running (the paper's plants end up hosting 16 × 64 MB or 5 × 256 MB
/// clones each).
pub fn run_creation_experiment(memory_mb: u64, requests: usize, seed: u64) -> CreationRun {
    let mut site = SimSite::build(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    let mut successes = 0;
    for _ in 0..requests {
        // The §4.2 configuration: network interface + user ID on top of
        // the checkpointed base (experiment_dag's D and E).
        if site
            .create_vm(VmSpec::mandrake(memory_mb), experiment_dag("arijit"))
            .is_ok()
        {
            successes += 1;
        }
    }
    let latencies: Vec<f64> = site
        .shop
        .request_log()
        .iter()
        .filter(|e| e.success)
        .map(|e| e.latency.as_secs_f64())
        .collect();
    // Merge the plants' clone logs into global request order via the
    // monotonic shop-assigned VMIDs.
    let mut clones: Vec<(String, CloneSample)> = Vec::new();
    for plant in &site.plants {
        for entry in plant.clone_log() {
            clones.push((
                entry.vm.0.clone(),
                CloneSample {
                    seq: 0,
                    clone_s: entry.stats.total.as_secs_f64(),
                    resident_before: entry.resident_before,
                    plant: plant.name().to_owned(),
                },
            ));
        }
    }
    clones.sort_by(|a, b| a.0.cmp(&b.0));
    let clones = clones
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut c))| {
            c.seq = i + 1;
            c
        })
        .collect();
    CreationRun {
        memory_mb,
        requests,
        successes,
        latencies,
        clones,
    }
}

/// The three runs of §4.2: 128 requests at 32 MB and 64 MB, 40 at 256 MB.
pub fn paper_runs(seed: u64) -> Vec<CreationRun> {
    vec![
        run_creation_experiment(32, 128, seed),
        run_creation_experiment(64, 128, seed + 1),
        run_creation_experiment(256, 40, seed + 2),
    ]
}

/// **E1 / Figure 4** — normalized distribution of end-to-end creation
/// latency, 10 s bins (centers 5, 15, 25, … as in the paper's plot).
pub fn fig4(runs: &[CreationRun]) -> Vec<(u64, Histogram)> {
    runs.iter()
        .map(|run| {
            let mut h = Histogram::new(0.0, 10.0);
            for &l in &run.latencies {
                h.record(l);
            }
            (run.memory_mb, h)
        })
        .collect()
}

/// **E2 / Figure 5** — normalized distribution of cloning latency, 5 s
/// bins.
pub fn fig5(runs: &[CreationRun]) -> Vec<(u64, Histogram)> {
    runs.iter()
        .map(|run| {
            let mut h = Histogram::new(0.0, 5.0);
            for c in &run.clones {
                h.record(c.clone_s);
            }
            (run.memory_mb, h)
        })
        .collect()
}

/// **E3 / Figure 6** — cloning time versus VM sequence number.
pub fn fig6(runs: &[CreationRun]) -> Vec<(u64, Series)> {
    runs.iter()
        .map(|run| {
            let mut s = Series::new();
            for c in &run.clones {
                s.push(c.seq as f64, c.clone_s);
            }
            (run.memory_mb, s)
        })
        .collect()
}

/// **E8** — the headline summary: creation range and per-size averages
/// ("17 to 85 seconds", averages "25 to 48 seconds").
#[derive(Clone, Debug)]
pub struct HeadlineSummary {
    /// Overall min across all runs, s.
    pub min_s: f64,
    /// Overall max, s.
    pub max_s: f64,
    /// `(memory_mb, mean_latency_s)` per run.
    pub means: Vec<(u64, f64)>,
}

/// Compute E8 from the runs.
pub fn headline(runs: &[CreationRun]) -> HeadlineSummary {
    let mut min_s = f64::INFINITY;
    let mut max_s = f64::NEG_INFINITY;
    let mut means = Vec::new();
    for run in runs {
        let s = run.latency_summary();
        min_s = min_s.min(s.min());
        max_s = max_s.max(s.max());
        means.push((run.memory_mb, s.mean()));
    }
    HeadlineSummary { min_s, max_s, means }
}

/// **E4** — full disk copy versus link-based cloning (§4.3: the 2 GB
/// golden disk "takes 210 seconds to be fully copied — around 4 times
/// slower than the average cloning time of the 256 MB VM").
#[derive(Clone, Debug)]
pub struct CopyVsClone {
    /// Time to fully copy the golden's 2 GB / 16-file virtual disk, s
    /// (the paper's "takes 210 seconds to be fully copied").
    pub full_copy_s: f64,
    /// Link-based clone time of the same golden, s.
    pub linked_clone_s: f64,
    /// Average link-based clone time over the 256 MB paper run, s.
    pub avg_256_clone_s: f64,
    /// `full_copy_s / avg_256_clone_s` — the paper's "around 4" ratio.
    pub ratio_vs_avg: f64,
}

/// Run E4.
pub fn copy_vs_clone(seed: u64) -> CopyVsClone {
    // The disk-only full copy, exactly as §4.3 states it: all 16 extents
    // of the 2 GB golden disk pulled over the NFS path.
    let full_copy_s = {
        let mut engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("node0"));
        let nfs = NfsServer::new("storage");
        let image = ImageFiles::plan("/warehouse/g256", VmmType::VmwareLike, 256, gb(2));
        image.materialize(&nfs.store, 256, gb(2)).expect("publish");
        let pairs: Vec<(Rc<str>, String)> = image
            .disk_extents
            .iter()
            .map(|src| {
                let name = src.rsplit('/').next().expect("path");
                (Rc::clone(src), format!("/clones/vm/{name}"))
            })
            .collect();
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        nfs.fetch_all(&mut engine, pairs, &host.disk.clone(), move |engine, res| {
            res.expect("copy ok");
            *out2.borrow_mut() = Some(engine.now().as_secs_f64());
        });
        engine.run();
        let t = out.borrow().expect("completed");
        t
    };
    // A linked clone of the same golden, for contrast.
    let linked_clone_s = {
        let mut engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("node0"));
        let nfs = NfsServer::new("storage");
        let image = ImageFiles::plan("/warehouse/g256", VmmType::VmwareLike, 256, gb(2));
        image.materialize(&nfs.store, 256, gb(2)).expect("publish");
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
        let hv = Hypervisor::new(rng);
        let out = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        hv.instantiate(
            &mut engine,
            &image,
            &VmSpec::mandrake(256),
            &host,
            &nfs,
            "/clones/vm",
            Box::new(move |_, res| {
                *out2.borrow_mut() = Some(res.expect("clone ok").total.as_secs_f64());
            }),
        );
        engine.run();
        let t = out.borrow().expect("completed");
        t
    };
    let run = run_creation_experiment(256, 40, seed + 2);
    let avg = run.clone_summary().mean();
    CopyVsClone {
        full_copy_s,
        linked_clone_s,
        avg_256_clone_s: avg,
        ratio_vs_avg: full_copy_s / avg,
    }
}

/// **E5** — the UML production line: average clone-and-boot time for a
/// 32 MB UML VM (§4.3 reports 76 s).
pub fn uml_boot(requests: usize, seed: u64) -> Summary {
    let mut site = SimSite::build(SiteConfig {
        seed,
        ..SiteConfig::default()
    });
    // Publish the UML golden alongside the VMware ones.
    {
        let dag = invigo_workspace_dag("template");
        let base: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).expect("base action").clone())
            .collect();
        site.warehouse
            .borrow_mut()
            .publish(
                site.cluster.nfs(),
                "uml-mandrake81-32mb",
                "UML Mandrake 8.1, 32 MB",
                VmSpec::uml(32),
                base,
            )
            .expect("fresh publish");
    }
    for _ in 0..requests {
        let _ = site.create_vm(VmSpec::uml(32), experiment_dag("arijit"));
    }
    let mut summary = Summary::new();
    for plant in &site.plants {
        for entry in plant.clone_log() {
            summary.record(entry.stats.total.as_secs_f64());
        }
    }
    summary
}

/// **E6** — the §3.4 cost-function walk-through: two plants (4 host-only
/// networks each), network cost 50, compute cost 4 × VMs, one client
/// domain issuing sequential requests.
#[derive(Clone, Debug)]
pub struct CostWalkthrough {
    /// Per-request rows: `(request#, bid_A, bid_B, winner)`.
    pub rows: Vec<(usize, f64, f64, String)>,
    /// Index (1-based) of the first request served by the second plant.
    pub crossover_at: Option<usize>,
}

/// Run E6 for `requests` sequential same-domain requests.
pub fn cost_function_walkthrough(requests: usize, seed: u64) -> CostWalkthrough {
    let mut config = SiteConfig {
        seed,
        cost_model: CostModel::section_3_4_example(),
        ..SiteConfig::default()
    };
    config.testbed.nodes = 2;
    let mut site = SimSite::build(config);
    let mut rows = Vec::new();
    let mut first_plant: Option<String> = None;
    let mut crossover_at = None;
    for i in 1..=requests {
        let order = site.order(VmSpec::mandrake(32), experiment_dag("arijit"));
        let bid_a = site.plants[0].estimate(&order).expect("alive");
        let bid_b = site.plants[1].estimate(&order).expect("alive");
        let ad = site.create_order(order).expect("create");
        let winner = ad.get_str("plant").expect("plant attr");
        if first_plant.is_none() {
            first_plant = Some(winner.clone());
        }
        if crossover_at.is_none() && Some(&winner) != first_plant.as_ref() {
            crossover_at = Some(i);
        }
        rows.push((i, bid_a, bid_b, winner));
    }
    CostWalkthrough { rows, crossover_at }
}

/// **E9** — the run-time overhead table quoted in §4.3.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Workload label.
    pub workload: &'static str,
    /// The paper's quoted overhead (context from related work), %.
    pub paper_percent: f64,
    /// Our model's overhead, %.
    pub measured_percent: f64,
    /// VMM the number refers to.
    pub vmm: VmmType,
}

/// Compute the E9 table.
pub fn runtime_overhead_table() -> Vec<OverheadRow> {
    vec![
        OverheadRow {
            workload: "SPEC INT2000-like (CPU-bound), VMware",
            paper_percent: 2.0,
            measured_percent: overhead_percent(VmmType::VmwareLike, AppProfile::cpu_bound()),
            vmm: VmmType::VmwareLike,
        },
        OverheadRow {
            workload: "SPEC INT2000-like (CPU-bound), UML",
            paper_percent: 3.0,
            measured_percent: overhead_percent(VmmType::UmlLike, AppProfile::cpu_bound()),
            vmm: VmmType::UmlLike,
        },
        OverheadRow {
            workload: "SPECseis/SPECchem-like (scientific), VMware",
            paper_percent: 6.0,
            measured_percent: overhead_percent(VmmType::VmwareLike, AppProfile::scientific()),
            vmm: VmmType::VmwareLike,
        },
        OverheadRow {
            workload: "LSS-like (I/O-heavy), VMware",
            paper_percent: 13.0,
            measured_percent: overhead_percent(VmmType::VmwareLike, AppProfile::io_heavy()),
            vmm: VmmType::VmwareLike,
        },
    ]
}

/// **E18** — one cell of the unreliable-transport sweep: how order
/// success rate and end-to-end latency respond to shop↔plant message
/// drop and duplication probability.
#[derive(Clone, Debug)]
pub struct TransportSweepRow {
    /// Per-message drop probability on the shop↔plant link.
    pub drop_p: f64,
    /// Per-message duplication probability on the shop↔plant link.
    pub dup_p: f64,
    /// Fraction of orders that settled successfully.
    pub success_rate: f64,
    /// Mean end-to-end creation latency (successful orders), seconds.
    pub mean_latency_s: f64,
    /// Latency added over the fault-free baseline, seconds.
    pub added_latency_s: f64,
}

/// Run the E18 sweep: a fault-free baseline plus a drop × duplication
/// grid, each cell a whole-run transport-fault window over the same
/// seeded workload. The retransmission protocol should hold the success
/// rate at 1.0 across the grid while latency grows with the drop rate.
///
/// Since E20 this is a thin wrapper over the scenario sweep driver: each
/// cell is a declarative [`crate::scenario::Scenario`] (a single
/// constant workload, which
/// compiles to the exact legacy config the hand-coded version built) and
/// the grid runs through [`crate::scenario::run_sweep`]'s parallel
/// harness with byte-identical merged output. The `(0, 0)` cell doubles
/// as the baseline.
pub fn transport_sweep(seed: u64, requests: usize) -> Vec<TransportSweepRow> {
    use crate::scenario::{run_sweep, Scenario};
    use vmplants_simkit::{SimDuration, SimTime};

    let window = SimDuration::from_secs(7 * 86_400);
    let mut grid = Vec::new();
    let mut scenarios = Vec::new();
    for &drop_p in &[0.0, 0.1, 0.3] {
        for &dup_p in &[0.0, 0.2] {
            let mut s = Scenario::constant(
                format!("drop{drop_p:.2}-dup{dup_p:.2}"),
                seed,
                requests,
                SimDuration::from_secs(30),
                64,
            );
            if drop_p > 0.0 {
                s.plan = s.plan.message_loss_at(SimTime::ZERO, "shop", drop_p, window);
            }
            if dup_p > 0.0 {
                s.plan = s.plan.message_duplicate_at(SimTime::ZERO, "shop", dup_p, window);
            }
            grid.push((drop_p, dup_p));
            scenarios.push(s);
        }
    }

    let report = run_sweep(&scenarios, &[seed]).expect("E18 grid is statically valid");
    let baseline_mean = report.rows[0].score.mean_latency_s;
    grid.into_iter()
        .zip(&report.rows)
        .map(|((drop_p, dup_p), row)| TransportSweepRow {
            drop_p,
            dup_p,
            success_rate: row.score.success_rate(),
            mean_latency_s: row.score.mean_latency_s,
            added_latency_s: row.score.mean_latency_s - baseline_mean,
        })
        .collect()
}

/// Render the E18 sweep as a fixed-width table.
pub fn render_transport_sweep(rows: &[TransportSweepRow]) -> String {
    let mut out = String::from(
        "== E18 transport sweep: success & latency vs drop/dup probability ==\n",
    );
    out.push_str("  drop   dup   success   mean-latency   added\n");
    for row in rows {
        out.push_str(&format!(
            "  {:>4.2}  {:>4.2}  {:>7.2}  {:>11.1}s  {:>+6.1}s\n",
            row.drop_p, row.dup_p, row.success_rate, row.mean_latency_s, row.added_latency_s
        ));
    }
    out
}

/// The seed set E20 sweeps in full mode.
pub const E20_SEEDS: [u64; 3] = [11, 42, 2004];
/// The seed set E20 sweeps in quick mode (CI smoke).
pub const E20_QUICK_SEEDS: [u64; 1] = [42];

/// E20 output: the adversarial sweep's scored grid, the worst
/// (scenario, seed) cell, its failure signature, and the minimal repro
/// the shrinker distilled from it.
#[derive(Clone, Debug)]
pub struct AdversarialSweepReport {
    /// Every cell's score, scenario-major, seed-minor.
    pub sweep: crate::scenario::SweepReport,
    /// The worst cell.
    pub worst: crate::scenario::SweepRow,
    /// The worst cell's failure signature.
    pub signature: crate::scenario::shrink::FailureSignature,
    /// The shrink outcome; `None` when even the worst cell succeeded
    /// (nothing to minimize).
    pub shrink: Option<crate::scenario::ShrinkResult>,
}

/// The E20 scenario grid: five archetypes spanning the adversarial
/// conditions ISSUE-era chaos experiments probed one at a time.
///
/// * `calm` — constant load, no faults: the anchor every other cell is
///   scored against.
/// * `lossy-diurnal` — a diurnal arrival curve under whole-run message
///   loss + duplication; the retransmission protocol should absorb it.
/// * `spot-flash` — a flash crowd landing on spot-style preempted hosts
///   (Poisson reboot rule) with message reordering.
/// * `shop-outage` — steady load while the shop itself crashes mid-run
///   and recovers from its journal; the failover client plus
///   reconciliation should keep the cell exactly-once.
/// * `blackout` — a heterogeneous memory mix while six of eight hosts
///   crash early under a `min_live_plants` floor and a tight deadline:
///   designed to fail, so the sweep always has something to shrink.
pub(crate) fn e20_grid() -> Vec<crate::scenario::Scenario> {
    use crate::scenario::{MemoryWeight, Scenario, Workload};
    use vmplants_simkit::{FaultPlan, SimDuration, SimTime};

    let hour = SimDuration::from_secs(3600);
    let calm = Scenario::constant("calm", 42, 8, SimDuration::from_secs(30), 64);

    let mut lossy = Scenario::constant("lossy-diurnal", 42, 1, SimDuration::from_secs(30), 64);
    lossy.workloads = vec![Workload::Diurnal {
        requests: 12,
        base_interval: SimDuration::from_secs(30),
        amplitude: 0.6,
        period: SimDuration::from_secs(600),
        memory_mb: 64,
    }];
    lossy.plan = FaultPlan::new()
        .message_loss_at(SimTime::ZERO, "shop", 0.25, hour)
        .message_duplicate_at(SimTime::ZERO, "shop", 0.15, hour);
    lossy.tuning.attempt_timeout = SimDuration::from_secs(120);

    let mut spot = Scenario::constant("spot-flash", 42, 1, SimDuration::from_secs(30), 64);
    spot.workloads = vec![Workload::Flash {
        requests: 6,
        interval: SimDuration::from_secs(60),
        memory_mb: 64,
        burst_at: SimDuration::from_secs(120),
        burst_requests: 6,
        burst_spacing: SimDuration::from_secs(1),
    }];
    spot.plan = FaultPlan::new()
        .random_host_faults(
            (0..4).map(|i| format!("node{i}")),
            SimDuration::from_secs(150),
            Some(SimDuration::from_secs(90)),
            SimTime::ZERO,
            SimTime::from_secs(900),
        )
        .message_reorder_at(SimTime::ZERO, "shop", 0.3, hour);

    let mut shop_outage =
        Scenario::constant("shop-outage", 42, 10, SimDuration::from_secs(25), 64);
    shop_outage.plan = FaultPlan::new().shop_crash_at(
        SimTime::from_secs(70),
        "shop",
        Some(SimDuration::from_secs(60)),
    );

    // The blackout is deliberately noisy: the crashes are the load-
    // bearing failure (six of eight hosts die inside the first minute,
    // dropping the site below its three-plant floor), while the NFS
    // brown-out, the loss window, the outage rule, the background
    // workload and the transport floor are all survivable decoration the
    // shrinker must strip away.
    let mut blackout = Scenario::constant("blackout", 42, 1, SimDuration::from_secs(30), 64);
    blackout.workloads = vec![
        Workload::Mix {
            requests: 16,
            interval: SimDuration::from_secs(20),
            memories: vec![
                MemoryWeight {
                    memory_mb: 32,
                    weight: 2.0,
                },
                MemoryWeight {
                    memory_mb: 64,
                    weight: 2.0,
                },
                MemoryWeight {
                    memory_mb: 256,
                    weight: 1.0,
                },
            ],
        },
        Workload::Constant {
            requests: 6,
            interval: SimDuration::from_secs(45),
            memory_mb: 64,
        },
    ];
    for i in 0..6u64 {
        blackout.plan = blackout
            .plan
            .host_crash_at(SimTime::from_secs(10 * (i + 1)), format!("node{i}"));
    }
    blackout.plan = blackout
        .plan
        .nfs_degraded_at(SimTime::from_secs(5), "storage", 0.5, SimDuration::from_secs(120))
        .message_loss_at(SimTime::ZERO, "shop", 0.2, SimDuration::from_secs(600))
        .random_nfs_outages(
            "storage",
            SimDuration::from_secs(300),
            SimDuration::from_secs(30),
            SimTime::ZERO,
            SimTime::from_secs(600),
        );
    blackout.link.drop_p = 0.05;
    blackout.tuning.min_live_plants = 3;
    blackout.tuning.order_deadline = Some(SimDuration::from_secs(900));

    vec![calm, lossy, spot, shop_outage, blackout]
}

/// Run E20: sweep the `e20_grid` across `seeds` on the parallel
/// harness, pick the worst (scenario, seed) cell, capture its failure
/// signature, and delta-debug it into a minimal reproducing scenario.
/// Fully deterministic: same seeds ⇒ byte-identical
/// [`render_adversarial_sweep`] output and the identical minimal
/// scenario file.
pub fn adversarial_sweep(seeds: &[u64]) -> AdversarialSweepReport {
    use crate::scenario::{run_sweep, shrink::shrink};

    let grid = e20_grid();
    let sweep = run_sweep(&grid, seeds).expect("E20 grid is statically valid");
    let worst = sweep.worst().expect("grid is non-empty").clone();
    let signature = worst.score.signature();
    let shrunk = if signature.is_failure() {
        let scenario = grid
            .iter()
            .find(|s| s.name == worst.name)
            .expect("worst row names a grid scenario");
        let mut shrunk = shrink(scenario, worst.seed, &signature)
            .expect("worst cell reproduces its own signature");
        // The emitted file must be self-contained: rename it and pin the
        // worst seed, so replaying the committed repro needs no context.
        shrunk.scenario.name = "e20-min-repro".to_string();
        shrunk.scenario.seed = worst.seed;
        Some(shrunk)
    } else {
        None
    };
    AdversarialSweepReport {
        sweep,
        worst,
        signature,
        shrink: shrunk,
    }
}

/// Render E20 as a deterministic text report: the scored grid, the
/// worst cell's signature, the shrink history, and the minimal repro
/// scenario inline.
pub fn render_adversarial_sweep(report: &AdversarialSweepReport) -> String {
    let mut out =
        String::from("== E20 adversarial sweep: worst-seed search + minimal repro ==\n");
    out.push_str(&report.sweep.render());
    out.push_str(&format!("signature: {}\n", report.signature.render()));
    match &report.shrink {
        None => out.push_str("no failing cell: nothing to shrink\n"),
        Some(shrunk) => {
            out.push_str(&shrunk.render());
            out.push_str("minimal repro scenario:\n");
            out.push_str(&shrunk.scenario.to_xml());
        }
    }
    out
}

/// The seed E21 pins. Crash recovery is fully seed-deterministic, so
/// one blessed seed keeps the committed fixture small while the
/// byte-identity test still covers the whole pipeline.
pub const E21_SEED: u64 = 42;

/// **E21** — one cell of the shop crash–recovery sweep: a pinned
/// [`vmplants_simkit::FaultKind::ShopCrash`] at `crash_at_s` with
/// `downtime_s` of downtime, under one of the workload shapes.
#[derive(Clone, Debug)]
pub struct RecoverySweepRow {
    /// Workload shape label (`light` / `heavy`).
    pub load: &'static str,
    /// When the shop dies, seconds.
    pub crash_at_s: u64,
    /// How long it stays down, seconds.
    pub downtime_s: u64,
    /// Fraction of orders that settled successfully — must be 1.00:
    /// the journal + failover client lose nothing.
    pub success_rate: f64,
    /// Orders that never settled (must be 0).
    pub hung_orders: usize,
    /// Mean end-to-end latency as the *client* sees it (downtime and
    /// resubmission gaps included), seconds.
    pub mean_latency_s: f64,
    /// Latency added over the crash-free baseline of the same load.
    pub added_latency_s: f64,
    /// Shop incarnations started by recovery.
    pub incarnations: u64,
    /// Orders adopted / resumed / restarted by reconciliation.
    pub adopted: usize,
    /// See `adopted`.
    pub resumed: usize,
    /// See `adopted`.
    pub restarted: usize,
    /// Client-side resubmissions across incarnations.
    pub client_resubmits: u64,
    /// VMIDs resident on two plants after quiesce (must be 0).
    pub duplicate_vms: usize,
}

/// Run E21: a crash-time × downtime × load grid of shop crashes over
/// seeded creation workloads. Crash times are placed to land before the
/// first arrivals settle (mid-flight), mid-stream, and into the steady
/// tail; downtimes cover a blip and an outage longer than a production.
/// Every cell must come back with success rate 1.00, zero hangs, zero
/// duplicate VMs, and bounded latency inflation — the crash-recovery
/// acceptance surface, diffable byte for byte.
pub fn recovery_sweep(seed: u64) -> Vec<RecoverySweepRow> {
    use crate::chaos::{run_chaos, ChaosConfig, OrderSpec};
    use vmplants_simkit::{FaultPlan, SimDuration, SimTime};

    let loads: [(&'static str, usize, u64); 2] = [("light", 8, 30), ("heavy", 24, 5)];
    let crash_times = [15u64, 65, 200];
    let downtimes = [30u64, 120];
    let mut rows = Vec::new();
    for (load, requests, interval_s) in loads {
        let base_config = ChaosConfig {
            seed,
            schedule: OrderSpec::constant(requests, SimDuration::from_secs(interval_s), 64),
            ..ChaosConfig::default()
        };
        // Crash-free baseline of the same load, for the added column.
        let baseline_mean = run_chaos(&base_config).latency.mean();
        for crash_at in crash_times {
            for downtime in downtimes {
                let config = ChaosConfig {
                    plan: FaultPlan::new().shop_crash_at(
                        SimTime::from_secs(crash_at),
                        "shop",
                        Some(SimDuration::from_secs(downtime)),
                    ),
                    ..base_config.clone()
                };
                let report = run_chaos(&config);
                let recovery = &report.recovery;
                rows.push(RecoverySweepRow {
                    load,
                    crash_at_s: crash_at,
                    downtime_s: downtime,
                    success_rate: report.success_rate(),
                    hung_orders: report.hung_orders,
                    mean_latency_s: report.latency.mean(),
                    added_latency_s: report.latency.mean() - baseline_mean,
                    incarnations: recovery.incarnations,
                    adopted: recovery.adopted,
                    resumed: recovery.resumed,
                    restarted: recovery.restarted,
                    client_resubmits: recovery.client_resubmits,
                    duplicate_vms: recovery.duplicate_vms,
                });
            }
        }
    }
    rows
}

/// Render the E21 sweep as a fixed-width table.
pub fn render_recovery_sweep(rows: &[RecoverySweepRow]) -> String {
    let mut out = String::from(
        "== E21 shop crash-recovery sweep: exactly-once across crash-time x downtime x load ==\n",
    );
    out.push_str(
        "  load   crash   down  success  hung  mean-lat    added  inc  adopt  resume  restart  resub  dup-vms\n",
    );
    for row in rows {
        out.push_str(&format!(
            "  {:<5} {:>4}s  {:>4}s  {:>7.2}  {:>4}  {:>7.1}s  {:>+6.1}s  {:>3}  {:>5}  {:>6}  {:>7}  {:>5}  {:>7}\n",
            row.load,
            row.crash_at_s,
            row.downtime_s,
            row.success_rate,
            row.hung_orders,
            row.mean_latency_s,
            row.added_latency_s,
            row.incarnations,
            row.adopted,
            row.resumed,
            row.restarted,
            row.client_resubmits,
            row.duplicate_vms,
        ));
    }
    out
}

/// The seed E22 pins. Warehouse dedup, eviction, and replication are
/// fully seed-deterministic, so one blessed seed keeps the committed
/// fixture small while the byte-identity test covers the whole pipeline.
pub const E22_SEED: u64 = 42;
/// Distinct Zipf goldens E22 publishes in full mode — above the
/// 100-image floor the warehouse-at-scale acceptance asks for.
pub const E22_GOLDENS: u32 = 120;
/// Creation requests per full-mode E22 cell.
pub const E22_REQUESTS: usize = 160;
/// The capacity budgets E22 sweeps, GiB (`None` = unbounded).
pub const E22_BUDGETS_GB: [Option<u64>; 4] = [None, Some(64), Some(32), Some(16)];

/// One cell of the E22 warehouse-at-scale sweep: Zipf demand over a
/// population of DAG-distinct goldens under one capacity budget.
#[derive(Clone, Debug)]
pub struct WarehouseSweepRow {
    /// Capacity budget label (`unbounded` / `64 GiB` / …).
    pub budget: String,
    /// Creation requests issued.
    pub requests: usize,
    /// Fraction of requests that produced a running VM.
    pub success_rate: f64,
    /// Fraction of creations served by a resident golden
    /// (`1 − rederives/requests`): the warehouse hit rate under the
    /// eviction policy.
    pub hit_rate: f64,
    /// Mean end-to-end creation latency, seconds (re-derivation delays
    /// included).
    pub mean_latency_s: f64,
    /// p99 creation latency, seconds.
    pub p99_latency_s: f64,
    /// Goldens dropped to descriptor + DAG by the capacity enforcer.
    pub evictions: u64,
    /// Cold goldens transparently re-derived on demand.
    pub rederives: u64,
    /// Hot goldens replicated to secondary NFS servers.
    pub replications: usize,
    /// Physical chunk-store footprint after the run, GB.
    pub physical_gb: f64,
    /// Logical bytes ÷ physical bytes across the chunk store.
    pub dedup_factor: f64,
}

/// Run one E22 cell: compile a Zipf scenario (which publishes the golden
/// population), apply the warehouse policy under test, run the chaos
/// workload fault-free, and read the warehouse counters off the quiesced
/// site.
pub fn warehouse_cell(
    seed: u64,
    goldens: u32,
    requests: usize,
    budget_gb: Option<u64>,
) -> WarehouseSweepRow {
    use crate::chaos::run_chaos_with_site;
    use crate::scenario::{Scenario, Workload};
    use vmplants_simkit::SimDuration;
    use vmplants_warehouse::WarehouseConfig;

    let mut scenario = Scenario::constant("warehouse", seed, 1, SimDuration::from_secs(30), 64);
    scenario.workloads = vec![Workload::Zipf {
        requests,
        interval: SimDuration::from_secs(15),
        population: goldens,
        exponent: 1.1,
    }];
    let mut config = scenario
        .compile_with_seed(seed)
        .expect("E22 scenario is statically valid");
    config.warehouse = WarehouseConfig {
        dedup: true,
        capacity_bytes: budget_gb.map(gb),
        replicate_after: Some(6),
    };
    config.replica_servers = 2;
    let (report, site) = run_chaos_with_site(&config);
    let warehouse = site.warehouse.borrow();
    let rederives = warehouse.rederive_count();
    WarehouseSweepRow {
        budget: budget_gb
            .map(|g| format!("{g} GiB"))
            .unwrap_or_else(|| "unbounded".to_string()),
        requests: report.requests,
        success_rate: report.success_rate(),
        hit_rate: 1.0 - rederives as f64 / report.requests.max(1) as f64,
        mean_latency_s: report.latency.mean(),
        p99_latency_s: if report.latency_sketch.is_empty() {
            0.0
        } else {
            report.p99()
        },
        evictions: warehouse.eviction_count(),
        rederives,
        replications: warehouse.replicated_count(),
        physical_gb: warehouse.physical_footprint() as f64 / gb(1) as f64,
        dedup_factor: warehouse.dedup_factor(),
    }
}

/// Run E22 in full: the budget sweep over [`E22_BUDGETS_GB`] at the
/// full golden population, cells in budget order on the parallel
/// harness (the in-order merge keeps the rows byte-identical to a
/// serial sweep).
pub fn warehouse_sweep(seed: u64) -> Vec<WarehouseSweepRow> {
    crate::parallel::run_ordered(
        E22_BUDGETS_GB
            .iter()
            .map(|&budget| move || warehouse_cell(seed, E22_GOLDENS, E22_REQUESTS, budget))
            .collect(),
    )
}

/// The quick-mode E22 cell (CI smoke): a smaller population under one
/// tight budget, still exercising dedup, eviction, re-derivation, and
/// replication.
pub fn warehouse_sweep_quick(seed: u64) -> Vec<WarehouseSweepRow> {
    vec![warehouse_cell(seed, 40, 48, Some(12))]
}

/// Render the E22 sweep as a fixed-width table.
pub fn render_warehouse_sweep(rows: &[WarehouseSweepRow]) -> String {
    let mut out = String::from(
        "== E22 warehouse at scale: zipf demand x capacity budget over DAG-distinct goldens ==\n",
    );
    out.push_str(
        "  budget     requests  success  hit-rate  mean-lat    p99-lat  evict  rederive  repl  phys-GB  dedup\n",
    );
    for row in rows {
        out.push_str(&format!(
            "  {:<9} {:>8}  {:>7.2}  {:>8.3}  {:>7.1}s  {:>8.1}s  {:>5}  {:>8}  {:>4}  {:>7.1}  {:>4.1}x\n",
            row.budget,
            row.requests,
            row.success_rate,
            row.hit_rate,
            row.mean_latency_s,
            row.p99_latency_s,
            row.evictions,
            row.rederives,
            row.replications,
            row.physical_gb,
            row.dedup_factor,
        ));
    }
    out
}

/// The seed E23 pins.
pub const E23_SEED: u64 = 42;
/// Orders in the full-mode E23 run (the at-scale acceptance floor).
pub const E23_ORDERS: usize = 1_000_000;
/// Orders in the quick-mode E23 run (CI smoke / shard-identity tests).
pub const E23_QUICK_ORDERS: usize = 8_000;
/// Fixed work units the order stream is split into. Shard counts only
/// *group* these units contiguously — unit boundaries (and therefore
/// every per-unit RNG stream, sampler seq, and merge input) never move,
/// which is what makes the merged report byte-identical across shard
/// counts.
pub const E23_UNITS: usize = 8;
/// Head-sampling rate, parts per million (0.1% of traces retained).
pub const E23_SAMPLE_PPM: u32 = 1_000;
/// Timeline window width for the E23 load/failure series.
pub const E23_WINDOW_S: u64 = 600;
/// Export size budget for all three telemetry dumps combined, bytes.
pub const E23_EXPORT_BUDGET: usize = 16 * 1024 * 1024;

/// Mergeable partial result of one E23 work unit: everything the unit's
/// sampled [`Obs`] kept, in bounded memory — no per-order vectors except
/// the optional exact-oracle samples used to *verify* the sketch bound.
#[derive(Clone, Debug)]
pub struct ObsScalePartial {
    /// Orders processed.
    pub orders: u64,
    /// Orders whose root span carried `outcome=failed`.
    pub failures: u64,
    /// Mergeable latency sketch over successful orders (seconds).
    pub sketch: SketchMetric,
    /// Order arrivals per window.
    pub arrivals: WindowSeries,
    /// Successful completions per window (marked at response time).
    pub completions: WindowSeries,
    /// Failed completions per window.
    pub failed_series: WindowSeries,
    /// Tail retention: slowest + last-failed complete span trees.
    pub flight: FlightRecorder,
    /// Sampler accounting (counters summed, high-water maxed on merge).
    pub stats: SamplerStats,
    /// Head-sampled trace dump (JSONL), concatenated in unit order.
    pub retained_jsonl: String,
    /// Exact latency samples, kept only when the oracle is requested —
    /// this lives in the *driver*, never in the obs layer, and exists
    /// solely to measure sketch rank error against ground truth.
    pub oracle: Vec<f64>,
}

impl ObsScalePartial {
    fn merge(&mut self, other: &ObsScalePartial) {
        self.orders += other.orders;
        self.failures += other.failures;
        self.sketch.merge(&other.sketch);
        self.arrivals.merge(&other.arrivals);
        self.completions.merge(&other.completions);
        self.failed_series.merge(&other.failed_series);
        self.flight.merge(&other.flight);
        self.stats.traces_started += other.stats.traces_started;
        self.stats.traces_finished += other.stats.traces_finished;
        self.stats.traces_retained += other.stats.traces_retained;
        self.stats.traces_failed += other.stats.traces_failed;
        self.stats.spans_recorded += other.stats.spans_recorded;
        self.stats.active += other.stats.active;
        self.stats.active_high_water =
            self.stats.active_high_water.max(other.stats.active_high_water);
        self.retained_jsonl.push_str(&other.retained_jsonl);
        self.oracle.extend_from_slice(&other.oracle);
    }
}

/// The merged E23 result. `shards` records how the units were grouped
/// for execution; [`render_obs_scale`] deliberately never prints it —
/// the rendered report must be byte-identical for any shard count.
#[derive(Clone, Debug)]
pub struct ObsScaleReport {
    /// Total orders driven.
    pub orders: usize,
    /// `run_ordered` jobs the units were grouped into (1, 2, 4 or 8).
    pub shards: usize,
    /// The unit-order merge of all partials.
    pub merged: ObsScalePartial,
}

/// Drive one E23 work unit: `total / E23_UNITS` synthetic orders through
/// a sampled [`Obs`] — root `order` span keyed by VM id, `produce` and
/// `clone_disk` children on the plant track, `outcome=failed` on every
/// thousandth order — with up to 16 orders in flight to exercise the
/// trace-slab reuse path. The latency model is a seeded lognormal, so
/// the stream is deterministic per `(seed, unit)` and independent of
/// which shard runs it.
fn obs_scale_unit(seed: u64, total: usize, unit: usize, oracle: bool) -> ObsScalePartial {
    assert!(
        total.is_multiple_of(E23_UNITS),
        "order count must split over the units"
    );
    let per = total / E23_UNITS;
    let base = per * unit;
    let window = SimDuration::from_secs(E23_WINDOW_S);

    let obs = Obs::sampled(SamplerConfig {
        rate_ppm: E23_SAMPLE_PPM,
        unit: unit as u32,
    });
    let shop_track = obs.track("shop");
    let plant_track = obs.track("plant");
    let mut rng =
        SimRng::seed_from_u64(seed ^ (unit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));

    let mut sketch = SketchMetric::default();
    let mut arrivals = WindowSeries::new(window);
    let mut completions = WindowSeries::new(window);
    let mut failed_series = WindowSeries::new(window);
    let mut oracle_samples = Vec::new();
    let mut failures = 0u64;

    // (root, end, failed) of in-flight orders; root closing is deferred
    // so the sampler's slab sees concurrent traces and slot reuse.
    let mut open: std::collections::VecDeque<(vmplants_simkit::SpanId, SimTime, bool)> =
        std::collections::VecDeque::new();
    let mut close = |obs: &Obs, (root, end, failed): (vmplants_simkit::SpanId, SimTime, bool)| {
        obs.span_end(root, end);
        if failed {
            failed_series.mark(end);
        } else {
            completions.mark(end);
        }
    };

    for j in 0..per {
        let g = base + j;
        let key = format!("vm-{g:07}");
        let at = SimTime::from_millis(g as u64 * 100);
        let failed = (g + 1).is_multiple_of(1000);
        let latency_s = {
            let base_s = rng.lognormal_mean(45.0, 0.6);
            if failed {
                base_s * 4.0
            } else {
                base_s
            }
        };
        let latency_ms = ((latency_s * 1000.0).round() as u64).max(50);
        let end = at + SimDuration::from_millis(latency_ms);

        arrivals.mark(at);
        let root = obs.trace_root(shop_track, "order", &key, at);
        obs.span_attr(root, "vmid", &key);
        let produce = obs.span_start(
            root,
            plant_track,
            "produce",
            at + SimDuration::from_millis(latency_ms / 20),
        );
        let clone = obs.span_start(
            produce,
            plant_track,
            "clone_disk",
            at + SimDuration::from_millis(latency_ms / 5),
        );
        obs.span_end(clone, at + SimDuration::from_millis(latency_ms * 7 / 10));
        obs.span_end(produce, at + SimDuration::from_millis(latency_ms * 19 / 20));
        if failed {
            obs.span_attr(root, "outcome", "failed");
            failures += 1;
        } else {
            sketch.record(latency_s);
            if oracle {
                oracle_samples.push(latency_s);
            }
        }

        open.push_back((root, end, failed));
        if open.len() >= 16 {
            let front = open.pop_front().expect("non-empty");
            close(&obs, front);
        }
    }
    while let Some(front) = open.pop_front() {
        close(&obs, front);
    }

    ObsScalePartial {
        orders: per as u64,
        failures,
        sketch,
        arrivals,
        completions,
        failed_series,
        flight: obs.flight_recorder(),
        stats: obs.sampler_stats().expect("sampled obs has stats"),
        retained_jsonl: obs.trace_jsonl(),
        oracle: oracle_samples,
    }
}

/// Run E23: split [`E23_UNITS`] fixed work units into `shards`
/// contiguous groups, execute the groups on the parallel harness, merge
/// each group's units in unit order and the groups in group order.
/// Because every merge operand is order-invariant (sketch buckets,
/// window counts, `(duration, unit, seq)`-ordered flight selection) and
/// the units themselves are shard-independent, the merged report — and
/// its rendering — is byte-identical for any `shards` dividing
/// [`E23_UNITS`].
pub fn run_obs_scale(total: usize, shards: usize, seed: u64, oracle: bool) -> ObsScaleReport {
    assert!(
        shards > 0 && E23_UNITS.is_multiple_of(shards),
        "shard count must divide the unit count"
    );
    let per_shard = E23_UNITS / shards;
    let partials = crate::parallel::run_ordered(
        (0..shards)
            .map(|s| {
                move || {
                    let first = s * per_shard;
                    let mut acc = obs_scale_unit(seed, total, first, oracle);
                    for unit in first + 1..first + per_shard {
                        acc.merge(&obs_scale_unit(seed, total, unit, oracle));
                    }
                    acc
                }
            })
            .collect(),
    );
    let mut merged = partials[0].clone();
    for partial in &partials[1..] {
        merged.merge(partial);
    }
    ObsScaleReport {
        orders: total,
        shards,
        merged,
    }
}

/// Render the E23 report. Shard-count–invariant by construction: the
/// output depends only on the merged partial, never on `shards`.
pub fn render_obs_scale(report: &ObsScaleReport) -> String {
    let m = &report.merged;
    let ok = m.orders - m.failures;
    let mut out = format!(
        "== E23 observability at scale: {} orders through sampled tracing ==\n",
        report.orders
    );
    out.push_str(&format!(
        "orders: {} ok={} failed={}\n",
        m.orders, ok, m.failures
    ));
    out.push_str(&format!(
        "latency sketch: alpha={:.3} buckets={} count={} p50={:.3}s p99={:.3}s p999={:.3}s mean={:.3}s\n",
        m.sketch.alpha(),
        m.sketch.bucket_count(),
        m.sketch.count(),
        m.sketch.quantile(0.50),
        m.sketch.quantile(0.99),
        m.sketch.quantile(0.999),
        m.sketch.mean(),
    ));
    if !m.oracle.is_empty() {
        let exact = |p: f64| percentile(&m.oracle, p);
        let rel = |sketch: f64, exact: f64| (sketch - exact).abs() / exact;
        let (e50, e99, e999) = (exact(50.0), exact(99.0), exact(99.9));
        out.push_str(&format!(
            "oracle (exact): p50={e50:.3}s p99={e99:.3}s p999={e999:.3}s\n"
        ));
        out.push_str(&format!(
            "oracle relative error: p50={:.5} p99={:.5} p999={:.5} (bound alpha={:.3})\n",
            rel(m.sketch.quantile(0.50), e50),
            rel(m.sketch.quantile(0.99), e99),
            rel(m.sketch.quantile(0.999), e999),
            m.sketch.alpha(),
        ));
    }
    out.push_str(&format!(
        "sampling: started={} finished={} retained={} failed={} spans-recorded={} peak-in-flight={}\n",
        m.stats.traces_started,
        m.stats.traces_finished,
        m.stats.traces_retained,
        m.stats.traces_failed,
        m.stats.spans_recorded,
        m.stats.active_high_water,
    ));
    out.push_str(&format!(
        "flight recorder: slowest={} failed={} spans={}\n",
        m.flight.slowest.len(),
        m.flight.failed.len(),
        m.flight.span_count(),
    ));
    out.push_str(&format!(
        "timeline (window={}): windows={} peak-arrivals={} peak-failures={}\n",
        SimDuration::from_secs(E23_WINDOW_S),
        m.arrivals.window_count(),
        m.arrivals.peak(),
        m.failed_series.peak(),
    ));
    let jsonl = m.retained_jsonl.len();
    let flight_jsonl = m.flight.to_jsonl().len();
    let flight_chrome = m.flight.chrome_trace().len();
    let total = jsonl + flight_jsonl + flight_chrome;
    out.push_str(&format!(
        "exports: retained-jsonl={jsonl}B flight-jsonl={flight_jsonl}B \
         flight-chrome={flight_chrome}B total={total}B budget={}B within-budget={}\n",
        E23_EXPORT_BUDGET,
        total <= E23_EXPORT_BUDGET,
    ));
    out.push_str(
        "bounded memory: sketch buckets + timeline windows + in-flight slab + flight tail \
         (no per-order sample vector)\n",
    );
    out
}

/// One order's critical-path breakdown (E19).
#[derive(Clone, Debug)]
pub struct CriticalPathRow {
    /// The shop-assigned VMID stamped on the order span.
    pub vmid: String,
    /// End-to-end order latency (request → response), seconds.
    pub total_s: f64,
    /// Time attributed to each phase on the critical path, seconds, in
    /// order of first appearance. Sums exactly to `total_s`.
    pub phases: Vec<(String, f64)>,
}

/// E19 output: per-order critical paths over an obs-enabled creation run.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Golden memory size of the run.
    pub memory_mb: u64,
    /// One row per settled order, in VMID order.
    pub rows: Vec<CriticalPathRow>,
    /// The first order's path, rendered by the analyzer (the §4
    /// walkthrough: bid → produce → clone phases → resume → scripts).
    pub example: String,
}

/// Run E19: the §4.2 creation workload with tracing enabled, then walk
/// each finished order's span tree and tile its end-to-end latency into
/// contiguous critical-path segments. The phase durations of every row
/// sum exactly to that order's latency — this is the paper's Table/§4.2
/// latency breakdown (bidding, PPP, cloning, resume, configuration)
/// recovered from the trace rather than from ad-hoc log parsing.
pub(crate) fn critical_path_breakdown(memory_mb: u64, requests: usize, seed: u64) -> CriticalPathReport {
    use vmplants_simkit::Obs;

    let obs = Obs::enabled();
    let mut site = SimSite::build_with_obs(
        SiteConfig {
            seed,
            ..SiteConfig::default()
        },
        obs.clone(),
    );
    for _ in 0..requests {
        let _ = site.create_vm(VmSpec::mandrake(memory_mb), experiment_dag("arijit"));
    }
    let mut rows = Vec::new();
    let mut example = String::new();
    for root in obs.spans_named("order") {
        let Some(path) = obs.critical_path(root) else {
            continue;
        };
        if example.is_empty() {
            example = path.render();
        }
        rows.push(CriticalPathRow {
            vmid: obs.span_attr_get(root, "vmid").unwrap_or_default(),
            total_s: path.total().as_secs_f64(),
            phases: path
                .phase_totals()
                .into_iter()
                .map(|(name, dur)| (name, dur.as_secs_f64()))
                .collect(),
        });
    }
    rows.sort_by(|a, b| a.vmid.cmp(&b.vmid));
    CriticalPathReport {
        memory_mb,
        rows,
        example,
    }
}

/// Render E19: aggregate phase shares across all orders, then the first
/// order's full path.
pub(crate) fn render_critical_paths(report: &CriticalPathReport) -> String {
    use std::collections::BTreeMap;

    let mut out = format!(
        "== E19 critical path: where {} MB creation latency goes ({} orders) ==\n",
        report.memory_mb,
        report.rows.len()
    );
    let grand_total: f64 = report.rows.iter().map(|r| r.total_s).sum();
    let mut order: Vec<&str> = Vec::new();
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for row in &report.rows {
        for (name, secs) in &row.phases {
            if !totals.contains_key(name.as_str()) {
                order.push(name);
            }
            *totals.entry(name).or_insert(0.0) += secs;
        }
    }
    out.push_str("  phase            total      share\n");
    for name in order {
        let secs = totals[name];
        out.push_str(&format!(
            "  {:<14} {:>8.1}s  {:>8.1}%\n",
            name,
            secs,
            if grand_total > 0.0 {
                100.0 * secs / grand_total
            } else {
                0.0
            }
        ));
    }
    out.push_str(&format!("  end-to-end     {grand_total:>8.1}s\n"));
    if !report.example.is_empty() {
        out.push('\n');
        out.push_str(&report.example);
    }
    out
}

/// Render a full evaluation report (all experiments) as text.
pub fn render_report(seed: u64) -> String {
    let mut out = String::new();
    let runs = paper_runs(seed);

    out.push_str("== E1 / Figure 4: end-to-end VM creation latency ==\n");
    for (mem, h) in fig4(&runs) {
        out.push_str(&h.render(&format!("{mem} MB golden")));
    }
    out.push_str("\n== E2 / Figure 5: cloning latency ==\n");
    for (mem, h) in fig5(&runs) {
        out.push_str(&h.render(&format!("{mem} MB golden")));
    }
    out.push_str("\n== E3 / Figure 6: cloning time vs sequence number ==\n");
    for (mem, s) in fig6(&runs) {
        let n = s.points().len();
        out.push_str(&format!(
            "{} MB: first-quartile mean {:.1}s, last-quartile mean {:.1}s, slope {:.3} s/req\n",
            mem,
            s.mean_y_in(1.0, (n / 4).max(1) as f64),
            s.mean_y_in((3 * n / 4) as f64, n as f64),
            s.slope().unwrap_or(0.0),
        ));
    }
    let h = headline(&runs);
    out.push_str(&format!(
        "\n== E8 headline ==\ncreation range {:.0}-{:.0}s (paper: 17-85s); averages: {}\n",
        h.min_s,
        h.max_s,
        h.means
            .iter()
            .map(|(m, v)| format!("{m}MB:{v:.0}s"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let cc = copy_vs_clone(seed + 10);
    out.push_str(&format!(
        "\n== E4 copy vs clone ==\nfull copy {:.0}s (paper: 210s), linked clone {:.0}s, avg 256MB clone {:.0}s, ratio {:.1} (paper: ~4)\n",
        cc.full_copy_s, cc.linked_clone_s, cc.avg_256_clone_s, cc.ratio_vs_avg
    ));

    let uml = uml_boot(20, seed + 20);
    out.push_str(&format!(
        "\n== E5 UML production line ==\naverage clone-and-boot {:.0}s over {} VMs (paper: 76s)\n",
        uml.mean(),
        uml.count()
    ));

    let walk = cost_function_walkthrough(14, seed + 30);
    out.push_str(&format!(
        "\n== E6 cost function ==\ncrossover at request {:?} (paper: after 13 VMs)\n",
        walk.crossover_at
    ));

    out.push_str("\n== E9 run-time overheads ==\n");
    for row in runtime_overhead_table() {
        out.push_str(&format!(
            "  {:<46} paper {:>5.1}%  measured {:>5.1}%\n",
            row.workload, row.paper_percent, row.measured_percent
        ));
    }

    let cp = critical_path_breakdown(64, 8, seed + 40);
    out.push('\n');
    out.push_str(&render_critical_paths(&cp));

    out.push('\n');
    out.push_str(&render_warehouse_sweep(&warehouse_sweep_quick(seed + 50)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_creation_run_produces_consistent_data() {
        let run = run_creation_experiment(32, 8, 3);
        assert_eq!(run.requests, 8);
        assert_eq!(run.successes, 8);
        assert_eq!(run.latencies.len(), 8);
        assert_eq!(run.clones.len(), 8);
        // Sequence numbers are 1..=8 in order.
        let seqs: Vec<usize> = run.clones.iter().map(|c| c.seq).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<_>>());
        // Clone time is always below end-to-end time on average.
        assert!(run.clone_summary().mean() < run.latency_summary().mean());
    }

    #[test]
    fn fig_histograms_are_normalized() {
        let runs = vec![run_creation_experiment(32, 6, 5)];
        for (_, h) in fig4(&runs).iter().chain(fig5(&runs).iter()) {
            let total: f64 = h.normalized().iter().map(|&(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        let series = fig6(&runs);
        assert_eq!(series[0].1.points().len(), 6);
    }

    #[test]
    fn cost_walkthrough_crosses_over_after_13() {
        let walk = cost_function_walkthrough(14, 9);
        assert_eq!(walk.crossover_at, Some(14));
        // Bids follow §3.4: both 50 at first, then 4·k vs 50.
        let (_, a0, b0, _) = walk.rows[0];
        assert_eq!((a0, b0), (50.0, 50.0));
        let (_, a13, b13, _) = walk.rows[13];
        let (busy, idle) = if a13 > b13 { (a13, b13) } else { (b13, a13) };
        assert_eq!(busy, 52.0);
        assert_eq!(idle, 50.0);
    }

    #[test]
    fn transport_sweep_holds_success_under_faults() {
        let rows = transport_sweep(11, 4);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(
                row.success_rate, 1.0,
                "drop={} dup={} should still settle every order",
                row.drop_p, row.dup_p
            );
        }
        // The fault-free cell adds nothing over the baseline.
        assert!(rows[0].added_latency_s.abs() < 1e-9);
        let rendered = render_transport_sweep(&rows);
        assert!(rendered.contains("E18"));
        assert_eq!(rendered.lines().count(), 2 + rows.len());
    }

    #[test]
    fn critical_path_phases_sum_to_end_to_end_latency() {
        let report = critical_path_breakdown(64, 4, 17);
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.vmid.starts_with("vm-"), "vmid {:?}", row.vmid);
            let phase_sum: f64 = row.phases.iter().map(|(_, s)| s).sum();
            // Integer-ms segments tile the order span exactly.
            assert!(
                (phase_sum - row.total_s).abs() < 1e-9,
                "{}: phases sum {phase_sum} vs end-to-end {}",
                row.vmid,
                row.total_s
            );
            // The production phases dominate; bidding shows up too.
            let names: Vec<&str> = row.phases.iter().map(|(n, _)| n.as_str()).collect();
            assert!(names.contains(&"bid"), "{names:?}");
            assert!(
                names.contains(&"clone_disk") || names.contains(&"adopt_spare"),
                "{names:?}"
            );
        }
        // Same seed ⇒ byte-identical rendering (determinism contract).
        let again = critical_path_breakdown(64, 4, 17);
        assert_eq!(render_critical_paths(&report), render_critical_paths(&again));
        let rendered = render_critical_paths(&report);
        assert!(rendered.contains("E19"));
        assert!(rendered.contains("critical path of order"));
    }

    #[test]
    fn overhead_table_matches_paper_envelope() {
        for row in runtime_overhead_table() {
            let rel = (row.measured_percent - row.paper_percent).abs();
            assert!(
                rel < row.paper_percent * 0.5 + 1.0,
                "{}: measured {:.1}% vs paper {:.1}%",
                row.workload,
                row.measured_percent,
                row.paper_percent
            );
        }
    }
}
