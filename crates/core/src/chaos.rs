//! Chaos experiments: Figure-4-style creation workloads under a
//! deterministic fault plan.
//!
//! The scenario machinery lives in `vmplants_simkit::fault`; this module
//! maps materialized [`FaultEvent`]s onto the assembled site — host
//! crashes and reboots hit plants ([`Plant::host_crashed`] /
//! [`Plant::host_recovered`]), NFS events hit the cluster file server,
//! message-loss windows hit the shop — then drives the arrival schedule
//! through a failover [`ShopClient`] into VMShop and reports how the
//! stack recovered. Same [`ChaosConfig`] (including seed) ⇒
//! byte-identical fault trace and report, which is what makes
//! robustness regressions diffable.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_dag::graph::experiment_dag;
use vmplants_plant::Plant;
use vmplants_shop::{RecoveryStats, ShopClient, ShopTuning};
use vmplants_simkit::stats::Summary;
use vmplants_simkit::{
    Engine, FaultEvent, FaultInjector, FaultKind, FaultPlan, LinkTuning, Obs, SimDuration,
    SketchMetric, TransportStats,
};
use vmplants_virt::VmSpec;

use crate::site::{SimSite, SiteConfig};

/// One scheduled client arrival: a creation request for a `memory_mb`
/// VM issued at virtual time `at`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderSpec {
    /// Arrival offset from the start of the run.
    pub at: SimDuration,
    /// Memory size of the requested VM (a published golden size).
    pub memory_mb: u64,
    /// Which configuration DAG the request asks for. 0 (the default)
    /// keeps the legacy §4.2 [`experiment_dag`]; a value *r* ≥ 1 requests
    /// [`vmplants_dag::graph::zipf_dag`] rank *r − 1* — the
    /// warehouse-at-scale workload over a population of DAG-distinct
    /// goldens (published via [`SiteConfig::zipf_goldens`]).
    pub dag_rank: u32,
}

impl OrderSpec {
    /// A constant stream: `requests` arrivals of `memory_mb` VMs on the
    /// §4.2 DAG, one every `interval` starting at time zero.
    pub fn constant(requests: usize, interval: SimDuration, memory_mb: u64) -> Vec<OrderSpec> {
        (0..requests)
            .map(|i| OrderSpec {
                at: interval * i as u64,
                memory_mb,
                dag_rank: 0,
            })
            .collect()
    }
}

/// A service-level objective evaluated against a chaos run: minimum
/// success rate plus latency-quantile ceilings. Quantiles are read from
/// the report's [`SketchMetric`], so checking an SLO never requires the
/// full sample vector — a million-order run is judged from a few KB of
/// sketch state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SloSpec {
    /// Minimum acceptable success rate, in `[0, 1]`.
    pub success_rate: Option<f64>,
    /// Maximum acceptable p50 latency, seconds.
    pub p50_s: Option<f64>,
    /// Maximum acceptable p99 latency, seconds.
    pub p99_s: Option<f64>,
    /// Maximum acceptable p99.9 latency, seconds.
    pub p999_s: Option<f64>,
}

impl SloSpec {
    /// True when no objective is declared.
    pub fn is_empty(&self) -> bool {
        *self == SloSpec::default()
    }

    /// One-line deterministic rendering of the declared objectives.
    pub(crate) fn render(&self) -> String {
        let mut parts = Vec::new();
        if let Some(r) = self.success_rate {
            parts.push(format!("success-rate>={r}"));
        }
        if let Some(s) = self.p50_s {
            parts.push(format!("p50<={s}s"));
        }
        if let Some(s) = self.p99_s {
            parts.push(format!("p99<={s}s"));
        }
        if let Some(s) = self.p999_s {
            parts.push(format!("p999<={s}s"));
        }
        if parts.is_empty() {
            "(empty)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// One chaos run's configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seeds both the site and the fault-plan materialization.
    pub seed: u64,
    /// The client arrivals, in time order: a constant stream
    /// ([`OrderSpec::constant`]) or a compiled scenario workload
    /// (diurnal curves, flash crowds, heterogeneous memory mixes).
    /// Requests overlap under faults, unlike the sequential §4.2 runs.
    pub schedule: Vec<OrderSpec>,
    /// Baseline transport behaviour override (per-hop delay range,
    /// whole-run drop/dup/reorder floors). `None` leaves the fabric at
    /// [`LinkTuning::default`].
    pub link: Option<LinkTuning>,
    /// The fault scenario.
    pub plan: FaultPlan,
    /// Shop robustness knobs for the run.
    pub tuning: ShopTuning,
    /// Warehouse policy (chunk dedup, capacity budget, replication
    /// threshold) threaded into the site. The default changes nothing.
    pub warehouse: vmplants_warehouse::WarehouseConfig,
    /// Zipf golden population published before the run (0 = none; see
    /// [`OrderSpec::dag_rank`]).
    pub zipf_goldens: u32,
    /// Secondary NFS servers built into the testbed (replication
    /// targets; 0 = the plain §4.2 testbed).
    pub replica_servers: usize,
    /// Service-level objective to evaluate against the run; violations
    /// render in the report and surface in sweep scoring.
    pub slo: Option<SloSpec>,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 42,
            schedule: OrderSpec::constant(16, SimDuration::from_secs(30), 64),
            link: None,
            plan: FaultPlan::new(),
            tuning: ShopTuning::default(),
            warehouse: vmplants_warehouse::WarehouseConfig::default(),
            zipf_goldens: 0,
            replica_servers: 0,
            slo: None,
        }
    }
}

/// Shop crash–recovery outcomes of a chaos run. Every run submits
/// through the failover [`ShopClient`], so every run reports them; a
/// plan without a [`FaultKind::ShopCrash`] reads zero incarnations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosRecovery {
    /// Shop incarnations started by recovery (0 under a permanent
    /// crash — the shop never comes back).
    pub incarnations: u64,
    /// Finished VMs adopted from plants across all recoveries.
    pub adopted: usize,
    /// In-flight productions re-dispatched under their journaled keys.
    pub resumed: usize,
    /// Provably lost orders re-run from a fresh bid round.
    pub restarted: usize,
    /// Client-side resubmissions (see [`ShopClient::resubmits`]).
    pub client_resubmits: u64,
    /// VMIDs hosted by more than one plant after the run quiesced —
    /// must be 0 (exactly-once would be broken otherwise).
    pub duplicate_vms: usize,
}

/// What one chaos run observed.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The injected faults, in firing order.
    pub trace: Vec<FaultEvent>,
    /// Requests issued.
    pub requests: usize,
    /// Requests that produced a running VM.
    pub successes: usize,
    /// Successes that needed more than one plant dispatch — the orders
    /// the recovery machinery actually saved.
    pub recovered: usize,
    /// Orders that never settled (must be 0: deadlines forbid hangs).
    pub hung_orders: usize,
    /// Orphaned VMs reaped by the post-run GC sweep.
    pub orphans_collected: usize,
    /// End-to-end latency of every successful order, seconds.
    pub latency: Summary,
    /// Mergeable log-bucket quantile sketch over the same successful
    /// latencies: p50/p99/p999 within [`vmplants_simkit::SKETCH_ALPHA`]
    /// relative error from O(1) memory.
    pub latency_sketch: SketchMetric,
    /// The SLO the run was judged against, if any (copied from the
    /// config so the report is self-describing).
    pub slo: Option<SloSpec>,
    /// End-to-end latency of the recovered orders only — the cost of
    /// surviving a fault.
    pub recovery_latency: Summary,
    /// Terminal error strings of failed orders, in completion order.
    pub errors: Vec<String>,
    /// Send-time decision counters of the shop↔plant transport.
    pub transport: TransportStats,
    /// The transport's per-message decision trace — the full envelope
    /// history of the run, byte-identical per seed.
    pub envelope_trace: String,
    /// Shop crash–recovery statistics.
    pub recovery: ChaosRecovery,
}

impl ChaosReport {
    /// Fraction of requests that succeeded.
    pub(crate) fn success_rate(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.successes as f64 / self.requests as f64
    }

    /// Median successful-order latency from the sketch, seconds (NaN
    /// when nothing succeeded).
    pub(crate) fn p50(&self) -> f64 {
        self.latency_sketch.quantile(0.5)
    }

    /// p99 successful-order latency from the sketch, seconds.
    pub(crate) fn p99(&self) -> f64 {
        self.latency_sketch.quantile(0.99)
    }

    /// p99.9 successful-order latency from the sketch, seconds.
    pub(crate) fn p999(&self) -> f64 {
        self.latency_sketch.quantile(0.999)
    }

    /// Evaluate the attached SLO (empty when none is attached or every
    /// objective holds). Quantile objectives are judged from the sketch;
    /// an empty sketch (no successes) trips only the success-rate check.
    pub fn slo_violations(&self) -> Vec<String> {
        let Some(slo) = &self.slo else {
            return Vec::new();
        };
        let mut violations = Vec::new();
        if let Some(min) = slo.success_rate {
            if self.success_rate() < min {
                violations.push(format!(
                    "success-rate {:.3} < {min}",
                    self.success_rate()
                ));
            }
        }
        for (q, limit, label) in [
            (0.5, slo.p50_s, "p50"),
            (0.99, slo.p99_s, "p99"),
            (0.999, slo.p999_s, "p999"),
        ] {
            if let Some(limit) = limit {
                let observed = self.latency_sketch.quantile(q);
                if observed > limit {
                    violations.push(format!("{label} {observed:.3}s > {limit}s"));
                }
            }
        }
        violations
    }

    /// Deterministic textual report: the fault trace plus recovery
    /// statistics. Byte-identical across runs of the same config.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos: {} requests, {} faults injected\n",
            self.requests,
            self.trace.len()
        ));
        for event in &self.trace {
            out.push_str(&format!("  {event}\n"));
        }
        out.push_str(&format!(
            "outcome: {}/{} ok ({:.1}%), {} recovered, {} hung, {} orphans collected\n",
            self.successes,
            self.requests,
            100.0 * self.success_rate(),
            self.recovered,
            self.hung_orders,
            self.orphans_collected,
        ));
        let line = |label: &str, s: &Summary| -> String {
            if s.count() == 0 {
                format!("{label}: n=0\n")
            } else {
                format!(
                    "{label}: n={} mean={:.3}s min={:.3}s max={:.3}s\n",
                    s.count(),
                    s.mean(),
                    s.min(),
                    s.max()
                )
            }
        };
        out.push_str(&line("latency", &self.latency));
        out.push_str(&line("recovery latency", &self.recovery_latency));
        let r = &self.recovery;
        out.push_str(&format!(
            "shop recovery: incarnations={} adopted={} resumed={} restarted={} \
             client-resubmits={} duplicate-vms={}\n",
            r.incarnations, r.adopted, r.resumed, r.restarted, r.client_resubmits, r.duplicate_vms,
        ));
        if let Some(slo) = &self.slo {
            if self.latency_sketch.is_empty() {
                out.push_str("slo quantiles: n=0\n");
            } else {
                out.push_str(&format!(
                    "slo quantiles (sketch α={}): p50={:.3}s p99={:.3}s p999={:.3}s\n",
                    self.latency_sketch.alpha(),
                    self.p50(),
                    self.p99(),
                    self.p999(),
                ));
            }
            let violations = self.slo_violations();
            if violations.is_empty() {
                out.push_str(&format!("slo: {} -> ok\n", slo.render()));
            } else {
                out.push_str(&format!(
                    "slo: {} -> {} violated\n",
                    slo.render(),
                    violations.len()
                ));
                for v in &violations {
                    out.push_str(&format!("  slo violation: {v}\n"));
                }
            }
        }
        out.push_str(&format!("transport: {}\n", self.transport));
        for err in &self.errors {
            out.push_str(&format!("error: {err}\n"));
        }
        out
    }

    /// [`ChaosReport::render`] plus the complete envelope trace — the
    /// chaos-transport smoke fixture's format.
    pub fn render_full(&self) -> String {
        let mut out = self.render();
        out.push_str("envelope trace:\n");
        for line in self.envelope_trace.lines() {
            out.push_str(&format!("  {line}\n"));
        }
        out
    }
}

/// Map one materialized fault onto the site's components.
fn apply_fault(
    engine: &mut Engine,
    event: &FaultEvent,
    plants: &[Plant],
    nfs: &vmplants_cluster::NfsServer,
    shop: &vmplants_shop::VmShop,
    recoveries: &Rc<RefCell<Vec<RecoveryStats>>>,
) {
    match &event.kind {
        FaultKind::HostCrash => {
            if let Some(plant) = plants.iter().find(|p| p.name() == event.target) {
                plant.host_crashed(engine);
            }
        }
        FaultKind::HostReboot { downtime } => {
            if let Some(plant) = plants.iter().find(|p| p.name() == event.target) {
                plant.host_crashed(engine);
                let plant = plant.clone();
                engine.schedule(*downtime, move |engine| plant.host_recovered(engine));
            }
        }
        FaultKind::NfsOutage { duration } => {
            if nfs.name() == event.target {
                nfs.set_offline(engine);
                let nfs = nfs.clone();
                engine.schedule(*duration, move |engine| nfs.set_online(engine));
            }
        }
        FaultKind::NfsDegraded { factor, duration } => {
            if nfs.name() == event.target {
                nfs.set_bandwidth_factor(engine, *factor);
                let nfs = nfs.clone();
                engine.schedule(*duration, move |engine| {
                    nfs.set_bandwidth_factor(engine, 1.0)
                });
            }
        }
        FaultKind::MessageLoss {
            probability,
            duration,
        } => {
            shop.transport()
                .inject_loss(engine, &event.target, *probability, *duration);
        }
        FaultKind::MessageDuplicate {
            probability,
            duration,
        } => {
            shop.transport()
                .inject_duplication(engine, &event.target, *probability, *duration);
        }
        FaultKind::MessageReorder {
            probability,
            duration,
        } => {
            shop.transport()
                .inject_reorder(engine, &event.target, *probability, *duration);
        }
        FaultKind::LinkPartition { duration } => {
            shop.transport()
                .inject_partition(engine, &event.target, *duration);
        }
        FaultKind::ShopCrash { downtime } => {
            shop.crash(engine);
            if let Some(downtime) = downtime {
                let shop = shop.clone();
                let recoveries = Rc::clone(recoveries);
                engine.schedule(*downtime, move |engine| {
                    let stats = shop.recover(engine);
                    recoveries.borrow_mut().push(stats);
                });
            }
        }
    }
}

/// Run a creation workload under `config`'s fault plan and report
/// recovery behaviour.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    run_chaos_with_site(config).0
}

/// As [`run_chaos`], but also hand back the quiesced site so tests can
/// assert resource-level invariants (per-plant VM counts, network
/// leases, warehouse contents) after the storm.
pub fn run_chaos_with_site(config: &ChaosConfig) -> (ChaosReport, SimSite) {
    run_chaos_with_obs(config, Obs::disabled())
}

/// As [`run_chaos_with_site`], with an observability sink distributed
/// through the whole site: every order is traced, and the run's outcome
/// counters are mirrored into the metrics registry under `chaos.*`.
/// The report itself is byte-identical whether tracing is on or off —
/// instrumentation never perturbs the simulation.
pub fn run_chaos_with_obs(config: &ChaosConfig, obs: Obs) -> (ChaosReport, SimSite) {
    let mut site = {
        let mut site_config = SiteConfig {
            seed: config.seed,
            warehouse: config.warehouse.clone(),
            zipf_goldens: config.zipf_goldens,
            ..SiteConfig::default()
        };
        site_config.testbed.replica_servers = config.replica_servers;
        SimSite::build_with_obs(site_config, obs)
    };
    site.shop.set_tuning(config.tuning.clone());
    // Every chaos report carries the run's envelope trace.
    site.shop.transport().record_trace();
    for plant in &site.plants {
        plant.set_dedup_capacity(config.tuning.dedup_capacity);
    }
    if let Some(link) = &config.link {
        site.shop.transport().set_tuning(link.clone());
    }
    let requests = config.schedule.len();

    // Wire the fault plan to the site.
    let events = config.plan.materialize(config.seed);
    let recoveries: Rc<RefCell<Vec<RecoveryStats>>> = Rc::new(RefCell::new(Vec::new()));
    let plants = site.plants.clone();
    let nfs = site.cluster.nfs().clone();
    let shop_for_faults = site.shop.clone();
    let recoveries_for_faults = Rc::clone(&recoveries);
    let injector = FaultInjector::install(&mut site.engine, events, move |engine, event| {
        apply_fault(
            engine,
            event,
            &plants,
            &nfs,
            &shop_for_faults,
            &recoveries_for_faults,
        );
    });

    // The client arrival stream, submitted through the failover
    // [`ShopClient`]: it keys every order and resubmits it across shop
    // incarnations.
    let client = ShopClient::new("client", site.shop.clone());
    let errors: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    for arrival in &config.schedule {
        // Rank 0 keeps the legacy §4.2 DAG verbatim; rank r ≥ 1 asks for
        // the Zipf population's rank r − 1.
        let dag = match arrival.dag_rank {
            0 => experiment_dag("arijit"),
            r => vmplants_dag::graph::zipf_dag(r - 1, "arijit"),
        };
        let order = site.order(VmSpec::mandrake(arrival.memory_mb), dag);
        let errors = Rc::clone(&errors);
        let client = client.clone();
        site.engine.schedule(arrival.at, move |engine| {
            client.submit(
                engine,
                order,
                Box::new(move |_, res| {
                    if let Err(e) = res {
                        errors.borrow_mut().push(e.to_string());
                    }
                }),
            );
        });
    }
    site.engine.run();

    // Exactly-once audit before the orphan sweep: a VMID hosted by more
    // than one plant means a crash forked a duplicate production.
    let duplicate_vms = {
        let mut seen: std::collections::BTreeMap<vmplants_plant::VmId, usize> =
            std::collections::BTreeMap::new();
        for plant in &site.plants {
            if let Ok(vms) = plant.list_vms() {
                for id in vms {
                    *seen.entry(id).or_insert(0) += 1;
                }
            }
        }
        seen.values().filter(|&&n| n > 1).count()
    };

    // Post-run sweep: reap VMs that survived lost responses or re-bids.
    let orphans_collected = site.shop.gc_orphans(&mut site.engine);
    site.engine.run();

    // The client log sees end-to-end latency *including* downtime and
    // resubmission gaps, while `recovered` counts shop-side
    // multi-dispatch orders.
    let clog = client.log();
    let mut latency = Summary::new();
    let mut latency_sketch = SketchMetric::default();
    let mut successes = 0;
    for entry in clog.iter().filter(|e| e.success) {
        successes += 1;
        latency.record(entry.latency.as_secs_f64());
        latency_sketch.record(entry.latency.as_secs_f64());
    }
    let mut recovery_latency = Summary::new();
    let mut recovered = 0;
    for entry in site.shop.request_log() {
        if entry.success && entry.attempts >= 2 {
            recovered += 1;
            recovery_latency.record(entry.latency.as_secs_f64());
        }
    }
    let recovery = {
        let recs = recoveries.borrow();
        ChaosRecovery {
            incarnations: recs.len() as u64,
            adopted: recs.iter().map(|r| r.adopted).sum(),
            resumed: recs.iter().map(|r| r.resumed).sum(),
            restarted: recs.iter().map(|r| r.restarted).sum(),
            client_resubmits: client.resubmits(),
            duplicate_vms,
        }
    };
    let transport = site.shop.transport();
    let report = ChaosReport {
        trace: injector.trace(),
        requests,
        successes,
        recovered,
        hung_orders: requests.saturating_sub(clog.len()),
        orphans_collected,
        latency,
        latency_sketch,
        slo: config.slo,
        recovery_latency,
        errors: Rc::try_unwrap(errors)
            .map(RefCell::into_inner)
            .unwrap_or_default(),
        transport: transport.stats(),
        envelope_trace: transport.trace_text(),
        recovery,
    };
    // Mirror the run's outcome counters into the metrics registry, so
    // one snapshot (`Obs::metrics_text`) covers transport, engine, and
    // chaos outcomes alike.
    let r = &report.recovery;
    for (name, value) in [
        ("chaos.faults_injected", report.trace.len() as u64),
        ("chaos.requests", report.requests as u64),
        ("chaos.successes", report.successes as u64),
        ("chaos.recovered", report.recovered as u64),
        ("chaos.hung_orders", report.hung_orders as u64),
        ("chaos.orphans_collected", report.orphans_collected as u64),
        ("chaos.shop_incarnations", r.incarnations),
        ("chaos.orders_adopted", r.adopted as u64),
        ("chaos.orders_resumed", r.resumed as u64),
        ("chaos.orders_restarted", r.restarted as u64),
        ("chaos.client_resubmits", r.client_resubmits),
        ("chaos.duplicate_vms", r.duplicate_vms as u64),
    ] {
        site.obs.counter(name).add(value);
    }
    if report.slo.is_some() {
        site.obs
            .counter("chaos.slo_violations")
            .add(report.slo_violations().len() as u64);
    }
    (report, site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_simkit::SimTime;

    /// A scenario that exercises every fault kind: one plant reboots
    /// mid-run, one dies for good, the NFS server browns out and the
    /// shop↔plant link turns lossy for a window.
    fn eventful_config(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            schedule: OrderSpec::constant(8, SimDuration::from_secs(20), 64),
            plan: FaultPlan::new()
                .host_reboot_at(
                    SimTime::from_secs(15),
                    "node0",
                    SimDuration::from_secs(60),
                )
                .host_crash_at(SimTime::from_secs(70), "node1")
                .nfs_degraded_at(
                    SimTime::from_secs(30),
                    "storage",
                    0.25,
                    SimDuration::from_secs(60),
                )
                .nfs_outage_at(
                    SimTime::from_secs(120),
                    "storage",
                    SimDuration::from_secs(20),
                )
                .message_loss_at(
                    SimTime::from_secs(160),
                    "shop",
                    0.5,
                    SimDuration::from_secs(40),
                ),
            tuning: ShopTuning {
                attempt_timeout: SimDuration::from_secs(120),
                ..ShopTuning::default()
            },
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn chaos_run_is_byte_identical_per_seed() {
        let a = run_chaos(&eventful_config(7));
        let b = run_chaos(&eventful_config(7));
        assert_eq!(a.render(), b.render(), "same seed, same everything");
        assert_eq!(a.trace, b.trace);
        // A different seed realizes a different run (site timing differs
        // even with the same pinned faults).
        let c = run_chaos(&eventful_config(8));
        assert_ne!(a.render(), c.render());
    }

    #[test]
    fn orders_survive_the_fault_storm_without_hanging() {
        let report = run_chaos(&eventful_config(7));
        assert_eq!(report.trace.len(), 5, "all pinned faults fired");
        assert_eq!(report.hung_orders, 0, "deadlines forbid hangs");
        assert!(
            report.success_rate() >= 0.5,
            "most orders survive: {}",
            report.render()
        );
        assert!(
            report.recovered >= 1,
            "at least one order needed recovery: {}",
            report.render()
        );
        let text = report.render();
        assert!(text.contains("host-reboot"));
        assert!(text.contains("nfs-outage"));
        assert!(text.contains("message-loss"));
    }

    #[test]
    fn fault_free_chaos_matches_a_plain_workload() {
        let report = run_chaos(&ChaosConfig {
            schedule: OrderSpec::constant(4, SimDuration::from_secs(30), 64),
            ..ChaosConfig::default()
        });
        assert_eq!(report.trace.len(), 0);
        assert_eq!(report.successes, 4);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.orphans_collected, 0);
        assert_eq!(report.hung_orders, 0);
    }

    #[test]
    fn chaos_reports_always_carry_the_envelope_trace() {
        // Transports record only on request; a chaos run always asks, so
        // even a fault-free report lists every message it sent.
        let report = run_chaos(&ChaosConfig {
            schedule: OrderSpec::constant(4, SimDuration::from_secs(30), 64),
            ..ChaosConfig::default()
        });
        let lines = report.envelope_trace.lines().count() as u64;
        assert!(lines > 0, "{}", report.render());
        assert_eq!(lines, report.transport.sent + report.transport.duplicated);
    }

    #[test]
    fn slo_extends_the_report_only_when_asked() {
        let plain = run_chaos(&eventful_config(7));
        let plain_text = plain.render();
        assert!(!plain_text.contains("slo"), "SLO-free reports carry no SLO lines");
        assert_eq!(plain.latency_sketch.count(), plain.successes as u64);

        let mut config = eventful_config(7);
        config.slo = Some(SloSpec {
            success_rate: Some(0.25),
            p99_s: Some(0.001),
            ..SloSpec::default()
        });
        let report = run_chaos(&config);
        assert_eq!(report.latency_sketch, plain.latency_sketch);

        let text = report.render();
        assert!(text.contains("slo quantiles"), "{text}");
        let violations = report.slo_violations();
        assert!(
            violations.iter().any(|v| v.starts_with("p99 ")),
            "tight p99 objective must trip: {violations:?}"
        );
        assert!(text.contains("slo violation: p99 "), "{text}");
    }

    #[test]
    fn random_fault_rules_inject_reproducibly() {
        let config = ChaosConfig {
            schedule: OrderSpec::constant(4, SimDuration::from_secs(30), 64),
            plan: FaultPlan::new().random_host_faults(
                ["node0", "node1", "node2", "node3"],
                SimDuration::from_secs(120),
                Some(SimDuration::from_secs(45)),
                SimTime::ZERO,
                SimTime::from_secs(400),
            ),
            ..ChaosConfig::default()
        };
        let a = run_chaos(&config);
        let b = run_chaos(&config);
        assert_eq!(a.render(), b.render());
        assert!(!a.trace.is_empty(), "the Poisson rule produced faults");
        assert_eq!(a.hung_orders, 0);
    }
}

