//! Ablations of the design choices DESIGN.md calls out (experiments
//! E10–E14): each isolates one mechanism of the paper and measures what
//! it buys.
//!
//! * **E10** — speculative pre-creation (§6 future work): how much of the
//!   creation latency disappears when clones are pre-created.
//! * **E11** — partial DAG matching (§3.2, the core contribution): creation
//!   time as a function of how much of the DAG the golden image already
//!   carries.
//! * **E12** — the NFS path: full-copy vs. linked-clone times across
//!   warehouse bandwidths (where the paper's 210 s baseline comes from).
//! * **E13** — the cost function (§3.4): load balance and host-only-network
//!   consumption under the three bidding models.
//! * **E14** — concurrency: creation latency under simultaneous bursts
//!   (the paper only measures sequential request streams).

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_cluster::testbed::TestbedConfig;
use vmplants_dag::graph::experiment_dag;
use vmplants_dag::{Action, ConfigDag, PerformedLog};
use vmplants_plant::{CostModel, VmId};
use vmplants_simkit::stats::Summary;
use vmplants_virt::VmSpec;

use crate::site::{SimSite, SiteConfig};

/// E10 results.
#[derive(Clone, Debug)]
pub struct PrecreationAblation {
    /// Mean end-to-end creation latency without spares, s.
    pub cold_mean_s: f64,
    /// Mean with a pre-created spare available, s.
    pub warm_mean_s: f64,
    /// Mean cloning component when adopting a spare, s.
    pub warm_clone_mean_s: f64,
    /// Mean cloning component cold, s.
    pub cold_clone_mean_s: f64,
}

/// Run E10: `n` cold creations, then prewarm `n` spares and run `n` warm
/// creations on a single-plant site.
pub fn precreation_ablation(n: usize, seed: u64) -> PrecreationAblation {
    let mut config = SiteConfig {
        seed,
        ..SiteConfig::default()
    };
    config.testbed.nodes = 1;
    let mut site = SimSite::build(config);
    let mut cold = Summary::new();
    let mut cold_clone = Summary::new();
    let mut ids = Vec::new();
    for _ in 0..n {
        let ad = site
            .create_vm(VmSpec::mandrake(64), experiment_dag("arijit"))
            .expect("cold create");
        cold.record(ad.get_f64("create_s").expect("attr"));
        cold_clone.record(ad.get_f64("clone_s").expect("attr"));
        ids.push(VmId(ad.get_str("vmid").expect("attr")));
    }
    // Clear the cold VMs so host pressure does not confound the warm runs.
    for id in &ids {
        site.destroy_vm(id).expect("collect");
    }
    // Prewarm.
    let plant = site.plants[0].clone();
    let made = Rc::new(RefCell::new(0usize));
    let made2 = Rc::clone(&made);
    plant.prewarm(
        &mut site.engine,
        VmSpec::mandrake(64),
        experiment_dag("arijit"),
        n,
        Box::new(move |_, res| {
            *made2.borrow_mut() = res.expect("prewarm ok");
        }),
    );
    site.engine.run();
    assert_eq!(*made.borrow(), n, "all spares created");
    let mut warm = Summary::new();
    let mut warm_clone = Summary::new();
    for _ in 0..n {
        let ad = site
            .create_vm(VmSpec::mandrake(64), experiment_dag("arijit"))
            .expect("warm create");
        warm.record(ad.get_f64("create_s").expect("attr"));
        warm_clone.record(ad.get_f64("clone_s").expect("attr"));
    }
    PrecreationAblation {
        cold_mean_s: cold.mean(),
        warm_mean_s: warm.mean(),
        warm_clone_mean_s: warm_clone.mean(),
        cold_clone_mean_s: cold_clone.mean(),
    }
}

/// The application DAG used by the matching-depth ablation: a realistic
/// install chain where early actions are expensive (OS and application
/// installs) and late ones cheap (per-instance configuration).
pub fn depth_ablation_dag() -> ConfigDag {
    let mut dag = ConfigDag::new();
    let actions = [
        Action::guest("os", "install-base-os").with_nominal_ms(600_000),
        Action::guest("libs", "install-science-libs").with_nominal_ms(180_000),
        Action::guest("app", "install-lss-app").with_nominal_ms(120_000),
        Action::guest("data", "stage-reference-data").with_nominal_ms(60_000),
        Action::guest("cfg", "configure-instance").with_nominal_ms(2_000),
        Action::guest("run", "start-worker").with_nominal_ms(1_000),
    ];
    for a in actions {
        dag.add_action(a).expect("unique");
    }
    dag.chain(&["os", "libs", "app", "data", "cfg", "run"])
        .expect("chain");
    dag
}

/// One E11 replica: mean creation latency on a single-plant site whose
/// only golden covers the first `depth` actions of the ablation DAG.
/// Self-contained (fresh site per call), so depths can run in parallel.
pub fn matching_depth_row(depth: usize, per_depth: usize, seed: u64) -> (usize, f64) {
    let dag = depth_ablation_dag();
    let order_of_actions = dag.topo_sort().expect("dag");
    let mut config = SiteConfig {
        seed: seed + depth as u64,
        publish_goldens: false,
        ..SiteConfig::default()
    };
    config.testbed.nodes = 1;
    let mut site = SimSite::build(config);
    let performed: PerformedLog = order_of_actions
        .iter()
        .take(depth)
        .map(|id| dag.action(id).expect("from sort").clone())
        .collect();
    site.warehouse
        .borrow_mut()
        .publish(
            site.cluster.nfs(),
            format!("depth-{depth}"),
            format!("golden with {depth} actions"),
            VmSpec::mandrake(64),
            performed,
        )
        .expect("publish");
    let mut latency = Summary::new();
    for _ in 0..per_depth {
        let ad = site
            .create_vm(VmSpec::mandrake(64), dag.clone())
            .expect("create");
        latency.record(ad.get_f64("create_s").expect("attr"));
    }
    (depth, latency.mean())
}

/// Run E11: mean creation latency with a golden covering the first
/// `depth` actions, for every depth 0..=6. Returns `(depth, mean_s)`.
pub fn matching_depth_ablation(per_depth: usize, seed: u64) -> Vec<(usize, f64)> {
    let depths = depth_ablation_dag().len();
    (0..=depths)
        .map(|depth| matching_depth_row(depth, per_depth, seed))
        .collect()
}

/// E12 results row.
#[derive(Clone, Debug)]
pub struct NfsSweepRow {
    /// Warehouse-path bandwidth, MB/s.
    pub bandwidth_mb_s: f64,
    /// Mean linked-clone time of a 256 MB golden, s.
    pub clone_256_s: f64,
    /// Full 2 GB disk copy time, s.
    pub full_copy_s: f64,
    /// Their ratio (the paper's headline factor at 10 MB/s is ~4-5).
    pub ratio: f64,
}

/// Run E12: sweep the warehouse bandwidth.
pub fn nfs_bandwidth_sweep(seed: u64) -> Vec<NfsSweepRow> {
    let mut rows = Vec::new();
    for mb_s in [5.0f64, 10.0, 20.0, 50.0] {
        let config = SiteConfig {
            seed,
            testbed: TestbedConfig {
                nodes: 1,
                nfs_bandwidth: mb_s * 1024.0 * 1024.0,
                ..TestbedConfig::default()
            },
            ..SiteConfig::default()
        };
        let mut site = SimSite::build(config);
        let mut clone_s = Summary::new();
        for _ in 0..5 {
            let ad = site
                .create_vm(VmSpec::mandrake(256), experiment_dag("arijit"))
                .expect("create");
            clone_s.record(ad.get_f64("clone_s").expect("attr"));
            // Collect to keep the host unpressured across the sweep.
            let id = VmId(ad.get_str("vmid").expect("attr"));
            site.destroy_vm(&id).expect("collect");
        }
        // The full copy at this bandwidth: 2 GB + 16 file overheads.
        let full_copy_s = site
            .cluster
            .nfs()
            .estimate(2 * 1024 * 1024 * 1024, 16)
            .as_secs_f64();
        rows.push(NfsSweepRow {
            bandwidth_mb_s: mb_s,
            clone_256_s: clone_s.mean(),
            full_copy_s,
            ratio: full_copy_s / clone_s.mean(),
        });
    }
    rows
}

/// E13 results row.
#[derive(Clone, Debug)]
pub struct CostModelRow {
    /// Model label.
    pub model: &'static str,
    /// VMs on the most-loaded minus the least-loaded plant after the run.
    pub imbalance: usize,
    /// Host-only networks consumed across the site.
    pub networks_used: usize,
}

/// Run E13: one client domain issues `requests` creations on a 4-plant
/// site under each bidding model.
pub fn cost_model_balance(requests: usize, seed: u64) -> Vec<CostModelRow> {
    let models: [(&'static str, CostModel); 3] = [
        ("free-memory (prototype §4.1)", CostModel::FreeMemoryPrototype),
        ("network+compute (§3.4)", CostModel::section_3_4_example()),
        ("uniform (random placement)", CostModel::Uniform),
    ];
    let mut rows = Vec::new();
    for (label, model) in models {
        let mut config = SiteConfig {
            seed,
            cost_model: model,
            ..SiteConfig::default()
        };
        config.testbed.nodes = 4;
        let mut site = SimSite::build(config);
        for _ in 0..requests {
            site.create_vm(VmSpec::mandrake(32), experiment_dag("arijit"))
                .expect("create");
        }
        let counts: Vec<usize> = site.plants.iter().map(|p| p.vm_count()).collect();
        let imbalance = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        let networks_used: usize = site.plants.iter().map(|p| p.networks_in_use()).sum();
        rows.push(CostModelRow {
            model: label,
            imbalance,
            networks_used,
        });
    }
    rows
}

/// E15 results: the UML line with and without SBUML-style checkpointing
/// (§4.3 flags this exact comparison as "the subject of on-going
/// experimental studies").
#[derive(Clone, Debug)]
pub struct UmlCheckpointAblation {
    /// Mean clone-and-boot time (the prototype's path), s.
    pub boot_mean_s: f64,
    /// Mean clone-and-resume time from an SBUML snapshot, s.
    pub resume_mean_s: f64,
    /// Speedup factor.
    pub speedup: f64,
}

/// Run E15: `n` clones per mode on a bare backend.
pub fn uml_checkpoint_ablation(n: usize, seed: u64) -> UmlCheckpointAblation {
    use vmplants_cluster::files::gb;
    use vmplants_cluster::host::{Host, HostSpec};
    use vmplants_cluster::nfs::NfsServer;
    use vmplants_simkit::{Engine, SimRng};
    use vmplants_virt::{Hypervisor, ImageFiles};

    let run = |checkpoint: bool, seed: u64| -> f64 {
        let mut engine = Engine::new();
        let host = Host::new(HostSpec::e1350_node("n"));
        let nfs = NfsServer::new("s");
        let img = if checkpoint {
            ImageFiles::plan_uml_checkpoint("/w/uml32", 32, gb(2))
        } else {
            ImageFiles::plan("/w/uml32", vmplants_virt::VmmType::UmlLike, 32, gb(2))
        };
        img.materialize(&nfs.store, 32, gb(2)).expect("publish");
        let rng = Rc::new(RefCell::new(SimRng::seed_from_u64(seed)));
        let hv = Hypervisor::new(rng);
        let mut total = 0.0;
        for i in 0..n {
            let out = Rc::new(RefCell::new(0.0));
            let out2 = Rc::clone(&out);
            hv.instantiate(
                &mut engine,
                &img,
                &VmSpec::uml(32),
                &host,
                &nfs,
                &format!("/c/vm{i}"),
                Box::new(move |_, res| {
                    *out2.borrow_mut() = res.expect("clone").total.as_secs_f64();
                }),
            );
            engine.run();
            total += *out.borrow();
            // Tear down so pressure stays flat across the run.
            let d = Rc::new(RefCell::new(false));
            let d2 = Rc::clone(&d);
            hv.destroy(
                &mut engine,
                &host,
                &VmSpec::uml(32),
                &format!("/c/vm{i}"),
                Box::new(move |_, res| {
                    res.expect("destroy");
                    *d2.borrow_mut() = true;
                }),
            );
            engine.run();
        }
        total / n as f64
    };
    let boot_mean_s = run(false, seed);
    let resume_mean_s = run(true, seed + 1);
    UmlCheckpointAblation {
        boot_mean_s,
        resume_mean_s,
        speedup: boot_mean_s / resume_mean_s,
    }
}

/// E14 results row.
#[derive(Clone, Debug)]
pub struct BurstRow {
    /// Simultaneous requests issued at t=0.
    pub burst: usize,
    /// Mean end-to-end latency, s.
    pub mean_s: f64,
    /// Max latency, s.
    pub max_s: f64,
}

/// The burst sizes E14 sweeps.
pub const BURST_SIZES: [usize; 4] = [1, 4, 8, 16];

/// One E14 burst replica: `burst` simultaneous 64 MB creations at t=0 on
/// a fresh 8-plant site seeded `seed + burst` (each replica owns its
/// whole simulation, so replicas are independent and parallelizable).
fn burst_row(burst: usize, seed: u64) -> BurstRow {
    let mut site = SimSite::build(SiteConfig {
        seed: seed + burst as u64,
        ..SiteConfig::default()
    });
    let results: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..burst {
        let order = site.order(VmSpec::mandrake(64), experiment_dag("arijit"));
        let results2 = Rc::clone(&results);
        site.shop.create(
            &mut site.engine,
            order,
            Box::new(move |_, res| {
                let ad = res.expect("burst create");
                results2
                    .borrow_mut()
                    .push(ad.get_f64("create_s").expect("attr"));
            }),
        );
    }
    site.engine.run();
    let latencies = results.borrow();
    assert_eq!(latencies.len(), burst);
    let mean = latencies.iter().sum::<f64>() / burst as f64;
    let max = latencies.iter().copied().fold(0.0f64, f64::max);
    BurstRow {
        burst,
        mean_s: mean,
        max_s: max,
    }
}

/// Run E14: bursts of simultaneous 64 MB creations on the 8-plant site.
/// The paper measures only sequential streams; under a burst, clones
/// contend on the shared NFS pipe and latency grows with burst size.
/// Each burst size is an independent replica, so the sweep runs them on
/// [`crate::parallel::run_ordered`], rows in sweep order.
pub fn concurrent_burst(seed: u64) -> Vec<BurstRow> {
    crate::parallel::run_ordered(
        BURST_SIZES
            .iter()
            .map(|&burst| move || burst_row(burst, seed))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_prewarming_hides_cloning_latency() {
        let r = precreation_ablation(4, 101);
        assert!(r.warm_clone_mean_s < 1.0, "{r:?}");
        assert!(r.cold_clone_mean_s > 8.0, "{r:?}");
        assert!(r.warm_mean_s < r.cold_mean_s - 8.0, "{r:?}");
    }

    #[test]
    fn e11_deeper_goldens_create_faster() {
        let rows = matching_depth_ablation(2, 201);
        assert_eq!(rows.len(), 7);
        // Monotone non-increasing (within noise) and a dramatic overall
        // drop: the depth-0 golden replays a 16-minute install chain.
        assert!(rows[0].1 > 900.0, "depth 0 = {:.0}s", rows[0].1);
        assert!(rows[4].1 < 60.0, "depth 4 = {:.0}s", rows[4].1);
        assert!(rows[6].1 < rows[0].1 / 20.0);
        for w in rows.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.15,
                "latency should fall with depth: {rows:?}"
            );
        }
    }

    #[test]
    fn e12_bandwidth_moves_both_but_ratio_stays_large() {
        let rows = nfs_bandwidth_sweep(301);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[1].full_copy_s < w[0].full_copy_s);
            assert!(w[1].clone_256_s < w[0].clone_256_s);
        }
        // Even at 50 MB/s the linked clone wins clearly.
        assert!(rows.iter().all(|r| r.ratio > 2.0), "{rows:?}");
    }

    #[test]
    fn e13_cost_models_balance_differently() {
        let rows = cost_model_balance(24, 401);
        let by = |needle: &str| rows.iter().find(|r| r.model.contains(needle)).unwrap();
        // The free-memory model spreads perfectly (imbalance 0-1); uniform
        // random placement is lumpier; §3.4 deliberately concentrates to
        // conserve host-only networks.
        assert!(by("free-memory").imbalance <= 1, "{rows:?}");
        assert!(by("network+compute").imbalance >= 4, "{rows:?}");
        assert!(by("network+compute").networks_used <= by("free-memory").networks_used);
    }

    #[test]
    fn e15_checkpointing_beats_booting_by_a_wide_margin() {
        let r = uml_checkpoint_ablation(4, 601);
        assert!((68.0..84.0).contains(&r.boot_mean_s), "{r:?}");
        assert!(r.resume_mean_s < 16.0, "{r:?}");
        assert!(r.speedup > 4.5, "{r:?}");
        // Exact means, so any change to either UML clone path shows.
        assert_eq!(r.boot_mean_s, 73.6875, "{r:?}");
        assert_eq!(r.resume_mean_s, 9.250250000000001, "{r:?}");
    }

    #[test]
    fn e14_bursts_contend_on_the_nfs_pipe() {
        let rows = concurrent_burst(501);
        assert_eq!(rows.len(), 4);
        let solo = rows[0].mean_s;
        let big = rows.last().unwrap();
        assert!(
            big.mean_s > solo * 1.5,
            "16-wide burst should slow: solo {solo:.1}s vs {:.1}s",
            big.mean_s
        );
    }
}
