//! Scenario → [`ChaosConfig`] compilation: semantic validation plus
//! expansion of workload shapes into a concrete order schedule.
//!
//! Compilation is where a scenario stops being text and starts being a
//! run. The pipeline is:
//!
//! 1. **Validate** — workload shapes (positive intervals, amplitude in
//!    range, published memory sizes), tuning/transport overrides
//!    (probabilities in `[0,1]`, ordered delay ranges), and the fault
//!    plan ([`vmplants_simkit::FaultPlan::validate`]) against the
//!    default chaos site's real component names — so a typo'd
//!    `"node9"` is an error, not a fault that silently never lands.
//! 2. **Expand** — each workload shape becomes an explicit arrival
//!    list; multiple workloads merge by a stable sort on arrival time
//!    (ties keep declaration order). The heterogeneous mix draws
//!    memory sizes from its own forked RNG stream, so the realized mix
//!    depends only on the seed, never on what else runs.
//!
//! The sweep driver compiles one scenario many times under different
//! seeds ([`Scenario::compile_with_seed`]); only the mix workload's
//! memory draw and the fault plan's materialization consume the seed,
//! so the schedule's *timing* is seed-invariant by construction.

use std::f64::consts::TAU;

use vmplants_simkit::{FaultPlan, SimDuration, SimRng};

use crate::chaos::{ChaosConfig, OrderSpec};

use super::{RuleDecl, Scenario, ScenarioError, Workload};

/// Stream tag for the mix workload's memory draw: forked off the run
/// seed so scenario compilation never perturbs the site's RNG.
const MIX_STREAM: u64 = 0x006d_6978; // "mix"

/// Stream tag for the zipf workload's rank draw, independent of the mix
/// stream so adding one workload never reshuffles the other.
const ZIPF_STREAM: u64 = 0x7a69_7066; // "zipf"

/// The memory sizes the warehouse publishes goldens for.
const GOLDEN_MEMORY_MB: [u64; 3] = [32, 64, 256];

/// Does `name` exist in the default chaos site? `run_chaos` always
/// builds [`crate::site::SiteConfig::default`]: hosts `node0..node7`,
/// one NFS server `storage`, one shop `shop`.
pub fn default_site_target(name: &str) -> bool {
    if name == "shop" || name == "storage" {
        return true;
    }
    name.strip_prefix("node")
        .and_then(|n| n.parse::<usize>().ok())
        .is_some_and(|i| i < 8)
}

fn check_memory(w: &Workload, memory_mb: u64) -> Result<(), ScenarioError> {
    if GOLDEN_MEMORY_MB.contains(&memory_mb) {
        Ok(())
    } else {
        Err(ScenarioError::BadWorkload {
            workload: w.kind().to_string(),
            what: format!("memory {memory_mb} MB has no published golden (expected one of 32/64/256)"),
        })
    }
}

fn check_positive(w: &Workload, d: SimDuration, what: &str) -> Result<(), ScenarioError> {
    if d == SimDuration::ZERO {
        Err(ScenarioError::BadWorkload {
            workload: w.kind().to_string(),
            what: format!("{what} must be positive"),
        })
    } else {
        Ok(())
    }
}

fn validate_workload(w: &Workload) -> Result<(), ScenarioError> {
    let reject = |what: &str| {
        Err(ScenarioError::BadWorkload {
            workload: w.kind().to_string(),
            what: what.to_string(),
        })
    };
    if w.requests() == 0 {
        return reject("declares zero requests");
    }
    match w {
        Workload::Constant {
            interval,
            memory_mb,
            ..
        } => {
            check_positive(w, *interval, "interval")?;
            check_memory(w, *memory_mb)
        }
        Workload::Diurnal {
            base_interval,
            amplitude,
            period,
            memory_mb,
            ..
        } => {
            check_positive(w, *base_interval, "base interval")?;
            check_positive(w, *period, "period")?;
            // amplitude == 1 would stall the arrival process at the
            // trough (intensity 0 ⇒ infinite gap).
            if !(*amplitude >= 0.0 && *amplitude < 1.0) {
                return reject("amplitude must be in [0, 1)");
            }
            check_memory(w, *memory_mb)
        }
        Workload::Flash {
            requests,
            interval,
            memory_mb,
            burst_requests,
            ..
        } => {
            if *requests > 0 {
                check_positive(w, *interval, "interval")?;
            }
            if *burst_requests == 0 {
                return reject("flash crowd declares zero burst requests");
            }
            check_memory(w, *memory_mb)
        }
        Workload::Mix {
            interval, memories, ..
        } => {
            check_positive(w, *interval, "interval")?;
            if memories.is_empty() {
                return reject("mix declares no <memory> choices");
            }
            for m in memories {
                check_memory(w, m.memory_mb)?;
                if m.weight <= 0.0 || !m.weight.is_finite() {
                    return reject("every mix weight must be positive and finite");
                }
            }
            Ok(())
        }
        Workload::Zipf {
            interval,
            population,
            exponent,
            ..
        } => {
            check_positive(w, *interval, "interval")?;
            if *population == 0 {
                return reject("zipf declares an empty golden population");
            }
            if !(*exponent >= 0.0 && exponent.is_finite()) {
                return reject("zipf exponent must be finite and non-negative");
            }
            Ok(())
        }
    }
}

fn validate_probability(p: f64, what: &str) -> Result<(), ScenarioError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        Err(ScenarioError::BadTransport {
            what: format!("{what} = {p} is outside [0, 1]"),
        })
    } else {
        Ok(())
    }
}

fn validate_range(range: (f64, f64), what: &str) -> Result<(), ScenarioError> {
    let (lo, hi) = range;
    if !(lo.is_finite() && hi.is_finite()) || lo < 0.0 || lo >= hi {
        Err(ScenarioError::BadTransport {
            what: format!("{what} range [{lo}, {hi}) must satisfy 0 <= lo < hi"),
        })
    } else {
        Ok(())
    }
}

/// Expand one workload's arrivals into `out`.
fn expand_workload(w: &Workload, seed: u64, out: &mut Vec<OrderSpec>) {
    match w {
        Workload::Constant {
            requests,
            interval,
            memory_mb,
        } => out.extend(OrderSpec::constant(*requests, *interval, *memory_mb)),
        Workload::Diurnal {
            requests,
            base_interval,
            amplitude,
            period,
            memory_mb,
        } => {
            // Arrival intensity 1 + A·sin(2πt/T): the next gap is the
            // base interval divided by the intensity *at the current
            // time* — a discrete thinning of the curve that needs no
            // closed-form inverse and is exactly reproducible.
            let mut t = 0.0f64;
            let period_s = period.as_secs_f64();
            for _ in 0..*requests {
                out.push(OrderSpec {
                    at: SimDuration::from_secs_f64(t),
                    memory_mb: *memory_mb,
                    dag_rank: 0,
                });
                let intensity = 1.0 + amplitude * (TAU * t / period_s).sin();
                t += base_interval.as_secs_f64() / intensity;
            }
        }
        Workload::Flash {
            requests,
            interval,
            memory_mb,
            burst_at,
            burst_requests,
            burst_spacing,
        } => {
            out.extend(OrderSpec::constant(*requests, *interval, *memory_mb));
            for j in 0..*burst_requests {
                out.push(OrderSpec {
                    at: *burst_at + *burst_spacing * j as u64,
                    memory_mb: *memory_mb,
                    dag_rank: 0,
                });
            }
        }
        Workload::Mix {
            requests,
            interval,
            memories,
        } => {
            let mut rng = SimRng::seed_from_u64(seed ^ MIX_STREAM);
            let total: f64 = memories.iter().map(|m| m.weight).sum();
            for i in 0..*requests {
                let mut pick = rng.uniform(0.0, total);
                let mut memory_mb = memories[memories.len() - 1].memory_mb;
                for m in memories {
                    if pick < m.weight {
                        memory_mb = m.memory_mb;
                        break;
                    }
                    pick -= m.weight;
                }
                out.push(OrderSpec {
                    at: *interval * i as u64,
                    memory_mb,
                    dag_rank: 0,
                });
            }
        }
        Workload::Zipf {
            requests,
            interval,
            population,
            exponent,
        } => {
            // Rank k is drawn with weight 1/(k+1)^s from the zipf RNG
            // stream; `dag_rank` is the 1-based rank (0 is reserved for
            // the legacy experiment DAG).
            let mut rng = SimRng::seed_from_u64(seed ^ ZIPF_STREAM);
            let weights: Vec<f64> = (0..*population)
                .map(|k| 1.0 / ((k + 1) as f64).powf(*exponent))
                .collect();
            let total: f64 = weights.iter().sum();
            for i in 0..*requests {
                let mut pick = rng.uniform(0.0, total);
                let mut rank = *population - 1;
                for (k, w) in weights.iter().enumerate() {
                    if pick < *w {
                        rank = k as u32;
                        break;
                    }
                    pick -= w;
                }
                out.push(OrderSpec {
                    at: *interval * i as u64,
                    // The zipf golden population is published at 64 MB.
                    memory_mb: 64,
                    dag_rank: rank + 1,
                });
            }
        }
    }
}

impl Scenario {
    /// The scenario's fault plan (pinned events + stochastic rules),
    /// unvalidated — [`Scenario::compile`] validates it.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            plan = plan.schedule(f.at, f.target.clone(), f.kind.clone());
        }
        for r in &self.rules {
            plan = match r {
                RuleDecl::HostFaults {
                    targets,
                    mtbf,
                    downtime,
                    from,
                    until,
                } => plan.random_host_faults(targets.clone(), *mtbf, *downtime, *from, *until),
                RuleDecl::NfsOutages {
                    target,
                    mean_gap,
                    outage,
                    from,
                    until,
                } => plan.random_nfs_outages(target.clone(), *mean_gap, *outage, *from, *until),
            };
        }
        plan
    }

    /// Compile under the scenario's own seed.
    pub fn compile(&self) -> Result<ChaosConfig, ScenarioError> {
        self.compile_with_seed(self.seed)
    }

    /// Validate and compile into a runnable [`ChaosConfig`] under an
    /// explicit seed (the sweep driver's worst-seed search overrides the
    /// file's seed per cell). Same scenario + same seed ⇒ the identical
    /// config.
    pub fn compile_with_seed(&self, seed: u64) -> Result<ChaosConfig, ScenarioError> {
        if self.workloads.is_empty() {
            return Err(ScenarioError::NoWorkload);
        }
        for w in &self.workloads {
            validate_workload(w)?;
        }

        let plan = self.fault_plan();
        plan.validate(default_site_target)?;

        if let Some(p) = self.link.drop_p {
            validate_probability(p, "drop-p")?;
        }
        if let Some(p) = self.link.dup_p {
            validate_probability(p, "dup-p")?;
        }
        if let Some(p) = self.link.reorder_p {
            validate_probability(p, "reorder-p")?;
        }
        if let Some(range) = self.link.delay {
            validate_range(range, "delay")?;
        }
        if let Some(range) = self.link.reorder_hold {
            validate_range(range, "reorder hold")?;
        }
        for (d, what) in [
            (self.tuning.order_deadline, "order deadline"),
            (self.tuning.attempt_timeout, "attempt timeout"),
            (self.tuning.backoff_base, "backoff base"),
            (self.tuning.backoff_cap, "backoff cap"),
            (self.tuning.rto_base, "rto base"),
            (self.tuning.rto_cap, "rto cap"),
        ] {
            if d == Some(SimDuration::ZERO) {
                return Err(ScenarioError::BadTuning {
                    what: format!("{what} must be positive"),
                });
            }
        }
        if self.tuning.dedup_capacity == Some(0) {
            return Err(ScenarioError::BadTuning {
                what: "dedup capacity must be at least 1".to_string(),
            });
        }
        if let Some(slo) = &self.slo {
            if slo.is_empty() {
                return Err(ScenarioError::BadSlo {
                    what: "declares no objective".to_string(),
                });
            }
            if let Some(r) = slo.success_rate {
                if !(0.0..=1.0).contains(&r) || r.is_nan() {
                    return Err(ScenarioError::BadSlo {
                        what: format!("success-rate = {r} is outside [0, 1]"),
                    });
                }
            }
            for (s, what) in [
                (slo.p50_s, "p50-s"),
                (slo.p99_s, "p99-s"),
                (slo.p999_s, "p999-s"),
            ] {
                if let Some(s) = s {
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(ScenarioError::BadSlo {
                            what: format!("{what} = {s} must be positive and finite"),
                        });
                    }
                }
            }
        }

        let tuning = self.tuning.apply(vmplants_shop::ShopTuning::default());
        let link = if self.link.is_empty() {
            None
        } else {
            Some(self.link.apply(vmplants_simkit::LinkTuning::default()))
        };

        let mut schedule = Vec::with_capacity(self.total_requests());
        for w in &self.workloads {
            expand_workload(w, seed, &mut schedule);
        }
        // Stable: simultaneous arrivals keep declaration order.
        schedule.sort_by_key(|o| o.at);

        // A zipf workload's demand only makes sense against its golden
        // population, so compiling one publishes the largest population
        // any zipf workload in the scenario references.
        let zipf_goldens = self
            .workloads
            .iter()
            .map(|w| match w {
                Workload::Zipf { population, .. } => *population,
                _ => 0,
            })
            .max()
            .unwrap_or(0);

        Ok(ChaosConfig {
            seed,
            schedule,
            link,
            plan,
            tuning,
            warehouse: vmplants_warehouse::WarehouseConfig::default(),
            zipf_goldens,
            replica_servers: 0,
            slo: self.slo,
        })
    }
}

#[cfg(test)]
mod tests {
    use vmplants_simkit::{FaultKind, SimTime};

    use super::super::{LinkOverrides, MemoryWeight, TuningOverrides};
    use super::*;

    fn constant(requests: usize) -> Scenario {
        Scenario::constant("t", 42, requests, SimDuration::from_secs(20), 64)
    }

    #[test]
    fn default_site_targets_cover_the_chaos_testbed() {
        for name in ["shop", "storage", "node0", "node7"] {
            assert!(default_site_target(name), "{name} should be known");
        }
        for name in ["node8", "node-1", "nfs", "plantX", ""] {
            assert!(!default_site_target(name), "{name} should be unknown");
        }
    }

    #[test]
    fn constant_scenario_compiles_like_a_hand_built_schedule() {
        let config = constant(12).compile().expect("compile");
        let schedule = OrderSpec::constant(12, SimDuration::from_secs(20), 64);
        assert_eq!(config.schedule, schedule);
        assert!(config.link.is_none());
        let hand_built = ChaosConfig {
            seed: 42,
            schedule,
            ..ChaosConfig::default()
        };
        assert_eq!(
            crate::chaos::run_chaos(&config).render_full(),
            crate::chaos::run_chaos(&hand_built).render_full()
        );
    }

    #[test]
    fn multiple_workloads_merge_into_a_sorted_schedule() {
        let mut s = constant(3);
        s.workloads.push(Workload::Flash {
            requests: 0,
            interval: SimDuration::from_secs(60),
            memory_mb: 256,
            burst_at: SimDuration::from_secs(30),
            burst_requests: 2,
            burst_spacing: SimDuration::from_millis(500),
        });
        let schedule = s.compile().expect("compile").schedule;
        assert_eq!(schedule.len(), 5);
        let arrivals: Vec<(u64, u64)> = schedule
            .iter()
            .map(|o| (o.at.as_millis(), o.memory_mb))
            .collect();
        assert_eq!(
            arrivals,
            vec![
                (0, 64),
                (20_000, 64),
                (30_000, 256),
                (30_500, 256),
                (40_000, 64)
            ]
        );
    }

    #[test]
    fn diurnal_gaps_follow_the_intensity_curve() {
        let s = Scenario {
            workloads: vec![Workload::Diurnal {
                requests: 8,
                base_interval: SimDuration::from_secs(30),
                amplitude: 0.5,
                period: SimDuration::from_secs(240),
                memory_mb: 64,
            }],
            ..constant(1)
        };
        let schedule = s.compile().expect("compile").schedule;
        assert_eq!(schedule.len(), 8);
        // Strictly increasing, and the gaps vary (it is not a constant
        // stream in disguise).
        let gaps: Vec<u64> = schedule
            .windows(2)
            .map(|w| w[1].at.as_millis() - w[0].at.as_millis())
            .collect();
        assert!(gaps.iter().all(|&g| g > 0));
        assert!(gaps.iter().any(|&g| g != gaps[0]));
        // Around the peak of the curve arrivals come faster than base.
        assert!(gaps.iter().min().unwrap() < &30_000);
        assert!(gaps.iter().max().unwrap() > &30_000);
    }

    #[test]
    fn mix_draw_is_seeded_and_weighted() {
        let s = Scenario {
            workloads: vec![Workload::Mix {
                requests: 64,
                interval: SimDuration::from_secs(10),
                memories: vec![
                    MemoryWeight {
                        memory_mb: 32,
                        weight: 3.0,
                    },
                    MemoryWeight {
                        memory_mb: 256,
                        weight: 1.0,
                    },
                ],
            }],
            ..constant(1)
        };
        let a = s.compile_with_seed(7).expect("compile").schedule;
        let b = s.compile_with_seed(7).expect("compile").schedule;
        assert_eq!(a, b, "same seed, same realized mix");
        let c = s.compile_with_seed(8).expect("compile").schedule;
        assert_ne!(a, c, "different seed, different realized mix");
        let small = a.iter().filter(|o| o.memory_mb == 32).count();
        let large = a.len() - small;
        assert!(
            small > large,
            "weight 3:1 should favour 32 MB ({small} vs {large})"
        );
    }

    #[test]
    fn zipf_draw_is_seeded_skewed_and_publishes_the_population() {
        let s = Scenario {
            workloads: vec![Workload::Zipf {
                requests: 120,
                interval: SimDuration::from_secs(10),
                population: 40,
                exponent: 1.0,
            }],
            ..constant(1)
        };
        let config = s.compile_with_seed(7).expect("compile");
        assert_eq!(config.zipf_goldens, 40, "population published as goldens");
        let a = config.schedule;
        let b = s.compile_with_seed(7).expect("compile").schedule;
        assert_eq!(a, b, "same seed, same realized demand");
        let c = s.compile_with_seed(8).expect("compile").schedule;
        assert_ne!(a, c, "different seed, different realized demand");
        // Every order targets a published rank (1-based; 0 is legacy).
        assert!(a.iter().all(|o| (1..=40).contains(&o.dag_rank)));
        assert!(a.iter().all(|o| o.memory_mb == 64));
        // Rank 1 dominates the tail under exponent 1.
        let head = a.iter().filter(|o| o.dag_rank == 1).count();
        let tail = a.iter().filter(|o| o.dag_rank > 20).count();
        assert!(
            head > tail,
            "zipf head should outdraw the tail ({head} vs {tail})"
        );
    }

    #[test]
    fn compile_rejects_bad_zipf_workloads() {
        let zipf = |population: u32, exponent: f64| Scenario {
            workloads: vec![Workload::Zipf {
                requests: 4,
                interval: SimDuration::from_secs(10),
                population,
                exponent,
            }],
            ..constant(1)
        };
        assert!(matches!(
            zipf(0, 1.0).compile().unwrap_err(),
            ScenarioError::BadWorkload { .. }
        ));
        assert!(matches!(
            zipf(10, -0.5).compile().unwrap_err(),
            ScenarioError::BadWorkload { .. }
        ));
        assert!(matches!(
            zipf(10, f64::NAN).compile().unwrap_err(),
            ScenarioError::BadWorkload { .. }
        ));
        assert!(zipf(10, 0.0).compile().is_ok(), "uniform draw is legal");
    }

    #[test]
    fn compile_rejects_bad_workloads() {
        let err = Scenario {
            workloads: vec![],
            ..constant(1)
        }
        .compile()
        .unwrap_err();
        assert_eq!(err, ScenarioError::NoWorkload);

        let err = constant(0).compile().unwrap_err();
        assert!(matches!(err, ScenarioError::BadWorkload { .. }), "{err}");

        let mut s = constant(4);
        s.workloads[0] = Workload::Constant {
            requests: 4,
            interval: SimDuration::ZERO,
            memory_mb: 64,
        };
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::BadWorkload { .. }
        ));

        let mut s = constant(4);
        s.workloads[0] = Workload::Constant {
            requests: 4,
            interval: SimDuration::from_secs(20),
            memory_mb: 48,
        };
        let err = s.compile().unwrap_err();
        assert!(err.to_string().contains("no published golden"), "{err}");

        let s = Scenario {
            workloads: vec![Workload::Diurnal {
                requests: 4,
                base_interval: SimDuration::from_secs(30),
                amplitude: 1.0,
                period: SimDuration::from_secs(240),
                memory_mb: 64,
            }],
            ..constant(1)
        };
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::BadWorkload { .. }
        ));
    }

    #[test]
    fn compile_validates_and_threads_the_slo() {
        use crate::chaos::SloSpec;
        let with_slo = |spec: SloSpec| Scenario {
            slo: Some(spec),
            ..constant(4)
        };
        assert!(matches!(
            with_slo(SloSpec::default()).compile().unwrap_err(),
            ScenarioError::BadSlo { .. }
        ));
        assert!(matches!(
            with_slo(SloSpec {
                success_rate: Some(1.5),
                ..SloSpec::default()
            })
            .compile()
            .unwrap_err(),
            ScenarioError::BadSlo { .. }
        ));
        assert!(matches!(
            with_slo(SloSpec {
                p99_s: Some(0.0),
                ..SloSpec::default()
            })
            .compile()
            .unwrap_err(),
            ScenarioError::BadSlo { .. }
        ));

        let good = SloSpec {
            success_rate: Some(0.9),
            p99_s: Some(120.0),
            ..SloSpec::default()
        };
        let constant = with_slo(good).compile().expect("compile");
        assert_eq!(constant.slo, Some(good));
        let mut rich = with_slo(good);
        rich.workloads.push(Workload::Flash {
            requests: 0,
            interval: SimDuration::from_secs(60),
            memory_mb: 64,
            burst_at: SimDuration::from_secs(30),
            burst_requests: 2,
            burst_spacing: SimDuration::from_millis(500),
        });
        let rich = rich.compile().expect("compile");
        assert_eq!(rich.slo, Some(good));
        assert_eq!(rich.schedule.len(), 6);
    }

    #[test]
    fn compile_rejects_bad_fault_plans() {
        // Unknown target.
        let s = constant(4).with_fault(SimTime::from_secs(10), "node9", FaultKind::HostCrash);
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::Fault(_)
        ));

        // Out-of-range probability.
        let s = constant(4).with_fault(
            SimTime::ZERO,
            "shop",
            FaultKind::MessageLoss {
                probability: 1.5,
                duration: SimDuration::from_secs(60),
            },
        );
        assert!(matches!(s.compile().unwrap_err(), ScenarioError::Fault(_)));
    }

    #[test]
    fn compile_rejects_bad_overrides() {
        let s = Scenario {
            link: LinkOverrides {
                drop_p: Some(1.5),
                ..LinkOverrides::default()
            },
            ..constant(4)
        };
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::BadTransport { .. }
        ));

        let s = Scenario {
            link: LinkOverrides {
                delay: Some((0.2, 0.1)),
                ..LinkOverrides::default()
            },
            ..constant(4)
        };
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::BadTransport { .. }
        ));

        let s = Scenario {
            tuning: TuningOverrides {
                attempt_timeout: Some(SimDuration::ZERO),
                ..TuningOverrides::default()
            },
            ..constant(4)
        };
        assert!(matches!(
            s.compile().unwrap_err(),
            ScenarioError::BadTuning { .. }
        ));
    }
}
