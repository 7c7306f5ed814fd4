//! Delta-debugging the worst run into a minimal reproducing scenario.
//!
//! Once the sweep names a worst (scenario, seed) pair, the interesting
//! question is *which part* of the scenario actually breaks the
//! recovery machinery — a twelve-fault storm that fails because of one
//! partition window is noise around a one-line repro. The shrinker
//! answers it the classic delta-debugging way, specialized to the
//! scenario grammar:
//!
//! 1. capture the **failure signature** of the original run — the set
//!    of terminal-error *classes* (detail after `;`/`:` stripped, see
//!    `error_class`) plus whether orders hung;
//! 2. greedily try simplifications, keeping each only if the simplified
//!    scenario still reproduces the signature (its classes remain a
//!    superset, and it still hangs if the original hung):
//!    drop whole stochastic rules → drop pinned faults → reset tuning
//!    and transport to their defaults → drop extra workloads → shorten
//!    pinned fault durations (halving, floor 1 s) → halve request
//!    counts (floor 1);
//! 3. repeat until a full pass accepts nothing.
//!
//! Every candidate is a full compile + run under the *same seed*, so
//! the procedure is deterministic: same input, same minimal scenario,
//! same number of candidate runs. The result carries the signature
//! into the emitted file's `<expect>` element, which is what lets CI
//! re-run a committed repro and check it still fails the same way.

use std::collections::BTreeSet;

use vmplants_shop::ShopTuning;
use vmplants_simkit::{FaultKind, LinkTuning, SimDuration};

use crate::chaos::{run_chaos, ChaosReport};

use super::{error_class, ExpectDecl, Scenario, ScenarioError, Workload};

/// What "the same failure" means across shrink steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureSignature {
    /// Terminal-error classes observed (sorted, deduplicated).
    pub classes: BTreeSet<String>,
    /// Whether any order hung.
    pub hung: bool,
}

impl FailureSignature {
    /// Extract the signature of a run.
    pub fn of(report: &ChaosReport) -> FailureSignature {
        FailureSignature {
            classes: report.errors.iter().map(|e| error_class(e)).collect(),
            hung: report.hung_orders > 0,
        }
    }

    /// Build the signature a committed scenario's `<expect>` claims.
    pub fn from_expect(expect: &ExpectDecl) -> FailureSignature {
        FailureSignature {
            classes: expect.classes.iter().cloned().collect(),
            hung: expect.hung,
        }
    }

    /// The `<expect>` declaration equivalent to this signature.
    pub(crate) fn to_expect(&self) -> ExpectDecl {
        ExpectDecl {
            classes: self.classes.iter().cloned().collect(),
            hung: self.hung,
        }
    }

    /// Did anything actually go wrong?
    pub fn is_failure(&self) -> bool {
        self.hung || !self.classes.is_empty()
    }

    /// Does `candidate` reproduce this signature? Reproduction means the
    /// candidate still exhibits every error class of the target (extra
    /// classes are fine — a smaller scenario may fail *less diversely*,
    /// never more) and still hangs if the target hung.
    pub fn reproduced_by(&self, candidate: &FailureSignature) -> bool {
        self.classes.is_subset(&candidate.classes) && (!self.hung || candidate.hung)
    }

    /// Deterministic one-line rendering.
    pub fn render(&self) -> String {
        let classes = if self.classes.is_empty() {
            "-".to_string()
        } else {
            self.classes.iter().cloned().collect::<Vec<_>>().join(" | ")
        };
        format!("classes: [{classes}]  hung: {}", self.hung)
    }
}

/// The outcome of a shrink.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimal scenario, with `<expect>` set to the signature.
    pub scenario: Scenario,
    /// The signature it reproduces.
    pub signature: FailureSignature,
    /// Candidate runs executed (each is a full compile + simulation).
    pub candidates: usize,
    /// Candidates accepted (simplifications that kept the signature).
    pub accepted: usize,
    /// One line per accepted step, in order.
    pub log: Vec<String>,
}

impl ShrinkResult {
    /// Deterministic rendering of the shrink history.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shrink: {} candidate runs, {} accepted\n",
            self.candidates, self.accepted
        ));
        for line in &self.log {
            out.push_str(&format!("  - {line}\n"));
        }
        out.push_str(&format!(
            "minimal scenario: {} workload(s), {} pinned fault(s), {} rule(s), {} request(s)\n",
            self.scenario.workloads.len(),
            self.scenario.plan.scheduled.len(),
            self.scenario.plan.rules.len(),
            self.scenario.total_requests(),
        ));
        out
    }
}

/// Halve a duration, flooring at 1 s; `None` when already at the floor.
fn halved(d: SimDuration) -> Option<SimDuration> {
    let floor = SimDuration::from_secs(1);
    if d <= floor {
        return None;
    }
    Some((d / 2).max(floor))
}

/// Halve the durations inside a fault kind; `None` if nothing shrank.
fn shrink_kind(kind: &FaultKind) -> Option<FaultKind> {
    match kind {
        FaultKind::HostCrash => None,
        FaultKind::HostReboot { downtime } => halved(*downtime)
            .map(|downtime| FaultKind::HostReboot { downtime }),
        FaultKind::NfsOutage { duration } => {
            halved(*duration).map(|duration| FaultKind::NfsOutage { duration })
        }
        FaultKind::NfsDegraded { factor, duration } => {
            halved(*duration).map(|duration| FaultKind::NfsDegraded {
                factor: *factor,
                duration,
            })
        }
        FaultKind::MessageLoss {
            probability,
            duration,
        } => halved(*duration).map(|duration| FaultKind::MessageLoss {
            probability: *probability,
            duration,
        }),
        FaultKind::MessageDuplicate {
            probability,
            duration,
        } => halved(*duration).map(|duration| FaultKind::MessageDuplicate {
            probability: *probability,
            duration,
        }),
        FaultKind::MessageReorder {
            probability,
            duration,
        } => halved(*duration).map(|duration| FaultKind::MessageReorder {
            probability: *probability,
            duration,
        }),
        FaultKind::LinkPartition { duration } => {
            halved(*duration).map(|duration| FaultKind::LinkPartition { duration })
        }
        FaultKind::ShopCrash { downtime } => downtime
            .and_then(halved)
            .map(|d| FaultKind::ShopCrash { downtime: Some(d) }),
    }
}

/// Halve a workload's request count, flooring at 1; `None` if already
/// minimal.
fn shrink_workload(w: &Workload) -> Option<Workload> {
    let half = |n: usize| -> Option<usize> {
        if n <= 1 {
            None
        } else {
            Some((n / 2).max(1))
        }
    };
    match w {
        Workload::Constant {
            requests,
            interval,
            memory_mb,
        } => half(*requests).map(|requests| Workload::Constant {
            requests,
            interval: *interval,
            memory_mb: *memory_mb,
        }),
        Workload::Diurnal {
            requests,
            base_interval,
            amplitude,
            period,
            memory_mb,
        } => half(*requests).map(|requests| Workload::Diurnal {
            requests,
            base_interval: *base_interval,
            amplitude: *amplitude,
            period: *period,
            memory_mb: *memory_mb,
        }),
        Workload::Flash {
            requests,
            interval,
            memory_mb,
            burst_at,
            burst_requests,
            burst_spacing,
        } => {
            // Shrink the burst first (it is the interesting part last),
            // then the baseline.
            if let Some(requests) = half(*requests) {
                Some(Workload::Flash {
                    requests,
                    interval: *interval,
                    memory_mb: *memory_mb,
                    burst_at: *burst_at,
                    burst_requests: *burst_requests,
                    burst_spacing: *burst_spacing,
                })
            } else {
                half(*burst_requests).map(|burst_requests| Workload::Flash {
                    requests: *requests,
                    interval: *interval,
                    memory_mb: *memory_mb,
                    burst_at: *burst_at,
                    burst_requests,
                    burst_spacing: *burst_spacing,
                })
            }
        }
        Workload::Mix {
            requests,
            interval,
            memories,
        } => half(*requests).map(|requests| Workload::Mix {
            requests,
            interval: *interval,
            memories: memories.clone(),
        }),
        Workload::Zipf {
            requests,
            interval,
            population,
            exponent,
        } => half(*requests).map(|requests| Workload::Zipf {
            requests,
            interval: *interval,
            population: *population,
            exponent: *exponent,
        }),
    }
}

/// Delta-debug `base` down to a minimal scenario that still reproduces
/// `target` under `seed`. Deterministic: same inputs, same output and
/// same candidate count.
pub fn shrink(
    base: &Scenario,
    seed: u64,
    target: &FailureSignature,
) -> Result<ShrinkResult, ScenarioError> {
    let mut candidates = 0usize;
    let mut check = |s: &Scenario| -> Result<bool, ScenarioError> {
        candidates += 1;
        let report = run_chaos(&s.compile_with_seed(seed)?);
        Ok(target.reproduced_by(&FailureSignature::of(&report)))
    };

    if !check(base)? {
        return Err(ScenarioError::NotReproducing {
            scenario: base.name.clone(),
            seed,
        });
    }

    let mut current = base.clone();
    let mut log = Vec::new();
    let mut accepted = 0usize;
    loop {
        let mut progressed = false;

        // Drop whole stochastic rules.
        let mut i = 0;
        while i < current.plan.rules.len() {
            let mut cand = current.clone();
            let removed = cand.plan.rules.remove(i);
            if check(&cand)? {
                log.push(format!("drop rule {removed}"));
                current = cand;
                accepted += 1;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Drop pinned faults.
        let mut i = 0;
        while i < current.plan.scheduled.len() {
            let mut cand = current.clone();
            let removed = cand.plan.scheduled.remove(i);
            if check(&cand)? {
                log.push(format!("drop fault {removed}"));
                current = cand;
                accepted += 1;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Reset tuning and transport to their defaults wholesale.
        if current.tuning != ShopTuning::default() {
            let mut cand = current.clone();
            cand.tuning = ShopTuning::default();
            if check(&cand)? {
                log.push("clear tuning overrides".to_string());
                current = cand;
                accepted += 1;
                progressed = true;
            }
        }
        if current.link != LinkTuning::default() {
            let mut cand = current.clone();
            cand.link = LinkTuning::default();
            if check(&cand)? {
                log.push("clear transport overrides".to_string());
                current = cand;
                accepted += 1;
                progressed = true;
            }
        }

        // Drop extra workloads (never the last one — a scenario without
        // arrivals cannot fail).
        let mut i = 0;
        while current.workloads.len() > 1 && i < current.workloads.len() {
            let mut cand = current.clone();
            let removed = cand.workloads.remove(i);
            if check(&cand)? {
                log.push(format!("drop {} workload", removed.kind()));
                current = cand;
                accepted += 1;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Shorten fault durations (halve, floor 1 s).
        for i in 0..current.plan.scheduled.len() {
            while let Some(kind) = shrink_kind(&current.plan.scheduled[i].kind) {
                let mut cand = current.clone();
                cand.plan.scheduled[i].kind = kind;
                if check(&cand)? {
                    log.push(format!("shorten fault {}", cand.plan.scheduled[i]));
                    current = cand;
                    accepted += 1;
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        // Halve workload request counts (floor 1).
        for i in 0..current.workloads.len() {
            while let Some(w) = shrink_workload(&current.workloads[i]) {
                let mut cand = current.clone();
                cand.workloads[i] = w;
                if check(&cand)? {
                    log.push(format!(
                        "halve {} workload to {} request(s)",
                        cand.workloads[i].kind(),
                        cand.workloads[i].requests()
                    ));
                    current = cand;
                    accepted += 1;
                    progressed = true;
                } else {
                    break;
                }
            }
        }

        if !progressed {
            break;
        }
    }

    current.expect = Some(target.to_expect());
    Ok(ShrinkResult {
        scenario: current,
        signature: target.clone(),
        candidates,
        accepted,
        log,
    })
}

#[cfg(test)]
mod tests {
    use vmplants_simkit::SimTime;

    use super::*;

    fn sig(classes: &[&str], hung: bool) -> FailureSignature {
        FailureSignature {
            classes: classes.iter().map(|s| s.to_string()).collect(),
            hung,
        }
    }

    #[test]
    fn reproduction_is_superset_on_classes() {
        let target = sig(&["all plants failed"], false);
        assert!(target.reproduced_by(&sig(&["all plants failed"], false)));
        assert!(target.reproduced_by(&sig(&["all plants failed", "degraded mode"], true)));
        assert!(!target.reproduced_by(&sig(&["degraded mode"], false)));

        let hung_target = sig(&[], true);
        assert!(hung_target.reproduced_by(&sig(&["x"], true)));
        assert!(!hung_target.reproduced_by(&sig(&["x"], false)));
    }

    #[test]
    fn shrink_rejects_a_passing_baseline() {
        let calm = Scenario::constant("calm", 1, 2, SimDuration::from_secs(30), 64);
        let target = sig(&["all plants failed"], false);
        let err = shrink(&calm, 1, &target).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::NotReproducing {
                scenario: "calm".to_string(),
                seed: 1
            }
        );
    }

    #[test]
    fn shrink_strips_irrelevant_faults_and_workload() {
        // Kill every host at t=0 under a short deadline: guaranteed
        // failure. The NFS degradation and the second workload are noise
        // the shrinker must remove.
        let mut s = Scenario::constant("storm", 5, 8, SimDuration::from_secs(30), 64);
        for i in 0..8 {
            s.plan = s.plan.host_crash_at(SimTime::ZERO, format!("node{i}"));
        }
        s.plan = s.plan.nfs_degraded_at(
            SimTime::from_secs(10),
            "storage",
            0.5,
            SimDuration::from_secs(300),
        );
        s.workloads.push(Workload::Flash {
            requests: 2,
            interval: SimDuration::from_secs(45),
            memory_mb: 64,
            burst_at: SimDuration::from_secs(100),
            burst_requests: 3,
            burst_spacing: SimDuration::from_secs(1),
        });
        s.tuning.order_deadline = Some(SimDuration::from_secs(600));

        let report = run_chaos(&s.compile().expect("compile"));
        let target = FailureSignature::of(&report);
        assert!(target.is_failure(), "storm must fail");

        let result = shrink(&s, s.seed, &target).expect("shrink");
        let min = &result.scenario;
        // The degradation is irrelevant to total host loss and must go;
        // every crash is load-bearing (drop one and a plant survives to
        // serve the order) and must stay. One workload remains, shrunk
        // to its floor (a flash shape bottoms out at baseline 1 +
        // burst 1).
        assert!(min.plan.scheduled.iter().all(|f| f.kind == FaultKind::HostCrash));
        assert_eq!(min.plan.scheduled.len(), 8);
        assert_eq!(min.workloads.len(), 1);
        assert!(min.total_requests() <= 2);
        assert_eq!(min.expect, Some(target.to_expect()));
        assert!(result.accepted > 0);
        assert!(result.candidates > result.accepted);

        // The minimal scenario still reproduces, and deterministically.
        let re = run_chaos(&min.compile_with_seed(s.seed).expect("compile"));
        assert!(target.reproduced_by(&FailureSignature::of(&re)));
        let again = shrink(&s, s.seed, &target).expect("shrink again");
        assert_eq!(again.scenario, result.scenario);
        assert_eq!(again.candidates, result.candidates);
    }
}
