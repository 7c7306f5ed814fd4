//! The adversarial sweep driver: expand a scenario×seed grid, run every
//! cell through [`crate::chaos::run_chaos`], score the runs, and find
//! the worst one.
//!
//! Cells are **compiled before they are spawned** — a typo in any
//! scenario fails the whole sweep up front instead of inside a worker
//! thread — and executed on [`crate::parallel::run_ordered`], whose
//! job-order merge makes the sweep report byte-identical to a serial
//! run of the same grid. Scoring is lexicographic: a run is worse than
//! another if its success rate is lower; ties break toward more hung
//! orders, then higher p99 latency, then higher mean latency. The
//! worst cell is what [`super::shrink::shrink`] minimizes.

use std::collections::BTreeMap;

use crate::chaos::{run_chaos, ChaosReport};
use crate::parallel::run_ordered;

use super::{error_class, Scenario, ScenarioError};

/// How one run scored.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// Requests issued.
    pub requests: usize,
    /// Requests that produced a running VM.
    pub successes: usize,
    /// Successes that needed recovery.
    pub recovered: usize,
    /// Orders that never settled.
    pub hung: usize,
    /// Mean successful-order latency, seconds (0 when none succeeded).
    pub mean_latency_s: f64,
    /// p99 successful-order latency, seconds (0 when none succeeded).
    pub p99_latency_s: f64,
    /// Terminal-error classes and their counts (see
    /// [`super::error_class`]).
    pub error_classes: BTreeMap<String, usize>,
    /// SLO violations of the run (empty when no SLO was declared or
    /// every objective held).
    pub slo_violations: Vec<String>,
}

impl Score {
    /// Score a chaos report. The p99 comes from the report's mergeable
    /// latency sketch, so scoring never needs a raw sample vector.
    pub fn of(report: &ChaosReport) -> Score {
        let mut error_classes = BTreeMap::new();
        for e in &report.errors {
            *error_classes.entry(error_class(e)).or_insert(0) += 1;
        }
        let (mean, p99) = if report.latency_sketch.is_empty() {
            (0.0, 0.0)
        } else {
            (report.latency.mean(), report.p99())
        };
        Score {
            requests: report.requests,
            successes: report.successes,
            recovered: report.recovered,
            hung: report.hung_orders,
            mean_latency_s: mean,
            p99_latency_s: p99,
            error_classes,
            slo_violations: report.slo_violations(),
        }
    }

    /// The failure signature of the run this scored (the shrink target
    /// when this is the worst cell).
    pub fn signature(&self) -> super::shrink::FailureSignature {
        super::shrink::FailureSignature {
            classes: self.error_classes.keys().cloned().collect(),
            hung: self.hung > 0,
        }
    }

    /// Fraction of requests that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        self.successes as f64 / self.requests as f64
    }

    /// Lexicographic badness: success rate, then hung orders, then SLO
    /// violations, then p99, then mean latency.
    pub fn worse_than(&self, other: &Score) -> bool {
        if self.success_rate() != other.success_rate() {
            return self.success_rate() < other.success_rate();
        }
        if self.hung != other.hung {
            return self.hung > other.hung;
        }
        if self.slo_violations.len() != other.slo_violations.len() {
            return self.slo_violations.len() > other.slo_violations.len();
        }
        if self.p99_latency_s != other.p99_latency_s {
            return self.p99_latency_s > other.p99_latency_s;
        }
        self.mean_latency_s > other.mean_latency_s
    }

    /// One-line deterministic rendering.
    pub fn render(&self) -> String {
        let errors = if self.error_classes.is_empty() {
            "-".to_string()
        } else {
            self.error_classes
                .iter()
                .map(|(class, n)| format!("{class}×{n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut line = format!(
            "{}/{} ok ({:.1}%)  hung={}  p99={:.1}s  mean={:.1}s  errors: {errors}",
            self.successes,
            self.requests,
            100.0 * self.success_rate(),
            self.hung,
            self.p99_latency_s,
            self.mean_latency_s,
        );
        // SLO annotations append only for runs that declared one, so
        // SLO-free sweep fixtures keep their bytes.
        if !self.slo_violations.is_empty() {
            line.push_str(&format!("  slo: {}", self.slo_violations.join("; ")));
        }
        line
    }
}

/// One scored cell of the grid.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// The scenario name.
    pub name: String,
    /// The seed the cell ran under.
    pub seed: u64,
    /// How it scored.
    pub score: Score,
}

/// The scored grid, in scenario-major, seed-minor order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One row per (scenario, seed) cell.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// The strictly worst row (first of the worst score class), if the
    /// grid is non-empty.
    pub fn worst(&self) -> Option<&SweepRow> {
        let mut worst: Option<&SweepRow> = None;
        for row in &self.rows {
            match worst {
                None => worst = Some(row),
                Some(w) if row.score.worse_than(&w.score) => worst = Some(row),
                _ => {}
            }
        }
        worst
    }

    /// Deterministic table rendering.
    pub fn render(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .max()
            .unwrap_or(8)
            .max("scenario".len());
        let mut out = String::new();
        out.push_str(&format!("{:<name_w$}  {:>6}  score\n", "scenario", "seed"));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>6}  {}\n",
                row.name,
                row.seed,
                row.score.render()
            ));
        }
        if let Some(worst) = self.worst() {
            out.push_str(&format!(
                "worst cell: {} under seed {}\n",
                worst.name, worst.seed
            ));
        }
        out
    }
}

/// Compile every (scenario, seed) cell, run them on the parallel
/// harness, and score the results. Cell order is scenario-major,
/// seed-minor; the merged output is byte-identical to
/// [`run_sweep_serial`] on the same grid.
pub fn run_sweep(scenarios: &[Scenario], seeds: &[u64]) -> Result<SweepReport, ScenarioError> {
    let cells = compile_cells(scenarios, seeds)?;
    let rows = run_ordered(
        cells
            .into_iter()
            .map(|(name, seed, config)| {
                move || {
                    let report = run_chaos(&config);
                    SweepRow {
                        name,
                        seed,
                        score: Score::of(&report),
                    }
                }
            })
            .collect(),
    );
    Ok(SweepReport { rows })
}

/// The serial reference: same grid, same output, one thread. Exists so
/// the benchmark can price the parallel harness and tests can assert
/// the byte-identical merge.
pub fn run_sweep_serial(
    scenarios: &[Scenario],
    seeds: &[u64],
) -> Result<SweepReport, ScenarioError> {
    let cells = compile_cells(scenarios, seeds)?;
    let rows = cells
        .into_iter()
        .map(|(name, seed, config)| {
            let report = run_chaos(&config);
            SweepRow {
                name,
                seed,
                score: Score::of(&report),
            }
        })
        .collect();
    Ok(SweepReport { rows })
}

type Cell = (String, u64, crate::chaos::ChaosConfig);

fn compile_cells(scenarios: &[Scenario], seeds: &[u64]) -> Result<Vec<Cell>, ScenarioError> {
    let mut cells = Vec::with_capacity(scenarios.len() * seeds.len());
    for scenario in scenarios {
        for &seed in seeds {
            cells.push((
                scenario.name.clone(),
                seed,
                scenario.compile_with_seed(seed)?,
            ));
        }
    }
    Ok(cells)
}

#[cfg(test)]
mod tests {
    use vmplants_simkit::SimDuration;

    use super::*;

    fn score(successes: usize, hung: usize, p99: f64) -> Score {
        Score {
            requests: 10,
            successes,
            recovered: 0,
            hung,
            mean_latency_s: p99 / 2.0,
            p99_latency_s: p99,
            error_classes: BTreeMap::new(),
            slo_violations: Vec::new(),
        }
    }

    #[test]
    fn worse_than_is_lexicographic() {
        assert!(score(5, 0, 10.0).worse_than(&score(9, 3, 99.0)));
        assert!(score(9, 3, 10.0).worse_than(&score(9, 0, 99.0)));
        assert!(score(9, 0, 99.0).worse_than(&score(9, 0, 10.0)));
        assert!(!score(9, 0, 10.0).worse_than(&score(9, 0, 10.0)));
    }

    #[test]
    fn slo_violations_break_ties_before_latency() {
        let mut violated = score(9, 0, 10.0);
        violated.slo_violations = vec!["p99 10.000s > 5s".to_string()];
        assert!(violated.worse_than(&score(9, 0, 99.0)));
        assert!(!score(9, 0, 10.0).worse_than(&violated));
        assert!(violated.render().ends_with("slo: p99 10.000s > 5s"));
        assert!(!score(9, 0, 10.0).render().contains("slo"));
    }

    #[test]
    fn score_falls_back_to_the_sketch_without_samples() {
        let config = crate::chaos::ChaosConfig {
            schedule: crate::chaos::OrderSpec::constant(4, SimDuration::from_secs(30), 64),
            slo: Some(crate::chaos::SloSpec {
                p99_s: Some(0.001),
                ..crate::chaos::SloSpec::default()
            }),
            ..crate::chaos::ChaosConfig::default()
        };
        let report = run_chaos(&config);
        let s = Score::of(&report);
        assert!(s.p99_latency_s > 0.0, "p99 scored from the sketch");
        assert_eq!(s.p99_latency_s, report.p99());
        assert!(!s.slo_violations.is_empty(), "1ms p99 objective must trip");
    }

    #[test]
    fn sweep_matches_serial_and_finds_the_worst_cell() {
        let calm = Scenario::constant("calm", 1, 4, SimDuration::from_secs(30), 64);
        let mut doomed = Scenario::constant("doomed", 1, 4, SimDuration::from_secs(30), 64);
        // Every host dies at t=0 and the deadline is short: no order can
        // succeed, making "doomed" the guaranteed worst cell.
        for i in 0..8 {
            doomed = doomed.with_fault(
                vmplants_simkit::SimTime::ZERO,
                format!("node{i}"),
                vmplants_simkit::FaultKind::HostCrash,
            );
        }
        doomed.tuning.order_deadline = Some(SimDuration::from_secs(600));

        let seeds = [11, 42];
        let parallel = run_sweep(&[calm.clone(), doomed.clone()], &seeds).expect("sweep");
        let serial = run_sweep_serial(&[calm, doomed], &seeds).expect("serial");
        assert_eq!(parallel.render(), serial.render());
        assert_eq!(parallel.rows.len(), 4);

        let worst = parallel.worst().expect("worst");
        assert_eq!(worst.name, "doomed");
        assert_eq!(worst.score.successes, 0);
        assert!(!worst.score.error_classes.is_empty());
    }
}
