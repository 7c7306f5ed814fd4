//! Declarative fault/load scenarios and the adversarial machinery built
//! on them.
//!
//! Every chaos experiment used to be hand-coded Rust: a new failure
//! scenario meant a new function, a new binary, a new PR. This module
//! replaces that with a small declarative scenario format — workload
//! shape, fault plan, shop and transport tuning, and seed in one
//! XML file — plus three layers on top of it:
//!
//! * **parse** ([`Scenario::from_xml`] / [`Scenario::to_xml`]) — the
//!   grammar, built on the same `vmplants-xmlmsg` subset the service
//!   protocol uses. Parsing is strict (unknown elements and attributes
//!   are errors) and round-trips exactly: `from_xml(to_xml(s)) == s`.
//! * **compile** ([`Scenario::compile`]) — validation (probabilities in
//!   range, positive durations, known targets — see
//!   [`vmplants_simkit::FaultPlanError`]) and expansion of the workload
//!   shapes into a concrete [`crate::chaos::ChaosConfig`] order schedule.
//!   Same scenario + same seed ⇒ the identical config, so a scenario
//!   file is as replayable as the hand-built configs it replaces.
//! * **sweep** and **shrink** ([`sweep::run_sweep`],
//!   [`shrink::shrink`]) — the adversarial driver: expand a fault×load
//!   grid across seed sets on the parallel harness, score each run
//!   (success rate, hung orders, p99 latency), find the worst
//!   (scenario, seed) pair, and delta-debug it down to a minimal
//!   scenario that still reproduces the same failure signature.
//!
//! The grammar, the compilation pipeline and the shrink algorithm are
//! documented in `DESIGN.md` §10; experiment **E20** exercises the whole
//! stack end to end.

pub mod compile;
pub mod parse;
pub mod shrink;
pub mod sweep;

use std::fmt;

use vmplants_shop::ShopTuning;
use vmplants_simkit::{FaultPlan, FaultPlanError, LinkTuning, SimDuration};

pub use shrink::{shrink, FailureSignature, ShrinkResult};
pub use sweep::{run_sweep, Score, SweepReport, SweepRow};

/// Why a scenario failed to parse, validate or compile.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The document is not well-formed XML (wraps the parser's message).
    Xml(String),
    /// A required attribute is missing.
    MissingAttr {
        /// Element the attribute belongs on.
        element: String,
        /// The missing attribute name.
        attr: String,
    },
    /// An attribute failed to parse as its expected type.
    BadAttr {
        /// Element the attribute belongs on.
        element: String,
        /// The attribute name.
        attr: String,
        /// The unparseable value.
        value: String,
    },
    /// An element the grammar does not know (strictness catches typos —
    /// a misspelled fault would otherwise silently not fire).
    UnknownElement {
        /// The unknown tag name, qualified by its parent.
        element: String,
    },
    /// An attribute the grammar does not know on an element it does.
    UnknownAttr {
        /// The element carrying the attribute.
        element: String,
        /// The unknown attribute name.
        attr: String,
    },
    /// The scenario declares no workload at all.
    NoWorkload,
    /// A workload shape fails its semantic checks.
    BadWorkload {
        /// Which workload, rendered.
        workload: String,
        /// What is wrong with it.
        what: String,
    },
    /// The shop tuning fails its semantic checks.
    BadTuning {
        /// What is wrong.
        what: String,
    },
    /// The transport tuning fails its semantic checks.
    BadTransport {
        /// What is wrong.
        what: String,
    },
    /// The SLO declaration fails its semantic checks.
    BadSlo {
        /// What is wrong.
        what: String,
    },
    /// The fault plan was rejected (see [`FaultPlanError`]).
    Fault(FaultPlanError),
    /// The shrinker's input does not reproduce the target signature even
    /// unshrunk — there is nothing to minimize.
    NotReproducing {
        /// The scenario name.
        scenario: String,
        /// The seed it was checked under.
        seed: u64,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Xml(msg) => write!(f, "scenario XML: {msg}"),
            ScenarioError::MissingAttr { element, attr } => {
                write!(f, "<{element}> is missing required attribute {attr:?}")
            }
            ScenarioError::BadAttr {
                element,
                attr,
                value,
            } => write!(f, "<{element}> attribute {attr}={value:?} does not parse"),
            ScenarioError::UnknownElement { element } => {
                write!(f, "unknown element <{element}>")
            }
            ScenarioError::UnknownAttr { element, attr } => {
                write!(f, "unknown attribute {attr:?} on <{element}>")
            }
            ScenarioError::NoWorkload => write!(f, "scenario declares no <workload>"),
            ScenarioError::BadWorkload { workload, what } => {
                write!(f, "workload {workload}: {what}")
            }
            ScenarioError::BadTuning { what } => write!(f, "tuning: {what}"),
            ScenarioError::BadTransport { what } => write!(f, "transport: {what}"),
            ScenarioError::BadSlo { what } => write!(f, "slo: {what}"),
            ScenarioError::Fault(e) => write!(f, "fault plan: {e}"),
            ScenarioError::NotReproducing { scenario, seed } => write!(
                f,
                "scenario {scenario:?} does not reproduce the target signature under seed {seed}"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<FaultPlanError> for ScenarioError {
    fn from(e: FaultPlanError) -> ScenarioError {
        ScenarioError::Fault(e)
    }
}

/// One memory size and its relative weight in a heterogeneous mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryWeight {
    /// Memory size, MB (must name a published golden: 32, 64 or 256).
    pub memory_mb: u64,
    /// Relative weight (positive; weights need not sum to anything).
    pub weight: f64,
}

/// A workload shape: when clients arrive and what they ask for.
///
/// Shapes compile into an explicit arrival schedule
/// ([`crate::chaos::OrderSpec`] list); a scenario may declare several and
/// their schedules merge, so "steady 64 MB background plus a 256 MB flash
/// crowd" is two elements, not a new shape.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// `requests` arrivals a fixed `interval` apart, all `memory_mb`.
    Constant {
        /// Number of creation requests.
        requests: usize,
        /// Spacing between arrivals.
        interval: SimDuration,
        /// Memory size of every request.
        memory_mb: u64,
    },
    /// A diurnal curve: arrival intensity `1 + amplitude·sin(2πt/period)`
    /// over a `base_interval` mean spacing — load swells and ebbs like a
    /// day/night cycle compressed to the run length.
    Diurnal {
        /// Number of creation requests.
        requests: usize,
        /// Mean spacing at intensity 1.
        base_interval: SimDuration,
        /// Swing of the intensity curve, in `[0, 1)`.
        amplitude: f64,
        /// Period of the curve.
        period: SimDuration,
        /// Memory size of every request.
        memory_mb: u64,
    },
    /// A steady baseline plus a flash crowd: `burst_requests` extra
    /// arrivals packed `burst_spacing` apart starting at `burst_at`.
    Flash {
        /// Baseline creation requests.
        requests: usize,
        /// Baseline spacing.
        interval: SimDuration,
        /// Memory size of every request (baseline and burst).
        memory_mb: u64,
        /// When the crowd hits.
        burst_at: SimDuration,
        /// Size of the crowd.
        burst_requests: usize,
        /// Spacing inside the crowd.
        burst_spacing: SimDuration,
    },
    /// Constant arrivals with memory drawn per-order from a weighted mix
    /// (seeded by the scenario seed, so the realized mix is deterministic).
    Mix {
        /// Number of creation requests.
        requests: usize,
        /// Spacing between arrivals.
        interval: SimDuration,
        /// The weighted memory choices.
        memories: Vec<MemoryWeight>,
    },
    /// Constant arrivals whose *image* is drawn per-order from a Zipf
    /// distribution over a population of 64 MB goldens (rank `k` has
    /// weight `1/(k+1)^exponent`). The draw is seeded by the scenario
    /// seed, so the realized demand stream is deterministic. Compiling
    /// this workload also publishes the golden population
    /// ([`crate::chaos::ChaosConfig::zipf_goldens`]).
    Zipf {
        /// Number of creation requests.
        requests: usize,
        /// Spacing between arrivals.
        interval: SimDuration,
        /// Number of distinct goldens (ranks `0..population`).
        population: u32,
        /// Skew of the demand curve (0 = uniform, 1 = classic Zipf).
        exponent: f64,
    },
}

impl Workload {
    /// Short label for error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Workload::Constant { .. } => "constant",
            Workload::Diurnal { .. } => "diurnal",
            Workload::Flash { .. } => "flash",
            Workload::Mix { .. } => "mix",
            Workload::Zipf { .. } => "zipf",
        }
    }

    /// Number of arrivals this workload contributes.
    pub(crate) fn requests(&self) -> usize {
        match self {
            Workload::Constant { requests, .. }
            | Workload::Diurnal { requests, .. }
            | Workload::Mix { requests, .. }
            | Workload::Zipf { requests, .. } => *requests,
            Workload::Flash {
                requests,
                burst_requests,
                ..
            } => requests + burst_requests,
        }
    }
}

/// The failure signature a committed scenario file claims to reproduce —
/// what the CI replay checks after re-running it.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpectDecl {
    /// Expected terminal-error classes (see `error_class`), sorted.
    pub classes: Vec<String>,
    /// Whether the run is expected to hang orders.
    pub hung: bool,
}

/// A declarative fault/load scenario: everything one chaos run needs in
/// one (de)serializable value.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports key rows by it).
    pub name: String,
    /// Default seed; the sweep driver overrides it per cell.
    pub seed: u64,
    /// The workload shapes (schedules merge).
    pub workloads: Vec<Workload>,
    /// The fault plan: pinned events and stochastic rules.
    pub plan: FaultPlan,
    /// Shop robustness knobs. `<tuning>` sets the fields it names and
    /// leaves the rest at [`ShopTuning::default`]; `journal` is not part
    /// of the grammar, and an `order_deadline` of `None` cannot be
    /// written.
    pub tuning: ShopTuning,
    /// The shop↔plant fabric's whole-run baseline. `<transport>` sets
    /// the fields it names and leaves the rest at
    /// [`LinkTuning::default`].
    pub link: LinkTuning,
    /// Service-level objective judged against every run of the scenario
    /// (evaluated from the report's latency sketch; violations surface
    /// in sweep scoring and replay exit codes).
    pub slo: Option<crate::chaos::SloSpec>,
    /// The failure signature this file claims to reproduce, if any
    /// (written by the shrinker, checked by replays).
    pub expect: Option<ExpectDecl>,
}

impl Scenario {
    /// A scenario with a single constant workload and no faults — the
    /// base that code-built scenarios and tests start from.
    pub fn constant(
        name: impl Into<String>,
        seed: u64,
        requests: usize,
        interval: SimDuration,
        memory_mb: u64,
    ) -> Scenario {
        Scenario {
            name: name.into(),
            seed,
            workloads: vec![Workload::Constant {
                requests,
                interval,
                memory_mb,
            }],
            plan: FaultPlan::new(),
            tuning: ShopTuning::default(),
            link: LinkTuning::default(),
            slo: None,
            expect: None,
        }
    }

    /// Total arrivals across all workloads.
    pub fn total_requests(&self) -> usize {
        self.workloads.iter().map(Workload::requests).sum()
    }
}

/// Collapse a terminal error string to its stable class: the text before
/// the first `;` or `:`. Shop errors embed run-specific detail after
/// those separators ("all plants failed; last error: …", "degraded mode:
/// 2 plants alive, 3 required"); the class survives shrinking while the
/// detail does not.
pub(crate) fn error_class(message: &str) -> String {
    message
        .split([';', ':'])
        .next()
        .unwrap_or(message)
        .trim()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_class_strips_detail() {
        assert_eq!(
            error_class("all plants failed; last error: vm error"),
            "all plants failed"
        );
        assert_eq!(
            error_class("degraded mode: 2 plants alive, 3 required"),
            "degraded mode"
        );
        assert_eq!(
            error_class("order deadline exceeded"),
            "order deadline exceeded"
        );
        assert_eq!(
            error_class("no plant bid (all down or already excluded)"),
            "no plant bid (all down or already excluded)"
        );
    }

    #[test]
    fn overrides_apply_on_top_of_defaults() {
        let s = Scenario::from_xml(
            r#"<scenario name="x" seed="1">
  <tuning attempt-timeout-s="120" min-live-plants="3"/>
  <transport drop-p="0.25"/>
</scenario>"#,
        )
        .expect("parse");
        assert_eq!(
            s.tuning,
            ShopTuning {
                attempt_timeout: SimDuration::from_secs(120),
                min_live_plants: 3,
                ..ShopTuning::default()
            }
        );
        assert_eq!(
            s.link,
            LinkTuning {
                drop_p: 0.25,
                ..LinkTuning::default()
            }
        );
        // Only the non-default fields are written back.
        assert!(s.to_xml().contains(r#"<tuning attempt-timeout-s="120" min-live-plants="3"/>"#));
        assert!(s.to_xml().contains(r#"<transport drop-p="0.25"/>"#));
    }
}
