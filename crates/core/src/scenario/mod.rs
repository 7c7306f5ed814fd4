//! Declarative fault/load scenarios and the adversarial machinery built
//! on them.
//!
//! Every chaos experiment used to be hand-coded Rust: a new failure
//! scenario meant a new function, a new binary, a new PR. This module
//! replaces that with a small declarative scenario format — workload
//! shape, fault plan, transport overrides, shop tuning and seed in one
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

use vmplants_simkit::{FaultEvent, FaultPlanError, SimDuration, SimTime};

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
    /// A shop-tuning override fails its semantic checks.
    BadTuning {
        /// What is wrong.
        what: String,
    },
    /// A transport override fails its semantic checks.
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

/// A declarative stochastic fault rule — the scenario-file form of
/// [`vmplants_simkit::FaultPlan`]'s seeded Poisson processes, kept
/// declarative so the shrinker can drop or narrow it.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleDecl {
    /// Poisson host faults over `targets` (spot-style preemption when
    /// `downtime` is set: the host is reclaimed, then comes back).
    HostFaults {
        /// Hosts the process draws from.
        targets: Vec<String>,
        /// Mean time between faults.
        mtbf: SimDuration,
        /// Reboot downtime; `None` makes every fault a permanent crash.
        downtime: Option<SimDuration>,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Poisson NFS outages of fixed length.
    NfsOutages {
        /// The NFS server name.
        target: String,
        /// Mean gap between outages.
        mean_gap: SimDuration,
        /// Outage length.
        outage: SimDuration,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
}

impl fmt::Display for RuleDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleDecl::HostFaults {
                targets,
                mtbf,
                downtime,
                from,
                until,
            } => {
                write!(f, "random-host-faults(targets={}, mtbf={mtbf}", targets.join(" "))?;
                if let Some(d) = downtime {
                    write!(f, ", downtime={d}")?;
                }
                write!(f, ", window=[{from}, {until}))")
            }
            RuleDecl::NfsOutages {
                target,
                mean_gap,
                outage,
                from,
                until,
            } => write!(
                f,
                "random-nfs-outages({target}, mean-gap={mean_gap}, outage={outage}, window=[{from}, {until}))"
            ),
        }
    }
}

/// Optional [`vmplants_shop::ShopTuning`] overrides; unset fields keep
/// the default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningOverrides {
    /// Override `order_deadline`.
    pub order_deadline: Option<SimDuration>,
    /// Override `attempt_timeout`.
    pub attempt_timeout: Option<SimDuration>,
    /// Override `backoff_base`.
    pub backoff_base: Option<SimDuration>,
    /// Override `backoff_cap`.
    pub backoff_cap: Option<SimDuration>,
    /// Override `min_live_plants`.
    pub min_live_plants: Option<usize>,
    /// Override `rto_base`.
    pub rto_base: Option<SimDuration>,
    /// Override `rto_cap`.
    pub rto_cap: Option<SimDuration>,
    /// Override the plants' request dedup-cache capacity.
    pub dedup_capacity: Option<usize>,
}

impl TuningOverrides {
    /// True when no field is overridden.
    pub(crate) fn is_empty(&self) -> bool {
        *self == TuningOverrides::default()
    }

    /// Apply the overrides on top of `base`.
    pub(crate) fn apply(&self, base: vmplants_shop::ShopTuning) -> vmplants_shop::ShopTuning {
        let mut t = base;
        if let Some(d) = self.order_deadline {
            t.order_deadline = Some(d);
        }
        if let Some(d) = self.attempt_timeout {
            t.attempt_timeout = d;
        }
        if let Some(d) = self.backoff_base {
            t.backoff_base = d;
        }
        if let Some(d) = self.backoff_cap {
            t.backoff_cap = d;
        }
        if let Some(n) = self.min_live_plants {
            t.min_live_plants = n;
        }
        if let Some(d) = self.rto_base {
            t.rto_base = d;
        }
        if let Some(d) = self.rto_cap {
            t.rto_cap = d;
        }
        if let Some(n) = self.dedup_capacity {
            t.dedup_capacity = n;
        }
        t
    }
}

/// Optional [`vmplants_simkit::LinkTuning`] overrides for the shop↔plant
/// fabric's whole-run baseline; unset fields keep the default.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkOverrides {
    /// Override the uniform per-hop delay range, seconds.
    pub delay: Option<(f64, f64)>,
    /// Override the baseline drop probability.
    pub drop_p: Option<f64>,
    /// Override the baseline duplication probability.
    pub dup_p: Option<f64>,
    /// Override the baseline reorder probability.
    pub reorder_p: Option<f64>,
    /// Override the reorder hold range, seconds.
    pub reorder_hold: Option<(f64, f64)>,
}

impl LinkOverrides {
    /// True when no field is overridden.
    pub(crate) fn is_empty(&self) -> bool {
        *self == LinkOverrides::default()
    }

    /// Apply the overrides on top of `base`.
    pub(crate) fn apply(&self, base: vmplants_simkit::LinkTuning) -> vmplants_simkit::LinkTuning {
        let mut l = base;
        if let Some(d) = self.delay {
            l.delay = d;
        }
        if let Some(p) = self.drop_p {
            l.drop_p = p;
        }
        if let Some(p) = self.dup_p {
            l.dup_p = p;
        }
        if let Some(p) = self.reorder_p {
            l.reorder_p = p;
        }
        if let Some(h) = self.reorder_hold {
            l.reorder_hold = h;
        }
        l
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
    /// Pinned fault events.
    pub faults: Vec<FaultEvent>,
    /// Stochastic fault rules.
    pub rules: Vec<RuleDecl>,
    /// Shop-tuning overrides.
    pub tuning: TuningOverrides,
    /// Transport baseline overrides.
    pub link: LinkOverrides,
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
    /// base the builders and tests start from.
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
            faults: Vec::new(),
            rules: Vec::new(),
            tuning: TuningOverrides::default(),
            link: LinkOverrides::default(),
            slo: None,
            expect: None,
        }
    }

    /// Builder: pin a fault event.
    pub(crate) fn with_fault(
        mut self,
        at: SimTime,
        target: impl Into<String>,
        kind: vmplants_simkit::FaultKind,
    ) -> Scenario {
        self.faults.push(FaultEvent {
            at,
            target: target.into(),
            kind,
        });
        self
    }

    /// Builder: add a stochastic rule.
    pub fn with_rule(mut self, rule: RuleDecl) -> Scenario {
        self.rules.push(rule);
        self
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
        let tuning = TuningOverrides {
            attempt_timeout: Some(SimDuration::from_secs(120)),
            min_live_plants: Some(3),
            ..TuningOverrides::default()
        };
        let t = tuning.apply(vmplants_shop::ShopTuning::default());
        assert_eq!(t.attempt_timeout, SimDuration::from_secs(120));
        assert_eq!(t.min_live_plants, 3);
        // Unset fields keep the default.
        assert_eq!(t.rto_base, vmplants_shop::ShopTuning::default().rto_base);

        let link = LinkOverrides {
            drop_p: Some(0.25),
            ..LinkOverrides::default()
        };
        let l = link.apply(vmplants_simkit::LinkTuning::default());
        assert_eq!(l.drop_p, 0.25);
        assert_eq!(l.delay, vmplants_simkit::LinkTuning::default().delay);
        assert!(LinkOverrides::default().is_empty());
        assert!(!link.is_empty());
    }
}
