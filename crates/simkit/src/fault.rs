//! Deterministic fault injection.
//!
//! Robustness claims are only scientifically useful when the fault scenario
//! is *reproducible*: the same seed must yield the same faults at the same
//! virtual times, every run, on every machine. This module provides that
//! substrate in two pieces:
//!
//! * [`FaultPlan`] — a declarative schedule of fault events. Events are
//!   either pinned to an exact virtual time or generated by seeded
//!   stochastic rules (Poisson host crashes, random NFS outages).
//!   [`FaultPlan::materialize`] expands the stochastic rules into a concrete
//!   sorted event list *before* the simulation starts, so the realized
//!   scenario can be printed, diffed byte-for-byte, and replayed.
//! * [`FaultInjector`] — schedules a materialized event list on an
//!   [`Engine`] and dispatches each event to a caller-supplied handler,
//!   recording everything it injected.
//!
//! The kinds of faults modeled are the ones the VMPlants stack must survive:
//! host crash (permanent) and reboot (transient), NFS server outage and
//! degraded-bandwidth windows, and lossy shop↔plant messaging windows. The
//! injector itself knows nothing about those layers — the handler closure
//! maps each event onto domain operations, keeping `simkit` dependency-free.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::engine::Engine;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What goes wrong.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The target host loses power and does not come back.
    HostCrash,
    /// The target host crashes and returns to service after `downtime`.
    HostReboot { downtime: SimDuration },
    /// The target NFS server is unreachable for `duration`; in-flight
    /// transfers fail immediately.
    NfsOutage { duration: SimDuration },
    /// The target NFS server serves at `factor` of nominal bandwidth for
    /// `duration` (e.g. 0.25 = quarter speed).
    NfsDegraded { factor: f64, duration: SimDuration },
    /// Messages between shop and plants are dropped with `probability`
    /// for `duration`.
    MessageLoss { probability: f64, duration: SimDuration },
    /// Messages matching the target scope are delivered twice with
    /// `probability` for `duration`.
    MessageDuplicate { probability: f64, duration: SimDuration },
    /// Messages matching the target scope are held back past later
    /// traffic with `probability` for `duration`.
    MessageReorder { probability: f64, duration: SimDuration },
    /// Messages matching the target scope are discarded outright for
    /// `duration`. A directional target (`"a->b"`) cuts one direction
    /// only — an asymmetric partition.
    LinkPartition { duration: SimDuration },
    /// The target shop process dies, losing all volatile state. With
    /// `downtime` set a fresh incarnation restarts after it; `None`
    /// means the shop never returns.
    ShopCrash { downtime: Option<SimDuration> },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::HostCrash => write!(f, "host-crash"),
            FaultKind::HostReboot { downtime } => {
                write!(f, "host-reboot(downtime={downtime})")
            }
            FaultKind::NfsOutage { duration } => write!(f, "nfs-outage({duration})"),
            FaultKind::NfsDegraded { factor, duration } => {
                write!(f, "nfs-degraded(factor={factor:.2}, {duration})")
            }
            FaultKind::MessageLoss {
                probability,
                duration,
            } => write!(f, "message-loss(p={probability:.2}, {duration})"),
            FaultKind::MessageDuplicate {
                probability,
                duration,
            } => write!(f, "message-duplicate(p={probability:.2}, {duration})"),
            FaultKind::MessageReorder {
                probability,
                duration,
            } => write!(f, "message-reorder(p={probability:.2}, {duration})"),
            FaultKind::LinkPartition { duration } => {
                write!(f, "link-partition({duration})")
            }
            FaultKind::ShopCrash { downtime: Some(d) } => {
                write!(f, "shop-crash(downtime={d})")
            }
            FaultKind::ShopCrash { downtime: None } => write!(f, "shop-crash(permanent)"),
        }
    }
}

/// One fault, aimed at a named target, at a virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// Which component it strikes — a host/plant name, an NFS server name,
    /// or a shop name, interpreted by the handler.
    pub target: String,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.target, self.kind)
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
///
/// A plan that materializes nonsense (a 150% drop probability, a
/// zero-length outage, a fault aimed at a component that does not exist)
/// would silently realize a scenario nobody asked for; validation turns
/// each of those into a typed, testable rejection instead.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A probability parameter fell outside `[0, 1]`.
    InvalidProbability {
        /// Rendered fault or rule the parameter belongs to.
        fault: String,
        /// The offending value.
        value: f64,
    },
    /// A duration, downtime, window or gap parameter was zero (all fault
    /// windows must have positive extent).
    EmptyDuration {
        /// Rendered fault or rule the parameter belongs to.
        fault: String,
        /// Which parameter was empty.
        what: &'static str,
    },
    /// A degradation factor fell outside `(0, 1]`.
    InvalidFactor {
        /// Rendered fault the factor belongs to.
        fault: String,
        /// The offending value.
        value: f64,
    },
    /// A fault names a target the validator's predicate does not know.
    UnknownTarget {
        /// Rendered fault the target belongs to.
        fault: String,
        /// The unknown component name.
        target: String,
    },
    /// A stochastic rule has an empty target set or an empty time window.
    EmptyRule {
        /// Which rule, rendered.
        rule: String,
        /// What was empty.
        what: &'static str,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::InvalidProbability { fault, value } => {
                write!(f, "{fault}: probability {value} outside [0, 1]")
            }
            FaultPlanError::EmptyDuration { fault, what } => {
                write!(f, "{fault}: {what} must be positive")
            }
            FaultPlanError::InvalidFactor { fault, value } => {
                write!(f, "{fault}: factor {value} outside (0, 1]")
            }
            FaultPlanError::UnknownTarget { fault, target } => {
                write!(f, "{fault}: unknown target {target:?}")
            }
            FaultPlanError::EmptyRule { rule, what } => {
                write!(f, "{rule}: {what} is empty")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultKind {
    /// Check this kind's parameters: probabilities in `[0, 1]`, factors in
    /// `(0, 1]`, durations positive. `describe` renders the enclosing
    /// fault for the error message.
    fn validate_params(&self, describe: impl Fn() -> String) -> Result<(), FaultPlanError> {
        let check_p = |p: f64| -> Result<(), FaultPlanError> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(FaultPlanError::InvalidProbability {
                    fault: describe(),
                    value: p,
                });
            }
            Ok(())
        };
        let check_d = |d: SimDuration, what: &'static str| -> Result<(), FaultPlanError> {
            if d.is_zero() {
                return Err(FaultPlanError::EmptyDuration {
                    fault: describe(),
                    what,
                });
            }
            Ok(())
        };
        match self {
            FaultKind::HostCrash => Ok(()),
            FaultKind::HostReboot { downtime } => check_d(*downtime, "downtime"),
            FaultKind::NfsOutage { duration } => check_d(*duration, "duration"),
            FaultKind::NfsDegraded { factor, duration } => {
                if !(*factor > 0.0 && *factor <= 1.0) {
                    return Err(FaultPlanError::InvalidFactor {
                        fault: describe(),
                        value: *factor,
                    });
                }
                check_d(*duration, "duration")
            }
            FaultKind::MessageLoss {
                probability,
                duration,
            }
            | FaultKind::MessageDuplicate {
                probability,
                duration,
            }
            | FaultKind::MessageReorder {
                probability,
                duration,
            } => {
                check_p(*probability)?;
                check_d(*duration, "duration")
            }
            FaultKind::LinkPartition { duration } => check_d(*duration, "duration"),
            FaultKind::ShopCrash { downtime: Some(d) } => check_d(*d, "downtime"),
            FaultKind::ShopCrash { downtime: None } => Ok(()),
        }
    }
}

/// A seeded stochastic fault source, expanded at materialization time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultRule {
    /// Poisson process of host faults over `targets`, mean time between
    /// faults `mtbf`, each a reboot (when `downtime` is set) or a permanent
    /// crash, within `[from, until)`.
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
    /// Poisson process of NFS outages of fixed `outage` length with mean
    /// gap `mean_gap`, within `[from, until)`.
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

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultRule::HostFaults {
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
            FaultRule::NfsOutages {
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

/// A declarative fault scenario: pinned events plus stochastic rules.
/// Both lists are open so a caller (the scenario shrinker) can drop or
/// narrow single entries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Events pinned to exact virtual times, in plan order.
    pub scheduled: Vec<FaultEvent>,
    /// Stochastic rules, in plan order.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Pin an arbitrary fault event at an exact virtual time.
    pub fn schedule(mut self, at: SimTime, target: impl Into<String>, kind: FaultKind) -> Self {
        self.scheduled.push(FaultEvent {
            at,
            target: target.into(),
            kind,
        });
        self
    }

    /// Pin a permanent host crash.
    pub fn host_crash_at(self, at: SimTime, host: impl Into<String>) -> Self {
        self.schedule(at, host, FaultKind::HostCrash)
    }

    /// Pin a host reboot (crash + recovery after `downtime`).
    pub fn host_reboot_at(
        self,
        at: SimTime,
        host: impl Into<String>,
        downtime: SimDuration,
    ) -> Self {
        self.schedule(at, host, FaultKind::HostReboot { downtime })
    }

    /// Pin an NFS outage window.
    pub fn nfs_outage_at(
        self,
        at: SimTime,
        server: impl Into<String>,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, server, FaultKind::NfsOutage { duration })
    }

    /// Pin an NFS degraded-bandwidth window.
    pub fn nfs_degraded_at(
        self,
        at: SimTime,
        server: impl Into<String>,
        factor: f64,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, server, FaultKind::NfsDegraded { factor, duration })
    }

    /// Pin a lossy-messaging window on a shop.
    pub fn message_loss_at(
        self,
        at: SimTime,
        shop: impl Into<String>,
        probability: f64,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, shop, FaultKind::MessageLoss {
            probability,
            duration,
        })
    }

    /// Pin a message-duplication window on a transport scope.
    pub fn message_duplicate_at(
        self,
        at: SimTime,
        scope: impl Into<String>,
        probability: f64,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, scope, FaultKind::MessageDuplicate {
            probability,
            duration,
        })
    }

    /// Pin a message-reordering window on a transport scope.
    pub fn message_reorder_at(
        self,
        at: SimTime,
        scope: impl Into<String>,
        probability: f64,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, scope, FaultKind::MessageReorder {
            probability,
            duration,
        })
    }

    /// Pin a link partition. A directional scope (`"shop->node3"`) cuts
    /// one direction only.
    pub fn partition_at(
        self,
        at: SimTime,
        scope: impl Into<String>,
        duration: SimDuration,
    ) -> Self {
        self.schedule(at, scope, FaultKind::LinkPartition { duration })
    }

    /// Pin a shop crash. With `downtime` a fresh incarnation restarts
    /// after it; `None` kills the shop for good.
    pub fn shop_crash_at(
        self,
        at: SimTime,
        shop: impl Into<String>,
        downtime: Option<SimDuration>,
    ) -> Self {
        self.schedule(at, shop, FaultKind::ShopCrash { downtime })
    }

    /// Add a Poisson host-fault process over `targets` with mean time
    /// between faults `mtbf` in `[from, until)`. With `downtime` set the
    /// faults are reboots; otherwise permanent crashes.
    pub fn random_host_faults(
        mut self,
        targets: impl IntoIterator<Item = impl Into<String>>,
        mtbf: SimDuration,
        downtime: Option<SimDuration>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.rules.push(FaultRule::HostFaults {
            targets: targets.into_iter().map(Into::into).collect(),
            mtbf,
            downtime,
            from,
            until,
        });
        self
    }

    /// Add a Poisson NFS-outage process with mean gap `mean_gap` and fixed
    /// outage length `outage` in `[from, until)`.
    pub fn random_nfs_outages(
        mut self,
        target: impl Into<String>,
        mean_gap: SimDuration,
        outage: SimDuration,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.rules.push(FaultRule::NfsOutages {
            target: target.into(),
            mean_gap,
            outage,
            from,
            until,
        });
        self
    }

    /// Expand every stochastic rule with a generator seeded by `seed` and
    /// merge with the pinned events into one time-sorted list. Same plan +
    /// same seed ⇒ the identical list, which is the whole determinism
    /// guarantee: the realized scenario is fixed before the first event
    /// runs.
    pub fn materialize(&self, seed: u64) -> Vec<FaultEvent> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut events = self.scheduled.clone();
        for rule in &self.rules {
            match rule {
                FaultRule::HostFaults {
                    targets,
                    mtbf,
                    downtime,
                    from,
                    until,
                } => {
                    if targets.is_empty() {
                        continue;
                    }
                    let mut t = from.as_secs_f64();
                    loop {
                        t += rng.exponential(mtbf.as_secs_f64());
                        if t >= until.as_secs_f64() {
                            break;
                        }
                        let target = targets[rng.index(targets.len())].clone();
                        let kind = match downtime {
                            Some(d) => FaultKind::HostReboot { downtime: *d },
                            None => FaultKind::HostCrash,
                        };
                        events.push(FaultEvent {
                            at: SimTime::from_secs_f64(t),
                            target,
                            kind,
                        });
                    }
                }
                FaultRule::NfsOutages {
                    target,
                    mean_gap,
                    outage,
                    from,
                    until,
                } => {
                    let mut t = from.as_secs_f64();
                    loop {
                        t += rng.exponential(mean_gap.as_secs_f64());
                        if t >= until.as_secs_f64() {
                            break;
                        }
                        events.push(FaultEvent {
                            at: SimTime::from_secs_f64(t),
                            target: target.clone(),
                            kind: FaultKind::NfsOutage { duration: *outage },
                        });
                        // The next gap starts after the outage ends.
                        t += outage.as_secs_f64();
                    }
                }
            }
        }
        // Stable sort: simultaneous events keep plan order.
        events.sort_by_key(|e| e.at);
        events
    }

    /// Check the whole plan against the parameter rules (probabilities in
    /// `[0, 1]`, positive durations, degradation factors in `(0, 1]`) and
    /// against a caller-supplied target predicate — `known_target` returns
    /// whether a component name exists in the deployment being faulted.
    /// Directional scopes (`"shop->node2"`) are valid when both endpoints
    /// are. The first violation is returned as a typed error; a plan that
    /// passes materializes nothing nonsensical.
    pub fn validate<F>(&self, known_target: F) -> Result<(), FaultPlanError>
    where
        F: Fn(&str) -> bool,
    {
        let target_ok = |t: &str| match t.split_once("->") {
            Some((a, b)) => known_target(a) && known_target(b),
            None => known_target(t),
        };
        for event in &self.scheduled {
            event.kind.validate_params(|| event.to_string())?;
            if !target_ok(&event.target) {
                return Err(FaultPlanError::UnknownTarget {
                    fault: event.to_string(),
                    target: event.target.clone(),
                });
            }
        }
        for rule in &self.rules {
            match rule {
                FaultRule::HostFaults {
                    targets,
                    mtbf,
                    downtime,
                    from,
                    until,
                } => {
                    let rule_name = format!("random-host-faults(mtbf={mtbf})");
                    if targets.is_empty() {
                        return Err(FaultPlanError::EmptyRule {
                            rule: rule_name,
                            what: "target set",
                        });
                    }
                    if mtbf.is_zero() {
                        return Err(FaultPlanError::EmptyDuration {
                            fault: rule_name,
                            what: "mtbf",
                        });
                    }
                    if let Some(d) = downtime {
                        if d.is_zero() {
                            return Err(FaultPlanError::EmptyDuration {
                                fault: rule_name,
                                what: "downtime",
                            });
                        }
                    }
                    if until <= from {
                        return Err(FaultPlanError::EmptyRule {
                            rule: rule_name,
                            what: "time window",
                        });
                    }
                    for t in targets {
                        if !known_target(t) {
                            return Err(FaultPlanError::UnknownTarget {
                                fault: rule_name,
                                target: t.clone(),
                            });
                        }
                    }
                }
                FaultRule::NfsOutages {
                    target,
                    mean_gap,
                    outage,
                    from,
                    until,
                } => {
                    let rule_name = format!("random-nfs-outages(mean-gap={mean_gap})");
                    if mean_gap.is_zero() {
                        return Err(FaultPlanError::EmptyDuration {
                            fault: rule_name,
                            what: "mean gap",
                        });
                    }
                    if outage.is_zero() {
                        return Err(FaultPlanError::EmptyDuration {
                            fault: rule_name,
                            what: "outage",
                        });
                    }
                    if until <= from {
                        return Err(FaultPlanError::EmptyRule {
                            rule: rule_name,
                            what: "time window",
                        });
                    }
                    if !known_target(target) {
                        return Err(FaultPlanError::UnknownTarget {
                            fault: rule_name,
                            target: target.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Schedules a materialized fault list and records what it injected.
pub struct FaultInjector {
    trace: Rc<RefCell<Vec<FaultEvent>>>,
}

impl FaultInjector {
    /// Schedule every event in `events` on `engine`. When an event fires it
    /// is appended to the trace and handed to `handler`, which maps it onto
    /// domain operations (crash this host, take that NFS server offline…).
    pub fn install<F>(engine: &mut Engine, events: Vec<FaultEvent>, handler: F) -> FaultInjector
    where
        F: FnMut(&mut Engine, &FaultEvent) + 'static,
    {
        let trace: Rc<RefCell<Vec<FaultEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let handler = Rc::new(RefCell::new(handler));
        for event in events {
            let trace = Rc::clone(&trace);
            let handler = Rc::clone(&handler);
            engine.schedule_at(event.at, move |engine| {
                trace.borrow_mut().push(event.clone());
                (handler.borrow_mut())(engine, &event);
            });
        }
        FaultInjector { trace }
    }

    /// The injected faults, in firing order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.trace.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_is_deterministic_per_seed() {
        let plan = FaultPlan::new()
            .host_crash_at(SimTime::from_secs(100), "node3")
            .random_host_faults(
                ["node0", "node1", "node2"],
                SimDuration::from_secs(200),
                Some(SimDuration::from_secs(30)),
                SimTime::ZERO,
                SimTime::from_secs(2000),
            )
            .random_nfs_outages(
                "storage",
                SimDuration::from_secs(500),
                SimDuration::from_secs(60),
                SimTime::ZERO,
                SimTime::from_secs(2000),
            );
        let a = plan.materialize(7);
        let b = plan.materialize(7);
        assert_eq!(a, b);
        assert!(a.len() > 1, "rules produced events: {}", a.len());
        // Different seed ⇒ different realization (the pinned event stays).
        let c = plan.materialize(8);
        assert_ne!(a, c);
        assert!(c
            .iter()
            .any(|e| e.target == "node3" && e.kind == FaultKind::HostCrash));
        // Sorted by time.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn injector_fires_events_in_order_and_traces_them() {
        let mut engine = Engine::new();
        let events = FaultPlan::new()
            .host_crash_at(SimTime::from_secs(10), "node1")
            .nfs_outage_at(SimTime::from_secs(5), "storage", SimDuration::from_secs(30))
            .materialize(1);
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        let injector = FaultInjector::install(&mut engine, events, move |_, ev| {
            seen2.borrow_mut().push(ev.target.clone());
        });
        engine.run();
        assert_eq!(*seen.borrow(), vec!["storage".to_string(), "node1".into()]);
        let trace: Vec<String> = injector.trace().iter().map(ToString::to_string).collect();
        assert_eq!(trace.len(), 2);
        assert!(trace[0].contains("storage: nfs-outage"), "{trace:?}");
        assert!(trace[1].contains("node1: host-crash"), "{trace:?}");
    }

    /// The target universe used by the validation tests.
    fn known(name: &str) -> bool {
        matches!(name, "node0" | "node1" | "storage" | "shop")
    }

    #[test]
    fn validate_accepts_a_well_formed_plan() {
        let plan = FaultPlan::new()
            .host_reboot_at(SimTime::from_secs(5), "node0", SimDuration::from_secs(30))
            .nfs_degraded_at(
                SimTime::from_secs(10),
                "storage",
                0.25,
                SimDuration::from_secs(60),
            )
            .message_loss_at(SimTime::ZERO, "shop", 1.0, SimDuration::from_secs(10))
            .shop_crash_at(
                SimTime::from_secs(15),
                "shop",
                Some(SimDuration::from_secs(45)),
            )
            .shop_crash_at(SimTime::from_secs(400), "shop", None)
            .partition_at(
                SimTime::from_secs(20),
                "shop->node1",
                SimDuration::from_secs(15),
            )
            .random_host_faults(
                ["node0", "node1"],
                SimDuration::from_secs(100),
                Some(SimDuration::from_secs(20)),
                SimTime::ZERO,
                SimTime::from_secs(500),
            )
            .random_nfs_outages(
                "storage",
                SimDuration::from_secs(300),
                SimDuration::from_secs(30),
                SimTime::ZERO,
                SimTime::from_secs(500),
            );
        assert_eq!(plan.validate(known), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        for p in [-0.1, 1.5, f64::NAN] {
            let plan = FaultPlan::new().message_loss_at(
                SimTime::ZERO,
                "shop",
                p,
                SimDuration::from_secs(10),
            );
            assert!(
                matches!(
                    plan.validate(known),
                    Err(FaultPlanError::InvalidProbability { .. })
                ),
                "p={p} accepted"
            );
        }
        let dup = FaultPlan::new().message_duplicate_at(
            SimTime::ZERO,
            "shop",
            2.0,
            SimDuration::from_secs(10),
        );
        assert!(matches!(
            dup.validate(known),
            Err(FaultPlanError::InvalidProbability { value, .. }) if value == 2.0
        ));
    }

    #[test]
    fn validate_rejects_zero_durations() {
        let cases = [
            FaultPlan::new().host_reboot_at(SimTime::ZERO, "node0", SimDuration::ZERO),
            FaultPlan::new().nfs_outage_at(SimTime::ZERO, "storage", SimDuration::ZERO),
            FaultPlan::new().message_reorder_at(SimTime::ZERO, "shop", 0.5, SimDuration::ZERO),
            FaultPlan::new().partition_at(SimTime::ZERO, "shop->node1", SimDuration::ZERO),
            FaultPlan::new().shop_crash_at(SimTime::ZERO, "shop", Some(SimDuration::ZERO)),
        ];
        for plan in cases {
            assert!(
                matches!(
                    plan.validate(known),
                    Err(FaultPlanError::EmptyDuration { .. })
                ),
                "zero duration accepted: {plan:?}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_degradation_factors() {
        for factor in [0.0, -0.5, 1.5] {
            let plan = FaultPlan::new().nfs_degraded_at(
                SimTime::ZERO,
                "storage",
                factor,
                SimDuration::from_secs(10),
            );
            assert!(
                matches!(
                    plan.validate(known),
                    Err(FaultPlanError::InvalidFactor { .. })
                ),
                "factor={factor} accepted"
            );
        }
    }

    #[test]
    fn validate_rejects_unknown_targets() {
        let plan = FaultPlan::new().host_crash_at(SimTime::ZERO, "node99");
        assert!(matches!(
            plan.validate(known),
            Err(FaultPlanError::UnknownTarget { target, .. }) if target == "node99"
        ));
        // A directional scope is checked endpoint by endpoint.
        let scoped = FaultPlan::new().partition_at(
            SimTime::ZERO,
            "shop->nowhere",
            SimDuration::from_secs(10),
        );
        assert!(matches!(
            scoped.validate(known),
            Err(FaultPlanError::UnknownTarget { .. })
        ));
        let rule = FaultPlan::new().random_host_faults(
            ["node0", "ghost"],
            SimDuration::from_secs(100),
            None,
            SimTime::ZERO,
            SimTime::from_secs(500),
        );
        assert!(matches!(
            rule.validate(known),
            Err(FaultPlanError::UnknownTarget { target, .. }) if target == "ghost"
        ));
    }

    #[test]
    fn validate_rejects_degenerate_rules() {
        let no_targets = FaultPlan::new().random_host_faults(
            Vec::<String>::new(),
            SimDuration::from_secs(100),
            None,
            SimTime::ZERO,
            SimTime::from_secs(500),
        );
        assert!(matches!(
            no_targets.validate(known),
            Err(FaultPlanError::EmptyRule { what: "target set", .. })
        ));
        let empty_window = FaultPlan::new().random_nfs_outages(
            "storage",
            SimDuration::from_secs(300),
            SimDuration::from_secs(30),
            SimTime::from_secs(500),
            SimTime::from_secs(500),
        );
        assert!(matches!(
            empty_window.validate(known),
            Err(FaultPlanError::EmptyRule { what: "time window", .. })
        ));
        let zero_mtbf = FaultPlan::new().random_host_faults(
            ["node0"],
            SimDuration::ZERO,
            None,
            SimTime::ZERO,
            SimTime::from_secs(500),
        );
        assert!(matches!(
            zero_mtbf.validate(known),
            Err(FaultPlanError::EmptyDuration { what: "mtbf", .. })
        ));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut engine = Engine::new();
        let injector = FaultInjector::install(&mut engine, FaultPlan::new().materialize(0), |_, _| {});
        engine.run();
        assert!(injector.trace().is_empty());
    }
}
