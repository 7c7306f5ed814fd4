//! The scenario XML grammar: [`Scenario::from_xml`] and
//! [`Scenario::to_xml`].
//!
//! The grammar is deliberately strict: unknown elements and unknown
//! attributes are hard errors, because in a chaos harness a silently
//! ignored, misspelled fault is indistinguishable from a system that
//! survived it. Durations and times are written in seconds as `f64`;
//! the clock is millisecond-resolution, and `f64` seconds derived from
//! whole milliseconds round-trip exactly through the shortest-repr
//! formatter, so `from_xml(to_xml(s)) == s` holds structurally.
//!
//! ```xml
//! <scenario name="storm" seed="42">
//!   <workload kind="constant" requests="12" interval-s="20" memory-mb="64"/>
//!   <faults>
//!     <message-loss at-s="0" target="shop" p="0.3" duration-s="2592000"/>
//!     <link-partition at-s="100" target="shop-&gt;node2" duration-s="30"/>
//!     <random-host-faults targets="node0 node1" mtbf-s="200"
//!                         downtime-s="45" from-s="0" until-s="400"/>
//!   </faults>
//!   <tuning attempt-timeout-s="120"/>
//!   <transport drop-p="0.1"/>
//!   <expect signature="all plants failed" hung="false"/>
//! </scenario>
//! ```

use std::str::FromStr;

use vmplants_shop::ShopTuning;
use vmplants_simkit::{
    FaultEvent, FaultKind, FaultPlan, FaultRule, LinkTuning, SimDuration, SimTime,
};
use vmplants_xmlmsg::{parse, Element};

use super::{ExpectDecl, MemoryWeight, Scenario, ScenarioError, Workload};

/// Reject attributes outside the element's grammar.
fn attrs_known(e: &Element, known: &[&str]) -> Result<(), ScenarioError> {
    for (name, _) in &e.attrs {
        if !known.contains(&name.as_str()) {
            return Err(ScenarioError::UnknownAttr {
                element: e.name.clone(),
                attr: name.clone(),
            });
        }
    }
    Ok(())
}

/// A required attribute's raw text.
fn req<'a>(e: &'a Element, attr: &str) -> Result<&'a str, ScenarioError> {
    e.attr(attr).ok_or_else(|| ScenarioError::MissingAttr {
        element: e.name.clone(),
        attr: attr.to_string(),
    })
}

/// A required attribute parsed as `T`.
fn num<T: FromStr>(e: &Element, attr: &str) -> Result<T, ScenarioError> {
    let raw = req(e, attr)?;
    raw.parse().map_err(|_| ScenarioError::BadAttr {
        element: e.name.clone(),
        attr: attr.to_string(),
        value: raw.to_string(),
    })
}

/// An optional attribute parsed as `T` (absent ⇒ `None`).
fn num_opt<T: FromStr>(e: &Element, attr: &str) -> Result<Option<T>, ScenarioError> {
    match e.attr(attr) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| ScenarioError::BadAttr {
                element: e.name.clone(),
                attr: attr.to_string(),
                value: raw.to_string(),
            }),
    }
}

/// A required duration attribute, written in seconds. Negative and
/// non-finite values clamp to zero here and are rejected by semantic
/// validation at compile time, with the fault named.
fn dur(e: &Element, attr: &str) -> Result<SimDuration, ScenarioError> {
    Ok(SimDuration::from_secs_f64(num::<f64>(e, attr)?))
}

/// An optional duration attribute, in seconds.
fn dur_opt(e: &Element, attr: &str) -> Result<Option<SimDuration>, ScenarioError> {
    Ok(num_opt::<f64>(e, attr)?.map(SimDuration::from_secs_f64))
}

/// A required time attribute, in seconds since the start of the run.
fn time(e: &Element, attr: &str) -> Result<SimTime, ScenarioError> {
    Ok(SimTime::from_secs_f64(num::<f64>(e, attr)?))
}

/// Seconds attribute value for serialization — exact because the clock
/// is millisecond-resolution (see module docs).
fn secs(d: SimDuration) -> String {
    format!("{}", d.as_secs_f64())
}

fn secs_at(t: SimTime) -> String {
    format!("{}", t.as_secs_f64())
}

fn parse_workload(e: &Element) -> Result<Workload, ScenarioError> {
    let kind = req(e, "kind")?;
    let workload = match kind {
        "constant" => {
            attrs_known(e, &["kind", "requests", "interval-s", "memory-mb"])?;
            Workload::Constant {
                requests: num(e, "requests")?,
                interval: dur(e, "interval-s")?,
                memory_mb: num(e, "memory-mb")?,
            }
        }
        "diurnal" => {
            attrs_known(
                e,
                &[
                    "kind",
                    "requests",
                    "base-interval-s",
                    "amplitude",
                    "period-s",
                    "memory-mb",
                ],
            )?;
            Workload::Diurnal {
                requests: num(e, "requests")?,
                base_interval: dur(e, "base-interval-s")?,
                amplitude: num(e, "amplitude")?,
                period: dur(e, "period-s")?,
                memory_mb: num(e, "memory-mb")?,
            }
        }
        "flash" => {
            attrs_known(
                e,
                &[
                    "kind",
                    "requests",
                    "interval-s",
                    "memory-mb",
                    "burst-at-s",
                    "burst-requests",
                    "burst-spacing-s",
                ],
            )?;
            Workload::Flash {
                requests: num(e, "requests")?,
                interval: dur(e, "interval-s")?,
                memory_mb: num(e, "memory-mb")?,
                burst_at: dur(e, "burst-at-s")?,
                burst_requests: num(e, "burst-requests")?,
                burst_spacing: dur(e, "burst-spacing-s")?,
            }
        }
        "mix" => {
            attrs_known(e, &["kind", "requests", "interval-s"])?;
            let mut memories = Vec::new();
            for child in e.elements() {
                if child.name != "memory" {
                    return Err(ScenarioError::UnknownElement {
                        element: format!("workload/{}", child.name),
                    });
                }
                attrs_known(child, &["mb", "weight"])?;
                memories.push(MemoryWeight {
                    memory_mb: num(child, "mb")?,
                    weight: num(child, "weight")?,
                });
            }
            Workload::Mix {
                requests: num(e, "requests")?,
                interval: dur(e, "interval-s")?,
                memories,
            }
        }
        "zipf" => {
            attrs_known(e, &["kind", "requests", "interval-s", "population", "exponent"])?;
            Workload::Zipf {
                requests: num(e, "requests")?,
                interval: dur(e, "interval-s")?,
                population: num(e, "population")?,
                exponent: num(e, "exponent")?,
            }
        }
        other => {
            return Err(ScenarioError::BadAttr {
                element: e.name.clone(),
                attr: "kind".to_string(),
                value: other.to_string(),
            })
        }
    };
    // Only <workload kind="mix"> takes children.
    if !matches!(workload, Workload::Mix { .. }) {
        if let Some(child) = e.elements().next() {
            return Err(ScenarioError::UnknownElement {
                element: format!("workload/{}", child.name),
            });
        }
    }
    Ok(workload)
}

/// Parse one child of `<faults>` into `plan`: a pinned fault or a
/// stochastic rule.
fn parse_fault(e: &Element, plan: &mut FaultPlan) -> Result<(), ScenarioError> {
    let faults = &mut plan.scheduled;
    // Pinned events share the `at-s` + `target` shape.
    let pinned = |e: &Element, kind: FaultKind| -> Result<FaultEvent, ScenarioError> {
        Ok(FaultEvent {
            at: time(e, "at-s")?,
            target: req(e, "target")?.to_string(),
            kind,
        })
    };
    match e.name.as_str() {
        "host-crash" => {
            attrs_known(e, &["at-s", "target"])?;
            faults.push(pinned(e, FaultKind::HostCrash)?);
        }
        "host-reboot" => {
            attrs_known(e, &["at-s", "target", "downtime-s"])?;
            let downtime = dur(e, "downtime-s")?;
            faults.push(pinned(e, FaultKind::HostReboot { downtime })?);
        }
        "nfs-outage" => {
            attrs_known(e, &["at-s", "target", "duration-s"])?;
            let duration = dur(e, "duration-s")?;
            faults.push(pinned(e, FaultKind::NfsOutage { duration })?);
        }
        "nfs-degraded" => {
            attrs_known(e, &["at-s", "target", "factor", "duration-s"])?;
            let kind = FaultKind::NfsDegraded {
                factor: num(e, "factor")?,
                duration: dur(e, "duration-s")?,
            };
            faults.push(pinned(e, kind)?);
        }
        "message-loss" | "message-duplicate" | "message-reorder" => {
            attrs_known(e, &["at-s", "target", "p", "duration-s"])?;
            let probability = num(e, "p")?;
            let duration = dur(e, "duration-s")?;
            let kind = match e.name.as_str() {
                "message-loss" => FaultKind::MessageLoss {
                    probability,
                    duration,
                },
                "message-duplicate" => FaultKind::MessageDuplicate {
                    probability,
                    duration,
                },
                _ => FaultKind::MessageReorder {
                    probability,
                    duration,
                },
            };
            faults.push(pinned(e, kind)?);
        }
        "link-partition" => {
            attrs_known(e, &["at-s", "target", "duration-s"])?;
            let duration = dur(e, "duration-s")?;
            faults.push(pinned(e, FaultKind::LinkPartition { duration })?);
        }
        "shop-crash" => {
            attrs_known(e, &["at-s", "target", "downtime-s"])?;
            // No downtime attribute = the shop never comes back.
            let downtime = dur_opt(e, "downtime-s")?;
            faults.push(pinned(e, FaultKind::ShopCrash { downtime })?);
        }
        "random-host-faults" => {
            attrs_known(e, &["targets", "mtbf-s", "downtime-s", "from-s", "until-s"])?;
            plan.rules.push(FaultRule::HostFaults {
                targets: req(e, "targets")?
                    .split_whitespace()
                    .map(str::to_string)
                    .collect(),
                mtbf: dur(e, "mtbf-s")?,
                downtime: dur_opt(e, "downtime-s")?,
                from: time(e, "from-s")?,
                until: time(e, "until-s")?,
            });
        }
        "random-nfs-outages" => {
            attrs_known(e, &["target", "mean-gap-s", "outage-s", "from-s", "until-s"])?;
            plan.rules.push(FaultRule::NfsOutages {
                target: req(e, "target")?.to_string(),
                mean_gap: dur(e, "mean-gap-s")?,
                outage: dur(e, "outage-s")?,
                from: time(e, "from-s")?,
                until: time(e, "until-s")?,
            });
        }
        other => {
            return Err(ScenarioError::UnknownElement {
                element: format!("faults/{other}"),
            })
        }
    }
    Ok(())
}

/// Parse `<tuning>`: every attribute left out keeps the default.
fn parse_tuning(e: &Element) -> Result<ShopTuning, ScenarioError> {
    attrs_known(
        e,
        &[
            "order-deadline-s",
            "attempt-timeout-s",
            "backoff-base-s",
            "backoff-cap-s",
            "min-live-plants",
            "rto-base-s",
            "rto-cap-s",
            "dedup-capacity",
        ],
    )?;
    let d = ShopTuning::default();
    Ok(ShopTuning {
        order_deadline: dur_opt(e, "order-deadline-s")?.or(d.order_deadline),
        attempt_timeout: dur_opt(e, "attempt-timeout-s")?.unwrap_or(d.attempt_timeout),
        backoff_base: dur_opt(e, "backoff-base-s")?.unwrap_or(d.backoff_base),
        backoff_cap: dur_opt(e, "backoff-cap-s")?.unwrap_or(d.backoff_cap),
        min_live_plants: num_opt(e, "min-live-plants")?.unwrap_or(d.min_live_plants),
        rto_base: dur_opt(e, "rto-base-s")?.unwrap_or(d.rto_base),
        rto_cap: dur_opt(e, "rto-cap-s")?.unwrap_or(d.rto_cap),
        dedup_capacity: num_opt(e, "dedup-capacity")?.unwrap_or(d.dedup_capacity),
        ..d
    })
}

/// Parse `<transport>`: every attribute left out keeps the default.
fn parse_transport(e: &Element) -> Result<LinkTuning, ScenarioError> {
    attrs_known(
        e,
        &[
            "delay-lo-s",
            "delay-hi-s",
            "drop-p",
            "dup-p",
            "reorder-p",
            "reorder-hold-lo-s",
            "reorder-hold-hi-s",
        ],
    )?;
    let pair = |lo: &str, hi: &str| -> Result<Option<(f64, f64)>, ScenarioError> {
        match (num_opt::<f64>(e, lo)?, num_opt::<f64>(e, hi)?) {
            (None, None) => Ok(None),
            (lo_v, hi_v) => {
                // Both halves of a range or neither.
                let missing = if lo_v.is_none() { lo } else { hi };
                match (lo_v, hi_v) {
                    (Some(a), Some(b)) => Ok(Some((a, b))),
                    _ => Err(ScenarioError::MissingAttr {
                        element: e.name.clone(),
                        attr: missing.to_string(),
                    }),
                }
            }
        }
    };
    let d = LinkTuning::default();
    Ok(LinkTuning {
        delay: pair("delay-lo-s", "delay-hi-s")?.unwrap_or(d.delay),
        drop_p: num_opt(e, "drop-p")?.unwrap_or(d.drop_p),
        dup_p: num_opt(e, "dup-p")?.unwrap_or(d.dup_p),
        reorder_p: num_opt(e, "reorder-p")?.unwrap_or(d.reorder_p),
        reorder_hold: pair("reorder-hold-lo-s", "reorder-hold-hi-s")?.unwrap_or(d.reorder_hold),
    })
}

fn parse_slo(e: &Element) -> Result<crate::chaos::SloSpec, ScenarioError> {
    attrs_known(e, &["success-rate", "p50-s", "p99-s", "p999-s"])?;
    Ok(crate::chaos::SloSpec {
        success_rate: num_opt(e, "success-rate")?,
        p50_s: num_opt(e, "p50-s")?,
        p99_s: num_opt(e, "p99-s")?,
        p999_s: num_opt(e, "p999-s")?,
    })
}

fn slo_to_xml(slo: &crate::chaos::SloSpec) -> Element {
    let num = |x: f64| x.to_string();
    with_attrs(
        "slo",
        [
            ("success-rate", slo.success_rate.map(num)),
            ("p50-s", slo.p50_s.map(num)),
            ("p99-s", slo.p99_s.map(num)),
            ("p999-s", slo.p999_s.map(num)),
        ],
    )
}

fn parse_expect(e: &Element) -> Result<ExpectDecl, ScenarioError> {
    attrs_known(e, &["signature", "hung"])?;
    let signature = req(e, "signature")?;
    let mut classes: Vec<String> = signature
        .split('|')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    classes.sort();
    classes.dedup();
    Ok(ExpectDecl {
        classes,
        hung: num_opt(e, "hung")?.unwrap_or(false),
    })
}

impl Scenario {
    /// Parse a scenario document. Strict: unknown elements/attributes are
    /// errors; semantic checks (ranges, targets) happen in
    /// [`Scenario::compile`].
    pub fn from_xml(input: &str) -> Result<Scenario, ScenarioError> {
        let root = parse(input).map_err(|e| ScenarioError::Xml(e.to_string()))?;
        if root.name != "scenario" {
            return Err(ScenarioError::UnknownElement {
                element: root.name.clone(),
            });
        }
        attrs_known(&root, &["name", "seed"])?;
        let mut scenario = Scenario {
            name: req(&root, "name")?.to_string(),
            seed: num(&root, "seed")?,
            workloads: Vec::new(),
            plan: FaultPlan::new(),
            tuning: ShopTuning::default(),
            link: LinkTuning::default(),
            slo: None,
            expect: None,
        };
        for child in root.elements() {
            match child.name.as_str() {
                "workload" => scenario.workloads.push(parse_workload(child)?),
                "faults" => {
                    attrs_known(child, &[])?;
                    for f in child.elements() {
                        parse_fault(f, &mut scenario.plan)?;
                    }
                }
                "tuning" => scenario.tuning = parse_tuning(child)?,
                "transport" => scenario.link = parse_transport(child)?,
                "slo" => scenario.slo = Some(parse_slo(child)?),
                "expect" => scenario.expect = Some(parse_expect(child)?),
                other => {
                    return Err(ScenarioError::UnknownElement {
                        element: format!("scenario/{other}"),
                    })
                }
            }
        }
        Ok(scenario)
    }

    /// Serialize to the canonical pretty-printed document. Tuning and
    /// transport attributes are written only where they differ from the
    /// defaults. `from_xml(to_xml(s)) == s` for any scenario whose
    /// settings the grammar can express.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("scenario")
            .with_attr("name", &self.name)
            .with_attr("seed", self.seed.to_string());
        for w in &self.workloads {
            root.push_child(workload_to_xml(w));
        }
        if self.plan != FaultPlan::new() {
            let mut faults = Element::new("faults");
            for f in &self.plan.scheduled {
                faults.push_child(fault_to_xml(f));
            }
            for r in &self.plan.rules {
                faults.push_child(rule_to_xml(r));
            }
            root.push_child(faults);
        }
        // Only the attributes that differ from the defaults are written.
        for e in [tuning_to_xml(&self.tuning), transport_to_xml(&self.link)] {
            if !e.attrs.is_empty() {
                root.push_child(e);
            }
        }
        if let Some(slo) = &self.slo {
            root.push_child(slo_to_xml(slo));
        }
        if let Some(expect) = &self.expect {
            root.push_child(
                Element::new("expect")
                    .with_attr("signature", expect.classes.join("|"))
                    .with_attr("hung", expect.hung.to_string()),
            );
        }
        root.to_pretty_xml()
    }
}

fn workload_to_xml(w: &Workload) -> Element {
    match w {
        Workload::Constant {
            requests,
            interval,
            memory_mb,
        } => Element::new("workload")
            .with_attr("kind", "constant")
            .with_attr("requests", requests.to_string())
            .with_attr("interval-s", secs(*interval))
            .with_attr("memory-mb", memory_mb.to_string()),
        Workload::Diurnal {
            requests,
            base_interval,
            amplitude,
            period,
            memory_mb,
        } => Element::new("workload")
            .with_attr("kind", "diurnal")
            .with_attr("requests", requests.to_string())
            .with_attr("base-interval-s", secs(*base_interval))
            .with_attr("amplitude", amplitude.to_string())
            .with_attr("period-s", secs(*period))
            .with_attr("memory-mb", memory_mb.to_string()),
        Workload::Flash {
            requests,
            interval,
            memory_mb,
            burst_at,
            burst_requests,
            burst_spacing,
        } => Element::new("workload")
            .with_attr("kind", "flash")
            .with_attr("requests", requests.to_string())
            .with_attr("interval-s", secs(*interval))
            .with_attr("memory-mb", memory_mb.to_string())
            .with_attr("burst-at-s", secs(*burst_at))
            .with_attr("burst-requests", burst_requests.to_string())
            .with_attr("burst-spacing-s", secs(*burst_spacing)),
        Workload::Mix {
            requests,
            interval,
            memories,
        } => {
            let mut e = Element::new("workload")
                .with_attr("kind", "mix")
                .with_attr("requests", requests.to_string())
                .with_attr("interval-s", secs(*interval));
            for m in memories {
                e.push_child(
                    Element::new("memory")
                        .with_attr("mb", m.memory_mb.to_string())
                        .with_attr("weight", m.weight.to_string()),
                );
            }
            e
        }
        Workload::Zipf {
            requests,
            interval,
            population,
            exponent,
        } => Element::new("workload")
            .with_attr("kind", "zipf")
            .with_attr("requests", requests.to_string())
            .with_attr("interval-s", secs(*interval))
            .with_attr("population", population.to_string())
            .with_attr("exponent", exponent.to_string()),
    }
}

fn fault_to_xml(f: &FaultEvent) -> Element {
    let base = |name: &str| {
        Element::new(name)
            .with_attr("at-s", secs_at(f.at))
            .with_attr("target", &f.target)
    };
    match &f.kind {
        FaultKind::HostCrash => base("host-crash"),
        FaultKind::HostReboot { downtime } => {
            base("host-reboot").with_attr("downtime-s", secs(*downtime))
        }
        FaultKind::NfsOutage { duration } => {
            base("nfs-outage").with_attr("duration-s", secs(*duration))
        }
        FaultKind::NfsDegraded { factor, duration } => base("nfs-degraded")
            .with_attr("factor", factor.to_string())
            .with_attr("duration-s", secs(*duration)),
        FaultKind::MessageLoss {
            probability,
            duration,
        } => base("message-loss")
            .with_attr("p", probability.to_string())
            .with_attr("duration-s", secs(*duration)),
        FaultKind::MessageDuplicate {
            probability,
            duration,
        } => base("message-duplicate")
            .with_attr("p", probability.to_string())
            .with_attr("duration-s", secs(*duration)),
        FaultKind::MessageReorder {
            probability,
            duration,
        } => base("message-reorder")
            .with_attr("p", probability.to_string())
            .with_attr("duration-s", secs(*duration)),
        FaultKind::LinkPartition { duration } => {
            base("link-partition").with_attr("duration-s", secs(*duration))
        }
        FaultKind::ShopCrash { downtime } => {
            let mut e = base("shop-crash");
            if let Some(d) = downtime {
                e.set_attr("downtime-s", secs(*d));
            }
            e
        }
    }
}

fn rule_to_xml(r: &FaultRule) -> Element {
    match r {
        FaultRule::HostFaults {
            targets,
            mtbf,
            downtime,
            from,
            until,
        } => {
            let mut e = Element::new("random-host-faults")
                .with_attr("targets", targets.join(" "))
                .with_attr("mtbf-s", secs(*mtbf));
            if let Some(d) = downtime {
                e.set_attr("downtime-s", secs(*d));
            }
            e.with_attr("from-s", secs_at(*from))
                .with_attr("until-s", secs_at(*until))
        }
        FaultRule::NfsOutages {
            target,
            mean_gap,
            outage,
            from,
            until,
        } => Element::new("random-nfs-outages")
            .with_attr("target", target)
            .with_attr("mean-gap-s", secs(*mean_gap))
            .with_attr("outage-s", secs(*outage))
            .with_attr("from-s", secs_at(*from))
            .with_attr("until-s", secs_at(*until)),
    }
}

/// An element carrying each attribute whose value is present.
fn with_attrs<const N: usize>(name: &str, attrs: [(&str, Option<String>); N]) -> Element {
    let mut e = Element::new(name);
    for (attr, value) in attrs {
        if let Some(value) = value {
            e.set_attr(attr, value);
        }
    }
    e
}

/// `value` rendered by `text`, or `None` when it equals the default.
fn changed<T: PartialEq, R>(value: T, default: T, text: impl FnOnce(T) -> R) -> Option<R> {
    (value != default).then(|| text(value))
}

/// `<tuning>` with the attributes whose value differs from
/// [`ShopTuning::default`].
fn tuning_to_xml(t: &ShopTuning) -> Element {
    let d = ShopTuning::default();
    let count = |n: usize| n.to_string();
    with_attrs(
        "tuning",
        [
            (
                "order-deadline-s",
                changed(t.order_deadline, d.order_deadline, |x| x.map(secs)).flatten(),
            ),
            ("attempt-timeout-s", changed(t.attempt_timeout, d.attempt_timeout, secs)),
            ("backoff-base-s", changed(t.backoff_base, d.backoff_base, secs)),
            ("backoff-cap-s", changed(t.backoff_cap, d.backoff_cap, secs)),
            ("min-live-plants", changed(t.min_live_plants, d.min_live_plants, count)),
            ("rto-base-s", changed(t.rto_base, d.rto_base, secs)),
            ("rto-cap-s", changed(t.rto_cap, d.rto_cap, secs)),
            ("dedup-capacity", changed(t.dedup_capacity, d.dedup_capacity, count)),
        ],
    )
}

/// `<transport>` with the attributes whose value differs from
/// [`LinkTuning::default`]; a range is written as both halves.
fn transport_to_xml(l: &LinkTuning) -> Element {
    let d = LinkTuning::default();
    let num = |x: f64| x.to_string();
    with_attrs(
        "transport",
        [
            ("delay-lo-s", changed(l.delay, d.delay, |r| num(r.0))),
            ("delay-hi-s", changed(l.delay, d.delay, |r| num(r.1))),
            ("drop-p", changed(l.drop_p, d.drop_p, num)),
            ("dup-p", changed(l.dup_p, d.dup_p, num)),
            ("reorder-p", changed(l.reorder_p, d.reorder_p, num)),
            ("reorder-hold-lo-s", changed(l.reorder_hold, d.reorder_hold, |r| num(r.0))),
            ("reorder-hold-hi-s", changed(l.reorder_hold, d.reorder_hold, |r| num(r.1))),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
<scenario name="everything" seed="7">
  <workload kind="constant" requests="4" interval-s="20" memory-mb="64"/>
  <workload kind="diurnal" requests="6" base-interval-s="30" amplitude="0.6" period-s="600" memory-mb="64"/>
  <workload kind="flash" requests="3" interval-s="60" memory-mb="64" burst-at-s="120" burst-requests="5" burst-spacing-s="0.5"/>
  <workload kind="mix" requests="4" interval-s="30">
    <memory mb="32" weight="2"/>
    <memory mb="256" weight="1"/>
  </workload>
  <workload kind="zipf" requests="20" interval-s="15" population="50" exponent="1.1"/>
  <faults>
    <host-crash at-s="70" target="node1"/>
    <host-reboot at-s="15" target="node0" downtime-s="60"/>
    <nfs-outage at-s="120" target="storage" duration-s="20"/>
    <nfs-degraded at-s="30" target="storage" factor="0.25" duration-s="60"/>
    <message-loss at-s="0" target="shop" p="0.3" duration-s="600"/>
    <message-duplicate at-s="0" target="shop" p="0.2" duration-s="600"/>
    <message-reorder at-s="0" target="shop" p="0.3" duration-s="600"/>
    <link-partition at-s="100" target="shop-&gt;node2" duration-s="30"/>
    <random-host-faults targets="node3 node4" mtbf-s="200" downtime-s="45" from-s="0" until-s="400"/>
    <random-nfs-outages target="storage" mean-gap-s="500" outage-s="60" from-s="0" until-s="2000"/>
  </faults>
  <tuning attempt-timeout-s="120" min-live-plants="2"/>
  <transport drop-p="0.1" reorder-hold-lo-s="0.5" reorder-hold-hi-s="2"/>
  <slo success-rate="0.9" p50-s="60" p99-s="180" p999-s="300"/>
  <expect signature="all plants failed|order deadline exceeded" hung="true"/>
</scenario>
"#;

    #[test]
    fn full_grammar_round_trips() {
        let s = Scenario::from_xml(FULL).expect("parse");
        assert_eq!(s.name, "everything");
        assert_eq!(s.seed, 7);
        assert_eq!(s.workloads.len(), 5);
        assert!(matches!(
            s.workloads[4],
            Workload::Zipf {
                requests: 20,
                population: 50,
                ..
            }
        ));
        assert_eq!(s.plan.scheduled.len(), 8);
        assert_eq!(s.plan.rules.len(), 2);
        assert_eq!(s.tuning.min_live_plants, 2);
        assert_eq!(s.link.drop_p, 0.1);
        let slo = s.slo.expect("slo");
        assert_eq!(slo.success_rate, Some(0.9));
        assert_eq!(slo.p50_s, Some(60.0));
        assert_eq!(slo.p99_s, Some(180.0));
        assert_eq!(slo.p999_s, Some(300.0));
        let expect = s.expect.as_ref().expect("expect");
        assert!(expect.hung);
        assert_eq!(
            expect.classes,
            vec!["all plants failed", "order deadline exceeded"]
        );

        let xml = s.to_xml();
        let back = Scenario::from_xml(&xml).expect("reparse");
        assert_eq!(back, s);
        // And the canonical form is a fixpoint.
        assert_eq!(back.to_xml(), xml);
    }

    #[test]
    fn unknown_element_is_rejected() {
        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><workloud kind="constant"/></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownElement {
                element: "scenario/workloud".to_string()
            }
        );

        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><faults><host-crush at-s="1" target="node0"/></faults></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownElement {
                element: "faults/host-crush".to_string()
            }
        );
    }

    #[test]
    fn unknown_attr_is_rejected() {
        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><workload kind="constant" requests="1" interval-s="1" memory-mb="64" evil="y"/></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownAttr {
                element: "workload".to_string(),
                attr: "evil".to_string()
            }
        );
    }

    #[test]
    fn missing_and_malformed_attrs_are_rejected() {
        let err =
            Scenario::from_xml(r#"<scenario seed="1"/>"#).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::MissingAttr {
                element: "scenario".to_string(),
                attr: "name".to_string()
            }
        );

        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><workload kind="constant" requests="many" interval-s="1" memory-mb="64"/></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::BadAttr {
                element: "workload".to_string(),
                attr: "requests".to_string(),
                value: "many".to_string()
            }
        );

        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><workload kind="sawtooth" requests="1" interval-s="1" memory-mb="64"/></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::BadAttr {
                element: "workload".to_string(),
                attr: "kind".to_string(),
                value: "sawtooth".to_string()
            }
        );
    }

    #[test]
    fn half_open_transport_range_is_rejected() {
        let err = Scenario::from_xml(
            r#"<scenario name="x" seed="1"><workload kind="constant" requests="1" interval-s="1" memory-mb="64"/><transport delay-lo-s="0.05"/></scenario>"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::MissingAttr {
                element: "transport".to_string(),
                attr: "delay-hi-s".to_string()
            }
        );
    }
}
