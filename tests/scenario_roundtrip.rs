//! Scenario grammar and compiler regression tests: seeded-random
//! round-trip + determinism, and pinned-fixture checks for the committed
//! scenario files under `scenarios/`.

use vmplants::chaos::run_chaos;
use vmplants::scenario::shrink::FailureSignature;
use vmplants::scenario::{MemoryWeight, Scenario, Workload};
use vmplants_shop::ShopTuning;
use vmplants_simkit::{FaultKind, FaultPlan, FaultRule, LinkTuning, SimDuration, SimRng, SimTime};

fn scenario_path(name: &str) -> String {
    format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn load(name: &str) -> Scenario {
    let text = std::fs::read_to_string(scenario_path(name)).expect("read scenario file");
    Scenario::from_xml(&text).expect("parse scenario file")
}

fn dur(rng: &mut SimRng, lo_ms: u64, hi_ms: u64) -> SimDuration {
    SimDuration::from_millis(rng.uniform_u64(lo_ms, hi_ms))
}

/// Generate a random — but always valid — scenario from a seeded RNG.
/// Durations are whole milliseconds and probabilities raw uniform
/// doubles, so everything must survive the XML round-trip exactly.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = SimRng::seed_from_u64(seed);
    let golden = [32u64, 64, 256];

    let mut workloads = Vec::new();
    for _ in 0..rng.uniform_u64(1, 3) {
        let requests = rng.uniform_u64(1, 6) as usize;
        let memory_mb = golden[rng.index(3)];
        let w = match rng.index(5) {
            0 => Workload::Constant {
                requests,
                interval: dur(&mut rng, 5_000, 60_000),
                memory_mb,
            },
            1 => Workload::Diurnal {
                requests,
                base_interval: dur(&mut rng, 5_000, 60_000),
                amplitude: rng.uniform(0.0, 0.95),
                period: dur(&mut rng, 60_000, 900_000),
                memory_mb,
            },
            2 => Workload::Flash {
                requests,
                interval: dur(&mut rng, 5_000, 60_000),
                memory_mb,
                burst_at: dur(&mut rng, 0, 300_000),
                burst_requests: rng.uniform_u64(1, 6) as usize,
                burst_spacing: dur(&mut rng, 100, 5_000),
            },
            3 => Workload::Zipf {
                requests,
                interval: dur(&mut rng, 5_000, 60_000),
                population: rng.uniform_u64(1, 64) as u32,
                exponent: rng.uniform(0.0, 2.0),
            },
            _ => Workload::Mix {
                requests,
                interval: dur(&mut rng, 5_000, 60_000),
                memories: (0..rng.uniform_u64(1, 3))
                    .map(|_| MemoryWeight {
                        memory_mb: golden[rng.index(3)],
                        weight: rng.uniform(0.1, 5.0),
                    })
                    .collect(),
            },
        };
        workloads.push(w);
    }

    let mut scenario = Scenario {
        name: format!("generated-{seed}"),
        seed,
        workloads,
        plan: FaultPlan::new(),
        tuning: ShopTuning::default(),
        link: LinkTuning::default(),
        slo: None,
        expect: None,
    };

    for _ in 0..rng.uniform_u64(0, 4) {
        let at = SimTime::from_millis(rng.uniform_u64(0, 240_000));
        let host = format!("node{}", rng.index(8));
        let (target, kind) = match rng.index(9) {
            0 => (host, FaultKind::HostCrash),
            1 => (
                host,
                FaultKind::HostReboot {
                    downtime: dur(&mut rng, 1_000, 120_000),
                },
            ),
            2 => (
                "storage".to_string(),
                FaultKind::NfsOutage {
                    duration: dur(&mut rng, 1_000, 60_000),
                },
            ),
            3 => (
                "storage".to_string(),
                FaultKind::NfsDegraded {
                    factor: rng.uniform(0.05, 1.0),
                    duration: dur(&mut rng, 1_000, 60_000),
                },
            ),
            4 => (
                "shop".to_string(),
                FaultKind::MessageLoss {
                    probability: rng.uniform(0.0, 1.0),
                    duration: dur(&mut rng, 1_000, 600_000),
                },
            ),
            5 => (
                "shop".to_string(),
                FaultKind::MessageDuplicate {
                    probability: rng.uniform(0.0, 1.0),
                    duration: dur(&mut rng, 1_000, 600_000),
                },
            ),
            6 => (
                "shop".to_string(),
                FaultKind::MessageReorder {
                    probability: rng.uniform(0.0, 1.0),
                    duration: dur(&mut rng, 1_000, 600_000),
                },
            ),
            7 => (
                format!("shop->node{}", rng.index(8)),
                FaultKind::LinkPartition {
                    duration: dur(&mut rng, 1_000, 60_000),
                },
            ),
            _ => (
                "shop".to_string(),
                FaultKind::ShopCrash {
                    downtime: if rng.chance(0.75) {
                        Some(dur(&mut rng, 1_000, 120_000))
                    } else {
                        None
                    },
                },
            ),
        };
        scenario.plan = scenario.plan.schedule(at, target, kind);
    }

    if rng.chance(0.5) {
        let from = SimTime::from_millis(rng.uniform_u64(0, 60_000));
        let until = from + dur(&mut rng, 60_000, 600_000);
        scenario.plan.rules.push(if rng.chance(0.5) {
            FaultRule::HostFaults {
                targets: (0..=rng.index(4)).map(|i| format!("node{i}")).collect(),
                mtbf: dur(&mut rng, 30_000, 300_000),
                downtime: if rng.chance(0.5) {
                    Some(dur(&mut rng, 5_000, 120_000))
                } else {
                    None
                },
                from,
                until,
            }
        } else {
            FaultRule::NfsOutages {
                target: "storage".to_string(),
                mean_gap: dur(&mut rng, 60_000, 600_000),
                outage: dur(&mut rng, 5_000, 60_000),
                from,
                until,
            }
        });
    }

    if rng.chance(0.4) {
        scenario.tuning.attempt_timeout = dur(&mut rng, 30_000, 600_000);
        scenario.tuning.min_live_plants = rng.index(4);
    }
    if rng.chance(0.4) {
        scenario.link.drop_p = rng.uniform(0.0, 0.3);
        let lo = rng.uniform(0.01, 0.1);
        scenario.link.delay = (lo, lo + rng.uniform(0.05, 0.3));
    }
    if rng.chance(0.3) {
        scenario.slo = Some(vmplants::chaos::SloSpec {
            success_rate: Some(rng.uniform(0.5, 1.0)),
            p99_s: Some(rng.uniform(30.0, 600.0)),
            ..vmplants::chaos::SloSpec::default()
        });
    }
    scenario
}

/// Any generated scenario survives serialize → parse structurally
/// intact, and its canonical form is a fixpoint.
#[test]
fn generated_scenarios_round_trip_through_xml() {
    for seed in 0..40u64 {
        let scenario = random_scenario(seed);
        let xml = scenario.to_xml();
        let back = Scenario::from_xml(&xml)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{xml}"));
        assert_eq!(back, scenario, "seed {seed}: round-trip changed the scenario");
        assert_eq!(back.to_xml(), xml, "seed {seed}: canonical form not a fixpoint");
    }
}

/// The scenario reader never panics on malformed files, and whatever it
/// accepts compiles to a config or a typed error: generated scenarios
/// with a few characters of their XML replaced, inserted or deleted.
#[test]
fn mutated_scenario_xml_never_panics() {
    let alphabet: Vec<char> = "<>/=\"&; #x-.e0123456789aoz".chars().collect();
    let mut accepted = 0;
    for seed in 0..2_000u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut xml: Vec<char> = random_scenario(seed).to_xml().chars().collect();
        for _ in 0..1 + rng.index(3) {
            let at = rng.index(xml.len() + 1);
            let c = alphabet[rng.index(alphabet.len())];
            match rng.index(3) {
                0 if at < xml.len() => xml[at] = c,
                1 => xml.insert(at, c),
                _ if at < xml.len() => {
                    xml.remove(at);
                }
                _ => {}
            }
        }
        let xml: String = xml.into_iter().collect();
        let outcome = std::panic::catch_unwind(|| {
            Scenario::from_xml(&xml).map(|scenario| {
                let _ = scenario.compile();
            })
        });
        match outcome {
            Ok(parsed) => accepted += usize::from(parsed.is_ok()),
            Err(_) => panic!("seed {seed}: scenario reader or compiler panicked on\n{xml}"),
        }
    }
    assert!(accepted > 100, "only {accepted} mutated scenarios parsed");
}

/// Any generated scenario compiles, runs, and produces a byte-identical
/// chaos report (including the envelope trace) when compiled and run
/// again under the same seed — including after an XML round-trip.
#[test]
fn generated_scenarios_compile_and_replay_byte_identically() {
    for seed in 0..12u64 {
        let scenario = random_scenario(seed);
        let config = scenario
            .compile()
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}"));
        let first = run_chaos(&config).render_full();
        let second = run_chaos(&scenario.compile().expect("recompile")).render_full();
        assert_eq!(first, second, "seed {seed}: same-seed replay diverged");

        let reparsed = Scenario::from_xml(&scenario.to_xml()).expect("reparse");
        let third = run_chaos(&reparsed.compile().expect("compile reparsed")).render_full();
        assert_eq!(
            first, third,
            "seed {seed}: XML round-trip changed the simulation"
        );
    }
}

/// Every committed scenario file is already in canonical form: parsing
/// and re-serializing it reproduces the file byte for byte.
#[test]
fn committed_scenarios_are_canonical() {
    let dir = scenario_path("");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scenarios directory")
        .map(|entry| entry.expect("scenario entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "xml"))
        .collect();
    files.sort();
    assert!(files.len() >= 5, "expected the committed scenarios in {dir}");
    for path in files {
        let text = std::fs::read_to_string(&path).expect("read scenario file");
        let scenario = Scenario::from_xml(&text).expect("parse scenario file");
        assert_eq!(scenario.to_xml(), text, "{} is not canonical", path.display());
    }
}

/// The committed transport-storm scenario file compiles to the exact
/// run the chaos_transport_seed42 fixture pins: the declarative file and
/// the legacy hand-built config are interchangeable, byte for byte.
#[test]
fn committed_transport_storm_scenario_matches_the_chaos_fixture() {
    let scenario = load("transport_storm.xml");
    let rendered = run_chaos(&scenario.compile().expect("compile")).render_full();
    let expected = include_str!("fixtures/chaos_transport_seed42.txt");
    assert_eq!(
        rendered, expected,
        "scenario-compiled transport storm drifted from the committed fixture"
    );
}

/// The committed chaos-storm scenario exercises all nine fault kinds
/// and replays deterministically.
#[test]
fn committed_chaos_storm_scenario_covers_all_nine_fault_kinds() {
    let scenario = load("chaos_storm.xml");
    let kinds: Vec<&str> = scenario
        .plan
        .scheduled
        .iter()
        .map(|f| match f.kind {
            FaultKind::HostCrash => "host-crash",
            FaultKind::HostReboot { .. } => "host-reboot",
            FaultKind::NfsOutage { .. } => "nfs-outage",
            FaultKind::NfsDegraded { .. } => "nfs-degraded",
            FaultKind::MessageLoss { .. } => "message-loss",
            FaultKind::MessageDuplicate { .. } => "message-duplicate",
            FaultKind::MessageReorder { .. } => "message-reorder",
            FaultKind::LinkPartition { .. } => "link-partition",
            FaultKind::ShopCrash { .. } => "shop-crash",
        })
        .collect();
    for kind in [
        "host-crash",
        "host-reboot",
        "nfs-outage",
        "nfs-degraded",
        "message-loss",
        "message-duplicate",
        "message-reorder",
        "link-partition",
        "shop-crash",
    ] {
        assert!(kinds.contains(&kind), "scenario file is missing {kind}");
    }

    let config = scenario.compile().expect("compile");
    let first = run_chaos(&config).render();
    let second = run_chaos(&config).render();
    assert_eq!(first, second, "chaos storm scenario replay diverged");
}

/// The committed warehouse-zipf scenario declares a Zipf demand stream
/// over 120 DAG-distinct goldens, survives the XML round-trip as a
/// fixpoint, publishes its population through the compiler, and replays
/// byte-identically.
#[test]
fn committed_warehouse_zipf_scenario_compiles_and_replays() {
    let scenario = load("warehouse_zipf.xml");
    assert!(matches!(
        scenario.workloads[0],
        Workload::Zipf {
            requests: 48,
            population: 120,
            ..
        }
    ));
    let reparsed = Scenario::from_xml(&scenario.to_xml()).expect("reparse");
    assert_eq!(reparsed, scenario, "round-trip changed the scenario");

    let config = scenario.compile().expect("compile");
    assert_eq!(
        config.zipf_goldens, 120,
        "compiler did not publish the zipf population"
    );
    let first = run_chaos(&config).render_full();
    let second = run_chaos(&config).render_full();
    assert_eq!(first, second, "warehouse zipf scenario replay diverged");
}

/// The committed SLO baseline survives the round trip, passes its
/// declared objectives from the sketch, and actually gates: tightening
/// the p99 objective to an impossible bound trips a violation.
#[test]
fn committed_slo_baseline_scenario_passes_and_gates() {
    let scenario = load("slo_baseline.xml");
    let slo = scenario.slo.expect("baseline carries <slo>");
    assert!(!slo.is_empty(), "baseline SLO declares objectives");
    let reparsed = Scenario::from_xml(&scenario.to_xml()).expect("reparse");
    assert_eq!(reparsed, scenario, "round-trip changed the scenario");

    let report = run_chaos(&scenario.compile().expect("compile"));
    assert!(
        report.slo_violations().is_empty(),
        "baseline violates its own SLO: {:?}",
        report.slo_violations()
    );

    let mut tight = scenario.clone();
    tight.slo = Some(vmplants::chaos::SloSpec {
        p99_s: Some(1.0),
        ..slo
    });
    let tripped = run_chaos(&tight.compile().expect("compile tightened"));
    assert!(
        !tripped.slo_violations().is_empty(),
        "an impossible p99 objective must trip the gate"
    );
}

/// The committed E20 minimal repro still fails the way its `<expect>`
/// element claims.
#[test]
fn committed_min_repro_reproduces_its_expected_signature() {
    let scenario = load("e20_min_repro.xml");
    let expect = scenario.expect.as_ref().expect("min repro carries <expect>");
    let target = FailureSignature::from_expect(expect);
    assert!(target.is_failure(), "committed repro expects a failure");

    let report = run_chaos(&scenario.compile().expect("compile"));
    let observed = FailureSignature::of(&report);
    assert!(
        target.reproduced_by(&observed),
        "committed minimal repro no longer reproduces\n  expected: {}\n  observed: {}",
        target.render(),
        observed.render()
    );
}
