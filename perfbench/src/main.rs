//! Steady-state order-lifecycle benchmark of the VMPlants reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload steady_lifecycle --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The benchmark builds a `SimSite`, schedules a seeded order stream through
//! the public `VmShop::create` / `ShopClient::submit`, destroys every VM
//! after a fixed sim lifetime so the site reaches a steady state, and
//! runs the event loop to quiescence. Host time (the machine running the
//! simulator) and sim time (the simulated testbed's clock) are kept
//! apart: a unit of `sim_s` is simulated seconds, `s`/`ms`/`us`/`ns` are
//! host time. Host times are scaled to a reference machine by a probe
//! timed alongside them (see `reference`), because the shared machines
//! this runs on change speed from minute to minute.
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced over as
//! many passes as fit in `--seconds`. `--trace 1` makes a separate
//! traced pass plus per-layer replays and prints the per-layer metrics.
//! Either way the correctness gates run, and a run that fails one prints
//! `"correct": false`. The last line of stdout is the JSON result.

mod drive;
mod layers;
mod reference;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vmplants::simkit::Obs;

use drive::{prepare, run, Outcome};
use stats::{median, percentile, quartiles};
use workload::{Kind, Plan};

/// End-to-end metrics and their units (`sim_s` is sim time).
const END_TO_END: [(&str, &str); 6] = [
    ("orders_per_s", "1/s"),
    ("sim_p50_s", "sim_s"),
    ("sim_p99_s", "sim_s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics other than the critical-path shares.
const LAYERS: [(&str, &str); 25] = [
    ("engine.events_per_order", "count"),
    ("engine.ns_per_event", "ns"),
    ("transport.msgs_per_order", "count"),
    ("transport.delivered_ratio", "ratio"),
    ("shop.create_us", "us"),
    ("shop.bids_per_order", "count"),
    ("shop.retransmits_per_order", "count"),
    ("shop.client_resubmits_per_order", "count"),
    ("shop.journal_len", "count"),
    ("shop.journal_overhead_pct", "%"),
    ("shop.recover_ms", "ms"),
    ("warehouse.lookup_us", "us"),
    ("warehouse.hit_ratio", "ratio"),
    ("warehouse.evictions", "count"),
    ("warehouse.dedup_ratio", "ratio"),
    ("nfs.fetches_per_order", "count"),
    ("nfs.fetched_gb", "GB"),
    ("plant.dedup_replays", "count"),
    ("plant.dedup_drops", "count"),
    ("xmlmsg.order_bytes", "bytes"),
    ("xmlmsg.encode_us", "us"),
    ("xmlmsg.decode_us", "us"),
    ("bidding.collect_us", "us"),
    ("obs.overhead_pct", "%"),
    ("obs.spans_per_order", "count"),
];

/// Critical-path phases (span names) whose share of the summed sim
/// order latency is reported as `critical_path.<phase>_share`.
const PHASES: [&str; 11] = [
    "order",
    "bid",
    "produce",
    "ppp",
    "rederive",
    "clone_disk",
    "copy_vmss",
    "resume",
    "guest_ready",
    "guest_script",
    "host_action",
];
/// Orders whose critical path is analyzed per traced pass (an even
/// stride over all orders; the analyzer scans every span per order).
const PATH_SAMPLE: usize = 300;

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            PHASES
                .iter()
                .map(|p| (format!("critical_path.{p}_share"), "sim_share")),
        )
        .collect()
}

/// Rounds of passes in `--trace 1` mode.
const LAYER_REPS: usize = 2;
/// Minimum untraced passes in `--trace 0` mode.
const MIN_REPS: usize = 3;
/// Minimum set-up samples behind `setup_s`.
const MIN_SETUPS: usize = 15;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints: metrics, human-readable notes and the gates.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    gates: Vec<(String, bool)>,
    attempted: usize,
    failed: usize,
}

impl Report {
    fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn gate(&mut self, name: impl Into<String>, ok: bool) {
        self.gates.push((name.into(), ok));
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.gates.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        for (name, ok) in &self.gates {
            println!("gate {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Host memory high-water mark of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Gates every pass must meet on its own.
fn gate_pass(report: &mut Report, label: &str, kind: Kind, o: &Outcome) {
    report.gate(
        format!("{label}: hung_orders = 0 (saw {})", o.hung()),
        o.hung() == 0,
    );
    report.gate(
        format!("{label}: no VMID on two plants (saw {})", o.duplicate_vms),
        o.duplicate_vms == 0,
    );
    report.gate(
        format!(
            "{label}: each order settles once (extra {})",
            o.double_settles
        ),
        o.double_settles == 0,
    );
    if kind != Kind::FaultStorm {
        report.gate(
            format!(
                "{label}: every VM destroyed (live {}, failed destroys {})",
                o.live_vms, o.destroy_failures
            ),
            o.live_vms == 0 && o.destroy_failures == 0,
        );
    }
}

/// Two passes of one seed produced byte-identical sim outputs.
fn gate_same(report: &mut Report, what: &str, a: &Outcome, b: &Outcome, counts: bool) {
    report.gate(
        format!("{what}: sim outputs identical"),
        a.digest == b.digest,
    );
    if counts {
        report.gate(
            format!("{what}: layer counts identical"),
            a.metrics == b.metrics,
        );
    }
}

fn e2e(args: &Args) -> Report {
    let plan = Plan::new(args.kind, args.seed);
    let mut report = Report::default();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut throughputs = Vec::new();
    let mut raw_throughputs = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut passes = 0;
    let mut repeats = true;
    while passes < MIN_REPS || started.elapsed() < budget {
        let prepared = prepare(&plan, Obs::disabled(), true);
        setups.push(prepared.nominal_setup_s());
        let (outcome, site) = run(prepared, &plan, false);
        drop(site);
        passes += 1;
        let settled = (outcome.attempted() - outcome.hung()) as f64;
        throughputs.push(settled / outcome.nominal_loop_s());
        raw_throughputs.push(settled / outcome.loop_s);
        report.attempted += outcome.attempted();
        report.failed += outcome.attempted() - outcome.successes();
        match &first {
            None => {
                gate_pass(&mut report, "pass 1", args.kind, &outcome);
                first = Some(outcome);
            }
            Some(f) => repeats &= f.digest == outcome.digest && f.metrics == outcome.metrics,
        }
    }
    let rss = peak_rss_mb();
    // Set-up is short next to a pass: top the samples up with set-ups
    // alone so its median rests on enough of them.
    while setups.len() < MIN_SETUPS {
        setups.push(prepare(&plan, Obs::disabled(), true).nominal_setup_s());
    }
    let first = first.expect("at least one pass");
    report.gate(
        format!("{passes} untraced passes: sim outputs and layer counts repeat exactly"),
        repeats,
    );
    if args.kind != Kind::FaultStorm {
        let (off, _) = run(prepare(&plan, Obs::disabled(), false), &plan, false);
        gate_same(&mut report, "journal on vs off", &first, &off, false);
    }

    let lat = first.latencies_ms();
    let n = lat.len();
    report.gate(
        format!("p99 has >= 10 samples beyond it (n = {n})"),
        n >= 1_000,
    );
    let (tq1, tq3) = quartiles(&throughputs);
    let (sq1, sq3) = quartiles(&setups);
    report.note(format!(
        "workload {} seed {}: {} orders per pass, {passes} passes in {:.1} s host",
        args.kind.name(),
        args.seed,
        first.attempted(),
        started.elapsed().as_secs_f64()
    ));
    report.note(format!(
        "orders_per_s (host, scaled to the reference probe): median {:.1} q1 {tq1:.1} \
         q3 {tq3:.1}; unscaled median {:.1}",
        median(&throughputs),
        median(&raw_throughputs)
    ));
    report.note(format!(
        "setup_s (host, scaled): median {:.4} q1 {sq1:.4} q3 {sq3:.4} over {} set-ups",
        median(&setups),
        setups.len()
    ));
    report.note(format!(
        "sim latency of successful orders (sim s): n = {n}, {}; {} beyond p99",
        [0.5, 0.9, 0.99]
            .map(|q| format!("p{} {:.3}", q * 100.0, percentile(&lat, q) as f64 / 1e3))
            .join(", "),
        n - (n as f64 * 0.99).ceil() as usize
    ));
    let values: BTreeMap<&str, f64> = [
        ("orders_per_s", median(&throughputs)),
        ("sim_p50_s", percentile(&lat, 0.50) as f64 / 1e3),
        ("sim_p99_s", percentile(&lat, 0.99) as f64 / 1e3),
        (
            "success_rate",
            first.successes() as f64 / first.attempted() as f64,
        ),
        ("peak_rss_mb", rss),
        ("setup_s", median(&setups)),
    ]
    .into_iter()
    .collect();
    for (name, unit) in END_TO_END {
        report.metric(name, unit, values[name]);
    }
    report
}

/// Sum of registry counters whose name starts with `prefix` and ends
/// with `suffix` (e.g. every plant's dedup counter).
fn counter_sum(metrics: &str, prefix: &str, suffix: &str) -> u64 {
    metrics
        .lines()
        .filter_map(|l| l.strip_prefix("counter "))
        .filter_map(|l| l.split_once(' '))
        .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

fn per_layer(args: &Args) -> Report {
    let plan = Plan::new(args.kind, args.seed);
    let orders = plan.arrivals.len() as f64;
    let mut report = Report::default();
    let account = |report: &mut Report, o: &Outcome| {
        report.attempted += o.attempted();
        report.failed += o.attempted() - o.successes();
    };

    // Rounds of an untraced, a traced and a journal-off pass, alternated
    // so each comparison sees the same machine state. The benchmark times
    // every create call. After an untraced pass has been captured, its
    // quiesced shop is crashed and the recover() call timed. Counts and
    // critical paths come from the first traced pass's registry and
    // spans; every traced pass must reproduce the untraced sim outputs.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut journal_off = Vec::new();
    let mut recover_ms = Vec::new();
    let mut traced_site = None;
    for _ in 0..LAYER_REPS {
        let (o, mut site) = run(prepare(&plan, Obs::disabled(), true), &plan, true);
        site.shop.crash(&mut site.engine);
        let t0 = Instant::now();
        std::hint::black_box(site.shop.recover(&mut site.engine));
        recover_ms.push(reference::nominal(
            t0.elapsed().as_secs_f64() * 1e3,
            &o.probes,
        ));
        drop(site);
        untraced.push(o);

        let obs = Obs::enabled();
        let (o, site) = run(prepare(&plan, obs.clone(), true), &plan, true);
        traced.push(o);
        traced_site.get_or_insert((site, obs));

        journal_off.push(run(prepare(&plan, Obs::disabled(), false), &plan, true).0);
    }
    for o in untraced.iter().chain(&traced).chain(&journal_off) {
        account(&mut report, o);
    }
    let base = &untraced[0];
    gate_pass(&mut report, "untraced", args.kind, base);
    gate_pass(&mut report, "traced", args.kind, &traced[0]);
    for (i, o) in untraced.iter().enumerate().skip(1) {
        gate_same(
            &mut report,
            &format!("untraced pass {} vs 1", i + 1),
            base,
            o,
            true,
        );
    }
    for (i, o) in traced.iter().enumerate() {
        gate_same(
            &mut report,
            &format!("traced pass {} vs untraced", i + 1),
            base,
            o,
            true,
        );
    }
    // Without the journal a shop crash loses its in-flight orders, so
    // only fault-free workloads must match.
    if args.kind != Kind::FaultStorm {
        report.gate(
            "journal on vs off: sim outputs identical",
            journal_off.iter().all(|o| o.digest == base.digest),
        );
    }
    let nominal_loop = |passes: &[Outcome]| {
        median(
            &passes
                .iter()
                .map(Outcome::nominal_loop_s)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_loop = nominal_loop(&untraced);
    let traced_loop = nominal_loop(&traced);
    let off_loop = nominal_loop(&journal_off);
    let (site, obs) = traced_site.expect("at least one round");
    let traced = &traced[0];

    let replays = layers::replay(&plan);
    report.gate(
        format!(
            "xmlmsg round trip ({} mismatches)",
            replays.roundtrip_mismatches
        ),
        replays.roundtrip_mismatches == 0,
    );
    report.gate(
        format!(
            "bidding replay: every plant bids ({} short)",
            replays.short_bids
        ),
        replays.short_bids == 0,
    );
    report.gate(
        format!(
            "warehouse replay: every order matches a golden ({} missed)",
            replays.lookup_misses
        ),
        replays.lookup_misses == 0,
    );

    let count = |name: &str| obs.counter_value(name).unwrap_or(0) as f64;
    let create_us = median(
        &untraced
            .iter()
            .map(|o| {
                let mean_us =
                    o.create_ns.iter().sum::<u64>() as f64 / o.create_ns.len().max(1) as f64 / 1e3;
                reference::nominal(mean_us, &o.probes)
            })
            .collect::<Vec<_>>(),
    );
    let ns_per_event = median(
        &untraced
            .iter()
            .map(|o| o.nominal_loop_s() * 1e9 / o.events as f64)
            .collect::<Vec<_>>(),
    );
    let lookups = count("warehouse.lookups");
    let sent = count("transport.sent");
    let values: BTreeMap<&str, f64> = [
        ("engine.events_per_order", traced.events as f64 / orders),
        ("engine.ns_per_event", ns_per_event),
        ("transport.msgs_per_order", sent / orders),
        (
            "transport.delivered_ratio",
            count("transport.delivered") / sent.max(1.0),
        ),
        ("shop.create_us", create_us),
        ("shop.bids_per_order", count("shop.bids_requested") / orders),
        (
            "shop.retransmits_per_order",
            count("shop.retransmits") / orders,
        ),
        (
            "shop.client_resubmits_per_order",
            traced.client_resubmits as f64 / orders,
        ),
        ("shop.journal_len", site.shop.journal_len() as f64),
        (
            "shop.journal_overhead_pct",
            (untraced_loop / off_loop - 1.0) * 100.0,
        ),
        ("shop.recover_ms", median(&recover_ms)),
        ("warehouse.lookup_us", replays.lookup_us),
        (
            "warehouse.hit_ratio",
            1.0 - count("warehouse.rederives") / lookups.max(1.0),
        ),
        ("warehouse.evictions", count("warehouse.evictions")),
        (
            "warehouse.dedup_ratio",
            site.warehouse.borrow().dedup_factor(),
        ),
        ("nfs.fetches_per_order", count("nfs.fetches") / orders),
        ("nfs.fetched_gb", count("nfs.fetched_bytes") / 1e9),
        (
            "plant.dedup_replays",
            counter_sum(&traced.metrics, "plant.", ".dedup_replays") as f64,
        ),
        (
            "plant.dedup_drops",
            counter_sum(&traced.metrics, "plant.", ".dedup_drops") as f64,
        ),
        ("xmlmsg.order_bytes", replays.order_bytes),
        ("xmlmsg.encode_us", replays.encode_us),
        ("xmlmsg.decode_us", replays.decode_us),
        ("bidding.collect_us", replays.collect_us),
        (
            "obs.overhead_pct",
            (traced_loop / untraced_loop - 1.0) * 100.0,
        ),
        ("obs.spans_per_order", obs.span_count() as f64 / orders),
    ]
    .into_iter()
    .collect();

    // Sim-time critical paths of an even sample of the orders, summed
    // per phase.
    let mut phase_ms: BTreeMap<String, u64> = BTreeMap::new();
    let roots = obs.spans_named("order");
    let stride = roots.len().div_ceil(PATH_SAMPLE).max(1);
    for &root in roots.iter().step_by(stride) {
        if let Some(path) = obs.critical_path(root) {
            for (name, d) in path.phase_totals() {
                *phase_ms.entry(name).or_insert(0) += d.as_millis();
            }
        }
    }
    let total_ms = phase_ms.values().sum::<u64>().max(1) as f64;
    report.note(format!(
        "workload {} seed {}: {} orders per pass; {LAYER_REPS} rounds of an untraced, a \
         traced and a journal-off pass, then 1 replay",
        args.kind.name(),
        args.seed,
        plan.arrivals.len()
    ));
    report.note(format!(
        "traced pass overhead: {:.1}% host time ({:.3} s traced vs {:.3} s untraced median, \
         scaled), {} spans",
        (traced_loop / untraced_loop - 1.0) * 100.0,
        traced_loop,
        untraced_loop,
        obs.span_count()
    ));
    for (phase, ms) in &phase_ms {
        report.note(format!(
            "critical path phase {phase}: {:.4} of {:.0} sim s over {} sampled orders",
            *ms as f64 / total_ms,
            total_ms / 1e3,
            roots.len().div_ceil(stride)
        ));
    }
    for (name, unit) in per_layer_names() {
        let value = match name
            .strip_prefix("critical_path.")
            .and_then(|p| p.strip_suffix("_share"))
        {
            Some(phase) => phase_ms.get(phase).copied().unwrap_or(0) as f64 / total_ms,
            None => values[name.as_str()],
        };
        report.metric(&name, unit, value);
    }
    report
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        e2e(&args)
    };
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one `BENCHMARK.json` section, read with a
    /// plain scan (the benchmark has no JSON dependency).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| -> Option<String> {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = rest[open..].find('"')?;
            Some(rest[open..open + close].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").unwrap(),
                    field(obj, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    }
}
