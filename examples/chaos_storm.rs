//! Chaos storm: replay a Figure-4-style creation workload while hosts
//! crash and reboot, the NFS warehouse path browns out, shop↔plant
//! messages are lost, duplicated, reordered and partitioned, and the
//! shop itself crashes and recovers from its order journal — all nine
//! fault kinds, loaded from the committed scenario file
//! `scenarios/chaos_storm.xml` instead of a hand-built plan. A second
//! storm (`scenarios/transport_storm.xml`) hammers the transport alone
//! and prints the E18 sweep: order success rate and added latency vs
//! drop/duplication probability.
//!
//! ```text
//! cargo run --example chaos_storm [-- --out DIR]
//! ```
//!
//! The runs are deterministic: the same scenario and seed always produce
//! a byte-identical trace and report (the example re-runs the first
//! storm to prove it). The Chrome trace and metrics snapshot are written
//! under `--out` (default `target/`), never into the repo root.

use vmplants::chaos::{run_chaos, run_chaos_with_obs};
use vmplants::experiments::{render_transport_sweep, transport_sweep};
use vmplants::scenario::Scenario;
use vmplants_simkit::Obs;

fn load_scenario(name: &str) -> Scenario {
    let path = format!("{}/../../scenarios/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("read scenario file");
    Scenario::from_xml(&text).expect("parse scenario file")
}

fn out_dir() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    let mut dir = std::path::PathBuf::from("target");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => dir = args.next().expect("--out needs a directory").into(),
            other => panic!("unknown argument {other}; usage: chaos_storm [--out DIR]"),
        }
    }
    dir
}

fn main() {
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create output directory");

    // Storm 1: every fault kind at once. The scenario file carries the
    // workload, the eight-fault plan and the tightened attempt timeout.
    let storm = load_scenario("chaos_storm.xml");
    let config = storm.compile().expect("compile scenario");
    println!(
        "-- {} ({} requests, {} pinned faults) --",
        storm.name,
        storm.total_requests(),
        storm.plan.scheduled.len()
    );
    let report = run_chaos(&config);
    print!("{}", report.render());

    // Same scenario, same bytes — robustness regressions show up as diffs.
    let again = run_chaos(&storm.compile().expect("compile scenario"));
    println!(
        "\ndeterministic replay: {}",
        if again.render() == report.render() {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    // Storm 2: transport-only — every shop↔plant message rides the
    // unreliable fabric under whole-run drop/dup/reorder windows plus a
    // 30 s one-way partition of node2. This is the same scenario the
    // committed chaos_transport_seed42 fixture pins.
    let transport = load_scenario("transport_storm.xml");
    let transport_config = transport.compile().expect("compile scenario");
    println!("\n-- {} (drop 0.3, dup 0.2, reorder 0.3) --", transport.name);
    print!("{}", run_chaos(&transport_config).render_full());

    println!();
    print!("{}", render_transport_sweep(&transport_sweep(11, 12)));

    // Replay the transport storm with tracing enabled and export a
    // Chrome trace_event file — load it at https://ui.perfetto.dev (or
    // chrome://tracing) to see every order, retransmit and production
    // phase on the sim-time axis. Tracing never perturbs the run: the
    // report is byte-identical to the untraced storm above. Both the
    // trace and the metrics snapshot land under the --out directory.
    let (traced_report, site) = run_chaos_with_obs(&transport_config, Obs::enabled());
    assert_eq!(
        traced_report.render_full(),
        run_chaos(&transport_config).render_full(),
        "tracing perturbed the storm"
    );
    let trace_path = out.join("chaos_storm_trace.json");
    std::fs::write(&trace_path, site.obs.chrome_trace()).expect("write Chrome trace");
    let metrics_path = out.join("chaos_storm_metrics.txt");
    std::fs::write(&metrics_path, site.obs.metrics_text()).expect("write metrics snapshot");
    println!(
        "\ntraced replay: {} spans recorded, Chrome trace written to {}",
        site.obs.span_count(),
        trace_path.display()
    );
    println!("metrics snapshot (also at {}):\n{}", metrics_path.display(), site.obs.metrics_text());
}
