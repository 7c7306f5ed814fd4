//! # vmplants-bench — evaluation regeneration
//!
//! One binary per paper artifact (run with `cargo run -p vmplants-bench
//! --bin <name> --release`):
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig4` | Figure 4 — creation-latency distributions (E1) + headline E8 |
//! | `fig5` | Figure 5 — cloning-latency distributions (E2) |
//! | `fig6` | Figure 6 — cloning time vs sequence number (E3) |
//! | `copy_vs_clone` | §4.3's 210 s full-copy baseline (E4) |
//! | `uml_boot` | §4.3's 76 s UML clone-and-boot average (E5) |
//! | `cost_function` | §3.4's worked bidding example (E6) |
//! | `runtime_overhead` | §4.3's quoted run-time overheads (E9) |
//! | `full_report` | everything above in one text report |
//! | `ablations` | the E10–E15 ablation tables |
//!
//! Host-time performance is measured by the separate `perfbench` package
//! (the order-lifecycle benchmark), not by these binaries.

/// Shared seed so every harness regenerates the same report by default.
pub const DEFAULT_SEED: u64 = 2004;

/// Parse an optional `--seed N` from argv (the harnesses accept it so
/// reviewers can probe seed sensitivity).
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(DEFAULT_SEED)
}
