//! E2 / Figure 5: distribution of VM cloning latencies (PPP clone request
//! to resume completion), 5-second bins.

use vmplants::experiments::{fig5, paper_runs};
use vmplants_bench::seed_from_args;

fn main() {
    let seed = seed_from_args();
    println!("# Figure 5 — normalized frequency of cloning latency (seed {seed})");
    println!("# paper: 32 MB mode ~10 s; 64 MB ~15 s; 256 MB spread 35-70 s, avg ~210/4 s\n");
    let runs = paper_runs(seed);
    for (mem, hist) in fig5(&runs) {
        println!("{}", hist.render(&format!("{mem} MB golden")));
    }
}
