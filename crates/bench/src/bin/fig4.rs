//! E1 / Figure 4: distribution of end-to-end VM creation latencies for
//! 32/64/256 MB golden machines (128/128/40 sequential requests over 8
//! plants), plus the E8 headline numbers.

use vmplants::experiments::{fig4, headline, paper_runs};
use vmplants_bench::seed_from_args;

fn main() {
    let seed = seed_from_args();
    println!("# Figure 4 — normalized frequency of creation latency (seed {seed})");
    println!("# paper: averages 25-48 s; range 17-85 s; larger memory -> larger latency\n");
    let runs = paper_runs(seed);
    for (mem, hist) in fig4(&runs) {
        println!("{}", hist.render(&format!("{mem} MB golden ({} VMs)", hist.total())));
    }
    let h = headline(&runs);
    println!("headline (E8): range {:.0}-{:.0} s; averages:", h.min_s, h.max_s);
    for (mem, mean) in h.means {
        println!("  {mem:>4} MB  {mean:>6.1} s");
    }
}
