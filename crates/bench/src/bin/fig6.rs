//! E3 / Figure 6: cloning time as a function of the VM sequence number —
//! the load effect as plants fill up (16 x 64 MB or 5 x 256 MB per node).

use vmplants::experiments::{fig6, paper_runs};
use vmplants_bench::seed_from_args;

fn main() {
    let seed = seed_from_args();
    println!("# Figure 6 — cloning time vs sequence number (seed {seed})");
    println!("# paper: 32 MB flat; 64 MB and 256 MB rise as hosts exceed ~1 GB committed\n");
    let runs = paper_runs(seed);
    for (mem, series) in fig6(&runs) {
        println!("{}", series.render(&format!("{mem} MB golden"), "seq#", "clone (s)"));
        let n = series.points().len();
        println!(
            "  first-quartile mean {:.1}s | last-quartile mean {:.1}s | slope {:+.3} s/request\n",
            series.mean_y_in(1.0, (n / 4).max(1) as f64),
            series.mean_y_in((3 * n / 4) as f64, n as f64),
            series.slope().unwrap_or(0.0)
        );
    }
}
