//! The Figure 3 walk-through: the In-VIGO virtual-workspace configuration
//! DAG, the warehouse cached description, the three matching tests, and
//! the resulting clone + residual-configuration plan (experiment E7).
//!
//! ```text
//! cargo run --example invigo_workspace
//! ```

use vmplants::{SimSite, SiteConfig};
use vmplants_dag::graph::invigo_workspace_dag;
use vmplants_dag::{match_image, MatchFailure, PerformedLog};
use vmplants_virt::VmSpec;

fn main() {
    // 1. The client-specified DAG (Figure 3, step 1).
    let dag = invigo_workspace_dag("arijit");
    println!("client-specified configuration DAG:");
    for action in dag.actions() {
        println!(
            "  {}: {} [{}]",
            action.id,
            action.command,
            action.kind
        );
    }
    println!("edges: {:?}", dag.edges());
    println!("topological sort: {:?}\n", dag.topo_sort().unwrap());

    // 2. The VM Warehouse cached description (Figure 3, step 2): a golden
    // machine with S -> A B C D E F already performed.
    let cached: PerformedLog = ["A", "B", "C", "D", "E", "F"]
        .iter()
        .map(|id| dag.action(id).unwrap().clone())
        .collect();
    println!(
        "warehouse cached description: {:?}",
        cached.actions().iter().map(|a| a.id.as_str()).collect::<Vec<_>>()
    );

    // 3. The three matching tests (Figure 3, step 3).
    let report = match_image(&dag, &cached).expect("Figure 3's image matches");
    println!("subset test ........ pass (no foreign operations)");
    println!("prefix test ........ pass (downward-closed under the DAG)");
    println!("partial-order test . pass (log order consistent with DAG)");
    println!(
        "matched {} actions; residual (steps 4-5): {:?}\n",
        report.score(),
        dag.labels(&report.residual)
    );

    // Counter-examples: each test failing in isolation.
    let mut foreign = cached.clone();
    foreign.push(vmplants_dag::Action::guest("X", "install-matlab"));
    show_failure("image with extra operation", &dag, &foreign);

    let gap: PerformedLog = ["A", "B", "D"]
        .iter()
        .map(|id| dag.action(id).unwrap().clone())
        .collect();
    show_failure("image missing predecessor C of D", &dag, &gap);

    let inverted: PerformedLog = ["B", "A"]
        .iter()
        .map(|id| dag.action(id).unwrap().clone())
        .collect();
    show_failure("image with B performed before A", &dag, &inverted);

    // 4-5. The PPP in action: create the workspace on the simulated site.
    // The published goldens carry the user-independent base (A, B, C), so
    // the clone executes D..I for this user.
    let mut site = SimSite::build(SiteConfig::default());
    let ad = site
        .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("arijit"))
        .expect("workspace created");
    println!("\nworkspace instantiated through VMShop:");
    println!(
        "  vmid={} golden={} ip={} vnc output={}",
        ad.eval("vmid"),
        ad.eval("golden_id"),
        ad.eval("ip_address"),
        ad.eval("vnc_port"),
    );
    println!(
        "  clone {:.1}s + residual configuration {:.1}s = {:.1}s end-to-end",
        ad.get_f64("clone_s").unwrap(),
        ad.get_f64("config_s").unwrap(),
        ad.get_f64("create_s").unwrap(),
    );
}

fn show_failure(label: &str, dag: &vmplants_dag::ConfigDag, log: &PerformedLog) {
    let err: MatchFailure = match_image(dag, log).unwrap_err();
    println!("{label}: rejected — {err}");
}
