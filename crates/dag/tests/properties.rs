//! Seeded property tests for DAG invariants and the §3.2 matching-test
//! algebra. Every case is drawn from `SimRng` over a fixed seed range, so
//! each run checks the same random DAGs and execution prefixes.

use std::collections::{BTreeSet, HashMap, HashSet};
use vmplants_dag::xml::{dag_from_xml, dag_to_xml};
use vmplants_dag::{
    match_image, Action, ActionBody, CompiledDag, ConfigDag, InternedLog, MatchFailure,
    PerformedLog, SigInterner,
};
use vmplants_simkit::SimRng;

/// Cases per property: one `SimRng` seed each.
const SEEDS: std::ops::Range<u64> = 0..256;

/// A random DAG of 2–11 nodes. Edges run only from lower to higher
/// insertion index, so the DAG is acyclic at generation time (insertion
/// still re-checks). They are added in the random order drawn, not
/// grouped by source; a repeated draw is skipped.
fn random_dag(rng: &mut SimRng) -> ConfigDag {
    let n = 2 + rng.index(10);
    let mut dag = ConfigDag::new();
    for i in 0..n {
        dag.add_action(Action::guest(format!("n{i}"), format!("op-{i}")))
            .unwrap();
    }
    let mut seen = BTreeSet::new();
    for _ in 0..rng.index(2 * n) {
        let (a, b) = (rng.index(n), rng.index(n));
        if a < b && seen.insert((a, b)) {
            dag.add_edge(&format!("n{a}"), &format!("n{b}")).unwrap();
        }
    }
    dag
}

/// A valid execution prefix of up to `len` actions: repeatedly perform a
/// random ready node.
fn valid_prefix(dag: &ConfigDag, rng: &mut SimRng, len: usize) -> PerformedLog {
    let mut done: HashSet<String> = HashSet::new();
    let mut log = Vec::new();
    for _ in 0..len {
        let ready: Vec<&Action> = dag
            .actions()
            .filter(|a| {
                !done.contains(&a.id)
                    && dag
                        .predecessors(&a.id)
                        .unwrap()
                        .iter()
                        .all(|p| done.contains(*p))
            })
            .collect();
        if ready.is_empty() {
            break;
        }
        let pick = ready[rng.index(ready.len())].clone();
        done.insert(pick.id.clone());
        log.push(pick);
    }
    PerformedLog::from_actions(log)
}

/// Position of each id in `order`.
fn positions<S: AsRef<str>>(order: &[S]) -> HashMap<&str, usize> {
    order
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_ref(), i))
        .collect()
}

/// Topological sort places every edge source before its target and
/// contains each node exactly once.
#[test]
fn topo_sort_is_valid() {
    for seed in SEEDS {
        let dag = random_dag(&mut SimRng::seed_from_u64(seed));
        let order = dag.topo_sort().unwrap();
        assert_eq!(order.len(), dag.actions().count(), "seed {seed}");
        let pos = positions(&order);
        assert_eq!(pos.len(), order.len(), "seed {seed}: duplicate node");
        for (from, to) in dag.edges() {
            assert!(pos[from] < pos[to], "seed {seed}: {from} -> {to}");
        }
    }
}

/// Any valid execution prefix passes all three matching tests, the
/// matched and residual sets partition the DAG, and the residual order is
/// itself topologically valid.
#[test]
fn valid_prefixes_always_match() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let len = rng.index(12);
        let log = valid_prefix(&dag, &mut rng, len);
        let report = match_image(&dag, &log)
            .unwrap_or_else(|e| panic!("seed {seed}: valid prefix failed: {e}"));
        assert_eq!(report.matched.len(), log.len(), "seed {seed}");
        assert_eq!(
            report.matched.len() + report.residual.len(),
            dag.actions().count(),
            "seed {seed}"
        );
        let matched: HashSet<&usize> = report.matched.iter().collect();
        assert!(
            report.residual.iter().all(|r| !matched.contains(r)),
            "seed {seed}: a node is both matched and residual"
        );
        let residual = dag.labels(&report.residual);
        let pos = positions(&residual);
        for (from, to) in dag.edges() {
            if let (Some(&f), Some(&t)) = (pos.get(from), pos.get(to)) {
                assert!(f < t, "seed {seed}: residual puts {to} before {from}");
            }
        }
    }
}

/// Appending a foreign operation to any log breaks the Subset test.
#[test]
fn foreign_operation_fails_subset() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let len = rng.index(8);
        let mut log = valid_prefix(&dag, &mut rng, len);
        log.push(Action::guest("alien", "operation-not-in-any-dag"));
        let err = match_image(&dag, &log).unwrap_err();
        assert!(
            matches!(err, MatchFailure::NotSubset { .. }),
            "seed {seed}: got {err:?}"
        );
    }
}

/// Swapping the first DAG-ordered pair of a valid log breaks the
/// Partial-Order test (or the Prefix test, never success).
#[test]
fn order_violations_are_caught() {
    let mut swaps = 0;
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let len = 2 + rng.index(10);
        let mut actions = valid_prefix(&dag, &mut rng, len).actions().to_vec();
        let pair = (0..actions.len())
            .flat_map(|i| ((i + 1)..actions.len()).map(move |j| (i, j)))
            .find(|&(i, j)| dag.has_path(&actions[i].id, &actions[j].id).unwrap());
        let Some((i, j)) = pair else { continue };
        actions.swap(i, j);
        swaps += 1;
        let err = match_image(&dag, &PerformedLog::from_actions(actions)).unwrap_err();
        assert!(
            matches!(
                err,
                MatchFailure::OrderViolation { .. } | MatchFailure::NotPrefix { .. }
            ),
            "seed {seed}: got {err:?}"
        );
    }
    assert!(
        swaps > SEEDS.end / 4,
        "only {swaps} logs had an ordered pair"
    );
}

/// Dropping an entry with a matched descendant from a valid log breaks
/// the Prefix test.
#[test]
fn gaps_fail_prefix() {
    let mut gaps = 0;
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let len = 2 + rng.index(10);
        let actions = valid_prefix(&dag, &mut rng, len).actions().to_vec();
        for (drop_idx, dropped) in actions.iter().enumerate() {
            if !actions
                .iter()
                .any(|a| dag.has_path(&dropped.id, &a.id).unwrap())
            {
                continue;
            }
            let mut v = actions.clone();
            v.remove(drop_idx);
            gaps += 1;
            let err = match_image(&dag, &PerformedLog::from_actions(v)).unwrap_err();
            assert!(
                matches!(err, MatchFailure::NotPrefix { .. }),
                "seed {seed}, dropped {}: got {err:?}",
                dropped.id
            );
        }
    }
    assert!(gaps > SEEDS.end / 4, "only {gaps} gaps were tried");
}

/// A valid prefix of `dag`, then maybe broken by an order swap, a gap, a
/// foreign operation or a duplicated signature.
fn mutated_log(dag: &ConfigDag, rng: &mut SimRng) -> PerformedLog {
    let len = rng.index(12);
    let mut actions = valid_prefix(dag, rng, len).actions().to_vec();
    match rng.index(5) {
        1 if actions.len() >= 2 => {
            let n = actions.len();
            actions.swap(0, n - 1);
        }
        2 if !actions.is_empty() => {
            actions.remove(0);
        }
        3 => actions.push(Action::guest("alien", "operation-not-in-any-dag")),
        4 if !actions.is_empty() => {
            let dup = actions[0].clone();
            actions.push(dup);
        }
        _ => {}
    }
    PerformedLog::from_actions(actions)
}

/// The interned/compiled matcher is observationally identical to the
/// naive three-test path: the same index-form report on valid prefixes
/// and the same `MatchFailure` on logs with an order swap, a gap, a
/// foreign operation or a duplicated signature — compiled read-only
/// against the log's signatures alone, and against an interner that also
/// holds the DAG's. A report's node indices name the log's actions in
/// performed order, and the rest of the DAG in `topo_sort` order.
#[test]
fn compiled_matching_equals_naive() {
    let mut failures = 0;
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let log = mutated_log(&dag, &mut rng);
        let naive = match_image(&dag, &log);
        let mut interner = SigInterner::new();
        let interned = InternedLog::from_log(&log, &mut interner);
        let readonly =
            CompiledDag::compile_readonly(&dag, &interner).match_log(&interned, &interner);
        assert_eq!(naive, readonly, "seed {seed}");
        let compiled = CompiledDag::compile(&dag, &mut interner);
        let fast = compiled.match_log(&interned, &interner);
        assert_eq!(naive, fast, "seed {seed}");
        match naive {
            Err(_) => failures += 1,
            Ok(report) => {
                let performed: Vec<&str> = log.actions().iter().map(|a| a.id.as_str()).collect();
                assert_eq!(dag.labels(&report.matched), performed, "seed {seed}");
                let rest: Vec<String> = dag
                    .topo_sort()
                    .unwrap()
                    .into_iter()
                    .filter(|id| !performed.contains(&id.as_str()))
                    .collect();
                assert_eq!(dag.labels(&report.residual), rest, "seed {seed}");
            }
        }
    }
    assert!(failures > 0 && failures < SEEDS.end as usize);
}

/// Sharing is invisible to matching. A log whose actions share their
/// bodies with the DAG's nodes and one holding separate copies of them
/// intern to the same ids, a borrowed signature finds the id its owned
/// copy was interned under, and the compiled matcher gives both logs the
/// naive path's answer.
#[test]
fn compiled_matching_is_the_same_on_shared_and_copied_actions() {
    for seed in SEEDS {
        let mut rng = SimRng::seed_from_u64(seed);
        let dag = random_dag(&mut rng);
        let shared = mutated_log(&dag, &mut rng);
        let copied: PerformedLog = shared
            .actions()
            .iter()
            .map(|a| Action::from(ActionBody::clone(a)))
            .collect();
        assert_eq!(shared, copied, "seed {seed}");
        let mut interner = SigInterner::new();
        let shared_ids = InternedLog::from_log(&shared, &mut interner);
        for (action, &id) in copied.actions().iter().zip(shared_ids.ids()) {
            assert_eq!(interner.get(action.sig_ref()), Some(id), "seed {seed}");
            assert_eq!(interner.resolve(id), &action.signature(), "seed {seed}");
        }
        let copied_ids = InternedLog::from_log(&copied, &mut interner);
        assert_eq!(shared_ids, copied_ids, "seed {seed}");
        let naive = match_image(&dag, &copied);
        let compiled = CompiledDag::compile_readonly(&dag, &interner);
        assert_eq!(
            compiled.match_log(&shared_ids, &interner),
            naive,
            "seed {seed}"
        );
        assert_eq!(
            compiled.match_log(&copied_ids, &interner),
            naive,
            "seed {seed}"
        );
    }
}

/// XML round-trip is the identity on DAGs.
#[test]
fn xml_round_trip() {
    for seed in SEEDS {
        let dag = random_dag(&mut SimRng::seed_from_u64(seed));
        let text = dag_to_xml(&dag).to_xml();
        let parsed = vmplants_xmlmsg::parse(&text).unwrap();
        let decoded = dag_from_xml(&parsed).unwrap();
        assert_eq!(dag, decoded, "seed {seed}: {text}");
    }
}
