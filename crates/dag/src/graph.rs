//! The configuration DAG.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use crate::action::Action;

/// Errors from DAG construction and queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// Two actions share a node label.
    DuplicateId(String),
    /// An edge references an unknown node label.
    UnknownNode(String),
    /// Adding the edge would create a cycle (the configuration order must
    /// be a partial order).
    WouldCycle { from: String, to: String },
    /// The same edge was added twice.
    DuplicateEdge { from: String, to: String },
    /// A self-loop was requested.
    SelfLoop(String),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateId(id) => write!(f, "duplicate action id '{id}'"),
            DagError::UnknownNode(id) => write!(f, "unknown action id '{id}'"),
            DagError::WouldCycle { from, to } => {
                write!(f, "edge {from} -> {to} would create a cycle")
            }
            DagError::DuplicateEdge { from, to } => {
                write!(f, "edge {from} -> {to} already present")
            }
            DagError::SelfLoop(id) => write!(f, "self-loop on '{id}'"),
        }
    }
}

impl std::error::Error for DagError {}

/// A configuration DAG over [`Action`] nodes.
///
/// The paper's START and FINISH nodes are implicit here: every node with no
/// predecessors is an (implicit) successor of START, and every node with no
/// successors precedes FINISH. Acyclicity is enforced *on every edge
/// insertion*, so a `ConfigDag` value is a DAG by construction.
///
/// The graph is copy-on-write: an order's DAG rides every hop of the
/// order path (envelope, retransmission, dedup entry, journal), and each
/// clone shares one graph until a mutation copies it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigDag {
    graph: Rc<Graph>,
}

#[derive(Clone, Debug, Default)]
struct Graph {
    // Insertion-ordered node storage; indices are stable.
    nodes: Vec<Action>,
    index: HashMap<String, usize>,
    // Adjacency by node index, in edge-insertion order.
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

/// Nodes compare in insertion order, edges as a set: two graphs whose
/// edges were added in different orders are equal (`dag_to_xml` writes
/// edges grouped by source). `index` and `preds` follow from `nodes`
/// and `succs`, and no list holds an edge twice.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.nodes == other.nodes
            && self
                .succs
                .iter()
                .zip(&other.succs)
                .all(|(a, b)| a.len() == b.len() && a.iter().all(|to| b.contains(to)))
    }
}

impl ConfigDag {
    /// An empty DAG.
    pub fn new() -> Self {
        ConfigDag::default()
    }

    /// Number of action nodes.
    pub(crate) fn len(&self) -> usize {
        self.graph.nodes.len()
    }

    /// Add an action node.
    pub fn add_action(&mut self, action: Action) -> Result<(), DagError> {
        if self.graph.index.contains_key(&action.id) {
            return Err(DagError::DuplicateId(action.id.clone()));
        }
        let g = Rc::make_mut(&mut self.graph);
        g.index.insert(action.id.clone(), g.nodes.len());
        g.nodes.push(action);
        g.succs.push(Vec::new());
        g.preds.push(Vec::new());
        Ok(())
    }

    /// Add an ordering edge `from -> to` (the `from` action must complete
    /// before `to` starts). Rejects unknown labels, duplicates, self-loops,
    /// and cycles.
    pub fn add_edge(&mut self, from: &str, to: &str) -> Result<(), DagError> {
        if from == to {
            return Err(DagError::SelfLoop(from.to_owned()));
        }
        let fi = self.idx(from)?;
        let ti = self.idx(to)?;
        if self.graph.succs[fi].contains(&ti) {
            return Err(DagError::DuplicateEdge {
                from: from.to_owned(),
                to: to.to_owned(),
            });
        }
        // Cycle check: a path to -> ... -> from must not already exist.
        if self.reaches(ti, fi) {
            return Err(DagError::WouldCycle {
                from: from.to_owned(),
                to: to.to_owned(),
            });
        }
        let g = Rc::make_mut(&mut self.graph);
        g.succs[fi].push(ti);
        g.preds[ti].push(fi);
        Ok(())
    }

    /// Convenience: chain a sequence of already-added actions.
    pub fn chain(&mut self, ids: &[&str]) -> Result<(), DagError> {
        for pair in ids.windows(2) {
            self.add_edge(pair[0], pair[1])?;
        }
        Ok(())
    }

    /// Look up an action by label.
    pub fn action(&self, id: &str) -> Option<&Action> {
        self.graph.index.get(id).map(|&i| &self.graph.nodes[i])
    }

    /// The action at node index `node`: nodes are numbered in insertion
    /// order, the form a [`crate::MatchReport`] names them in.
    ///
    /// # Panics
    ///
    /// Panics if the DAG has no node `node`.
    pub fn action_at(&self, node: usize) -> &Action {
        &self.graph.nodes[node]
    }

    /// The labels of the nodes `nodes`, in their order.
    pub fn labels(&self, nodes: &[usize]) -> Vec<&str> {
        nodes
            .iter()
            .map(|&node| self.action_at(node).id.as_str())
            .collect()
    }

    /// All actions in insertion order.
    pub fn actions(&self) -> impl Iterator<Item = &Action> {
        self.graph.nodes.iter()
    }

    /// All edges as `(from_id, to_id)` pairs, ordered by source insertion.
    pub fn edges(&self) -> Vec<(&str, &str)> {
        let mut out = Vec::new();
        let nodes = &self.graph.nodes;
        for (fi, succs) in self.graph.succs.iter().enumerate() {
            for &ti in succs {
                out.push((nodes[fi].id.as_str(), nodes[ti].id.as_str()));
            }
        }
        out
    }

    /// Direct predecessors of a node.
    pub fn predecessors(&self, id: &str) -> Result<Vec<&str>, DagError> {
        let i = self.idx(id)?;
        Ok(self.graph.preds[i]
            .iter()
            .map(|&p| self.graph.nodes[p].id.as_str())
            .collect())
    }

    /// All ancestors (transitive predecessors) of a node.
    pub(crate) fn ancestors(&self, id: &str) -> Result<BTreeSet<String>, DagError> {
        let i = self.idx(id)?;
        let mut seen = HashSet::new();
        let mut stack = self.graph.preds[i].clone();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend_from_slice(&self.graph.preds[n]);
            }
        }
        Ok(seen
            .into_iter()
            .map(|n| self.graph.nodes[n].id.clone())
            .collect())
    }

    /// True if there is a directed path `from -> … -> to` of length at
    /// least one (a node never has a path to itself: the graph is acyclic).
    pub fn has_path(&self, from: &str, to: &str) -> Result<bool, DagError> {
        let fi = self.idx(from)?;
        let ti = self.idx(to)?;
        Ok(fi != ti && self.reaches(fi, ti))
    }

    /// Deterministic topological order of action labels (Kahn's algorithm;
    /// ties broken by node insertion order, so equal DAGs sort equally).
    ///
    /// Returns `Err` only if internal invariants were violated; by
    /// construction the graph is acyclic, so this is effectively total.
    pub fn topo_sort(&self) -> Result<Vec<String>, DagError> {
        let mut indegree: Vec<usize> = self.graph.preds.iter().map(Vec::len).collect();
        // BTreeSet over insertion indices gives deterministic tie-breaks.
        let mut ready: BTreeSet<usize> = indegree
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.graph.nodes.len());
        while let Some(&n) = ready.iter().next() {
            ready.remove(&n);
            order.push(self.graph.nodes[n].id.clone());
            for &s in &self.graph.succs[n] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.insert(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.graph.nodes.len(), "cycle slipped through");
        Ok(order)
    }

    // Raw index-level views for the compiled matching path (`crate::intern`).
    pub(crate) fn nodes_raw(&self) -> &[Action] {
        &self.graph.nodes
    }

    pub(crate) fn preds_raw(&self) -> &[Vec<usize>] {
        &self.graph.preds
    }

    pub(crate) fn succs_raw(&self) -> &[Vec<usize>] {
        &self.graph.succs
    }

    pub(crate) fn idx(&self, id: &str) -> Result<usize, DagError> {
        self.graph.index
            .get(id)
            .copied()
            .ok_or_else(|| DagError::UnknownNode(id.to_owned()))
    }

    /// True if `to` is `start` or reachable from it; stops at the first
    /// hit. A node with no successors (the tail of a DAG being chained
    /// together) answers without allocating.
    fn reaches(&self, start: usize, to: usize) -> bool {
        if start == to {
            return true;
        }
        if self.graph.succs[start].is_empty() {
            return false;
        }
        let mut seen = vec![false; self.graph.nodes.len()];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !std::mem::replace(&mut seen[n], true) {
                stack.extend_from_slice(&self.graph.succs[n]);
            }
        }
        false
    }
}

/// Build the paper's Figure 3 In-VIGO virtual-workspace DAG: the running
/// example used throughout the test suites and the `invigo_workspace`
/// example binary.
///
/// Actions A–I with the orderings drawn in Figure 3:
/// A (install Red Hat 8.0) → B (install VNC server) → C (install Web file
/// manager) → D (configure MAC/IP) → E (create user) → F (mount home
/// directory) → {G (configure VNC), I (start file manager)}; G → H (start
/// VNC server).
pub fn invigo_workspace_dag(user: &str) -> ConfigDag {
    let mut dag = ConfigDag::new();
    let actions = [
        Action::guest("A", "install-redhat-8.0").with_nominal_ms(900_000),
        Action::guest("B", "install-vnc-server").with_nominal_ms(60_000),
        Action::guest("C", "install-web-file-manager").with_nominal_ms(45_000),
        Action::host("D", "configure-mac-ip")
            .with_nominal_ms(1_500)
            .with_output("ip_address")
            .with_output("mac_address"),
        Action::guest("E", "create-user")
            .with_param("name", user)
            .with_nominal_ms(1_000)
            .with_output("user_name"),
        Action::guest("F", "mount-home-directory")
            .with_param("user", user)
            .with_nominal_ms(1_500),
        Action::guest("G", "configure-vnc-server").with_nominal_ms(800),
        Action::guest("H", "start-vnc-server")
            .with_nominal_ms(1_200)
            .with_output("vnc_port"),
        Action::guest("I", "start-file-manager").with_nominal_ms(1_000),
    ];
    for a in actions {
        dag.add_action(a).expect("unique ids");
    }
    dag.chain(&["A", "B", "C", "D", "E", "F"]).expect("chain");
    dag.add_edge("F", "G").expect("edge");
    dag.add_edge("F", "I").expect("edge");
    dag.add_edge("G", "H").expect("edge");
    dag
}

/// The §4.2 measurement configuration: the golden machines are
/// "checkpointed at a post-boot stage" with the base installs done, and
/// "the configuration includes setup of the VM's network interface and of
/// a user ID within the VM guest" — i.e. the cached base actions A–C plus
/// residual D (network) and E (user).
pub fn experiment_dag(user: &str) -> ConfigDag {
    let mut dag = ConfigDag::new();
    let actions = [
        Action::guest("A", "install-redhat-8.0").with_nominal_ms(900_000),
        Action::guest("B", "install-vnc-server").with_nominal_ms(60_000),
        Action::guest("C", "install-web-file-manager").with_nominal_ms(45_000),
        Action::host("D", "configure-mac-ip")
            .with_nominal_ms(5_000)
            .with_output("ip_address")
            .with_output("mac_address"),
        Action::guest("E", "create-user")
            .with_param("name", user)
            .with_nominal_ms(2_500)
            .with_output("user_name"),
    ];
    for a in actions {
        dag.add_action(a).expect("unique ids");
    }
    dag.chain(&["A", "B", "C", "D", "E"]).expect("chain");
    dag
}

/// A family of workspace DAGs for the warehouse-at-scale experiments:
/// every rank shares the Figure-3 base installs A → B → C, then diverges
/// into a rank-specific application stack (install + configure actions
/// parameterized by the rank) before the per-instance network and user
/// configuration D → E. A golden published at rank *r* is checkpointed
/// after its stack actions, so goldens of distinct ranks share their DAG
/// prefix — and, in the content-addressed warehouse, most of their
/// chunks — while still being distinct cache entries.
pub fn zipf_dag(rank: u32, user: &str) -> ConfigDag {
    let mut dag = ConfigDag::new();
    let actions = [
        Action::guest("A", "install-redhat-8.0").with_nominal_ms(900_000),
        Action::guest("B", "install-vnc-server").with_nominal_ms(60_000),
        Action::guest("C", "install-web-file-manager").with_nominal_ms(45_000),
        Action::guest("P", "install-app-stack")
            .with_param("rank", rank.to_string())
            .with_nominal_ms(120_000),
        Action::guest("Q", "configure-app-stack")
            .with_param("rank", rank.to_string())
            .with_nominal_ms(5_000),
        Action::host("D", "configure-mac-ip")
            .with_nominal_ms(5_000)
            .with_output("ip_address")
            .with_output("mac_address"),
        Action::guest("E", "create-user")
            .with_param("name", user)
            .with_nominal_ms(2_500)
            .with_output("user_name"),
    ];
    for a in actions {
        dag.add_action(a).expect("unique ids");
    }
    dag.chain(&["A", "B", "C", "P", "Q", "D", "E"]).expect("chain");
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ConfigDag {
        /// Actions with no predecessors (the implicit START's successors).
        fn roots(&self) -> Vec<&str> {
            self.graph.preds
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_empty())
                .map(|(i, _)| self.graph.nodes[i].id.as_str())
                .collect()
        }

        /// Actions with no successors (the implicit FINISH's predecessors).
        fn leaves(&self) -> Vec<&str> {
            self.graph.succs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_empty())
                .map(|(i, _)| self.graph.nodes[i].id.as_str())
                .collect()
        }
    }

    fn diamond() -> ConfigDag {
        // a -> b, a -> c, b -> d, c -> d
        let mut dag = ConfigDag::new();
        for id in ["a", "b", "c", "d"] {
            dag.add_action(Action::guest(id, format!("cmd-{id}"))).unwrap();
        }
        dag.add_edge("a", "b").unwrap();
        dag.add_edge("a", "c").unwrap();
        dag.add_edge("b", "d").unwrap();
        dag.add_edge("c", "d").unwrap();
        dag
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut dag = ConfigDag::new();
        dag.add_action(Action::guest("x", "c1")).unwrap();
        assert_eq!(
            dag.add_action(Action::guest("x", "c2")),
            Err(DagError::DuplicateId("x".into()))
        );
    }

    #[test]
    fn edges_validate_endpoints_and_duplicates() {
        let mut dag = diamond();
        assert_eq!(
            dag.add_edge("a", "zzz"),
            Err(DagError::UnknownNode("zzz".into()))
        );
        assert_eq!(
            dag.add_edge("a", "b"),
            Err(DagError::DuplicateEdge {
                from: "a".into(),
                to: "b".into()
            })
        );
        assert_eq!(dag.add_edge("a", "a"), Err(DagError::SelfLoop("a".into())));
    }

    #[test]
    fn cycles_rejected_at_insertion() {
        let mut dag = diamond();
        assert_eq!(
            dag.add_edge("d", "a"),
            Err(DagError::WouldCycle {
                from: "d".into(),
                to: "a".into()
            })
        );
        // Transitive cycle too.
        assert_eq!(
            dag.add_edge("d", "b"),
            Err(DagError::WouldCycle {
                from: "d".into(),
                to: "b".into()
            })
        );
    }

    #[test]
    fn topo_sort_respects_all_edges() {
        let dag = diamond();
        let order = dag.topo_sort().unwrap();
        let pos: HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(i, id)| (id.as_str(), i))
            .collect();
        for (from, to) in dag.edges() {
            assert!(pos[from] < pos[to], "{from} must precede {to}");
        }
        assert_eq!(order.len(), 4);
    }

    #[test]
    fn topo_sort_is_deterministic() {
        let dag = diamond();
        let o1 = dag.topo_sort().unwrap();
        let o2 = dag.clone().topo_sort().unwrap();
        assert_eq!(o1, o2);
        // Insertion-order tiebreak: b before c.
        assert_eq!(o1, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn ancestors_and_paths() {
        let dag = diamond();
        let anc_d = dag.ancestors("d").unwrap();
        assert_eq!(
            anc_d.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string(), "c".to_string()]
        );
        assert!(dag.ancestors("a").unwrap().is_empty());
        assert!(dag.has_path("a", "d").unwrap());
        assert!(!dag.has_path("b", "c").unwrap());
        assert!(!dag.has_path("d", "a").unwrap());
        assert!(dag.ancestors("missing").is_err());
    }

    #[test]
    fn roots_and_leaves() {
        let dag = diamond();
        assert_eq!(dag.roots(), vec!["a"]);
        assert_eq!(dag.leaves(), vec!["d"]);
        let empty = ConfigDag::new();
        assert!(empty.roots().is_empty());
        assert!(empty.actions().next().is_none());
    }

    #[test]
    fn predecessors_successors() {
        let dag = diamond();
        assert_eq!(dag.predecessors("d").unwrap(), vec!["b", "c"]);
        assert!(dag.predecessors("nope").is_err());
    }

    #[test]
    fn invigo_dag_matches_figure_3() {
        let dag = invigo_workspace_dag("arijit");
        assert_eq!(dag.len(), 9);
        assert_eq!(dag.roots(), vec!["A"]);
        let mut leaves = dag.leaves();
        leaves.sort_unstable();
        assert_eq!(leaves, vec!["H", "I"]);
        // The paper's topological sort of the full DAG is A B C D E F G I H
        // (or any order consistent with the partial order); check ours is
        // consistent.
        let order = dag.topo_sort().unwrap();
        let pos: HashMap<&str, usize> = order
            .iter()
            .enumerate()
            .map(|(i, id)| (id.as_str(), i))
            .collect();
        assert!(pos["A"] < pos["B"]);
        assert!(pos["F"] < pos["G"]);
        assert!(pos["F"] < pos["I"]);
        assert!(pos["G"] < pos["H"]);
    }

    #[test]
    fn zipf_dags_share_the_base_prefix_and_diverge_by_rank() {
        let d0 = zipf_dag(0, "arijit");
        let d7 = zipf_dag(7, "arijit");
        assert_eq!(d0.len(), 7);
        // Base installs are rank-independent (identical signatures)…
        for id in ["A", "B", "C"] {
            assert_eq!(
                d0.action(id).unwrap().signature(),
                d7.action(id).unwrap().signature()
            );
        }
        // …the application stack is rank-specific…
        for id in ["P", "Q"] {
            assert_ne!(
                d0.action(id).unwrap().signature(),
                d7.action(id).unwrap().signature()
            );
        }
        // …and the chain orders stack before instance configuration.
        assert!(d0.has_path("C", "P").unwrap());
        assert!(d0.has_path("Q", "D").unwrap());
        // Same rank → identical DAG (the rank is the address).
        assert_eq!(zipf_dag(7, "arijit"), d7);
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_intact() {
        let original = diamond();
        let mut grown = original.clone();
        grown.add_action(Action::guest("e", "cmd-e")).unwrap();
        grown.add_edge("d", "e").unwrap();
        assert_eq!(original, diamond());
        assert_eq!(grown.len(), 5);
        let mut rewired = original.clone();
        rewired.add_edge("b", "c").unwrap();
        assert_eq!(original, diamond());
        assert!(!original.has_path("b", "c").unwrap());
        assert!(rewired.has_path("b", "c").unwrap());
    }

    #[test]
    fn chain_builds_linear_order() {
        let mut dag = ConfigDag::new();
        for id in ["x", "y", "z"] {
            dag.add_action(Action::guest(id, id)).unwrap();
        }
        dag.chain(&["x", "y", "z"]).unwrap();
        assert!(dag.has_path("x", "z").unwrap());
    }
}
