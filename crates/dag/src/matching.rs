//! The paper's three golden-image matching tests (§3.2).
//!
//! A cached ("golden") VM image in the warehouse carries a record of the
//! configuration actions already performed on it, **in the order they were
//! performed** — a totally ordered log, since the image was produced by one
//! execution history. A creation request carries a configuration DAG. The
//! image may be used as the clone source only if all three criteria hold:
//!
//! * **Subset Test** — every operation performed on the cached image is one
//!   the requested machine also needs ("the cached image should not have
//!   any operation performed on it that is not required").
//! * **Prefix Test** — the performed operations are a *downward-closed*
//!   prefix of the DAG: an operation appears in the log only if all of its
//!   DAG predecessors do too.
//! * **Partial Order Test** — the log's order is consistent with the DAG:
//!   if the DAG orders A before B and both were performed, A appears before
//!   B in the log.
//!
//! Operations are compared by [`crate::action::ActionSignature`] (kind +
//! command + parameters), not by node label.

use std::collections::HashMap;

use crate::action::{Action, SigRef};
use crate::graph::ConfigDag;

/// The ordered log of actions already performed on a cached image.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerformedLog {
    actions: Vec<Action>,
}

impl PerformedLog {
    /// An empty log (a blank or base-install-only golden machine).
    pub fn new() -> Self {
        PerformedLog::default()
    }

    /// Build from an action sequence.
    pub fn from_actions(actions: Vec<Action>) -> Self {
        PerformedLog { actions }
    }

    /// Append a performed action (images gain history as installers publish
    /// further-configured versions).
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// The actions in performed order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of performed actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing has been performed.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

impl FromIterator<Action> for PerformedLog {
    fn from_iter<I: IntoIterator<Item = Action>>(iter: I) -> Self {
        PerformedLog {
            actions: iter.into_iter().collect(),
        }
    }
}

/// Why a cached image failed to match a request DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchFailure {
    /// Subset Test: the image has an operation the request does not want.
    NotSubset {
        /// Display form of the offending operation's signature.
        extra_operation: String,
    },
    /// Prefix Test: an operation was performed without one of its DAG
    /// predecessors.
    NotPrefix {
        /// The performed operation (DAG node label).
        operation: String,
        /// The missing predecessor (DAG node label).
        missing_predecessor: String,
    },
    /// Partial Order Test: two performed operations are ordered against the
    /// DAG's requirement.
    OrderViolation {
        /// The operation the DAG requires first (node label).
        before: String,
        /// The operation the DAG requires second (node label).
        after: String,
    },
    /// Matching by signature needs signatures to be unambiguous within the
    /// request DAG (and within the log).
    AmbiguousSignature {
        /// Display form of the duplicated signature.
        signature: String,
    },
}

impl std::fmt::Display for MatchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchFailure::NotSubset { extra_operation } => {
                write!(f, "subset test failed: image has extra operation {extra_operation}")
            }
            MatchFailure::NotPrefix {
                operation,
                missing_predecessor,
            } => write!(
                f,
                "prefix test failed: '{operation}' performed without predecessor '{missing_predecessor}'"
            ),
            MatchFailure::OrderViolation { before, after } => write!(
                f,
                "partial-order test failed: DAG requires '{before}' before '{after}'"
            ),
            MatchFailure::AmbiguousSignature { signature } => {
                write!(f, "ambiguous operation signature {signature}")
            }
        }
    }
}

/// A successful match of a cached image against a request DAG.
///
/// Nodes are named by their index in the DAG ([`ConfigDag::action_at`];
/// [`ConfigDag::labels`] gives their labels), so a report copies no
/// strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchReport {
    /// DAG nodes satisfied by the cached image, in performed order.
    pub matched: Vec<usize>,
    /// DAG nodes still to execute after cloning, in a valid topological
    /// order of the residual sub-DAG.
    pub residual: Vec<usize>,
}

impl MatchReport {
    /// Number of actions the clone inherits for free — the PPP prefers
    /// goldens with higher scores since they leave less residual work.
    pub fn score(&self) -> usize {
        self.matched.len()
    }

    /// True when the image already satisfies the whole DAG.
    pub fn is_complete(&self) -> bool {
        self.residual.is_empty()
    }
}

/// Run the three matching tests of §3.2.
///
/// On success, returns which DAG nodes the image covers and the residual
/// configuration schedule. On failure, reports the *first* violated
/// criterion in the paper's order (Subset, then Prefix, then Partial
/// Order).
pub fn match_image(dag: &ConfigDag, performed: &PerformedLog) -> Result<MatchReport, MatchFailure> {
    // Build signature -> label maps, rejecting ambiguity.
    let mut dag_by_sig: HashMap<SigRef<'_>, &str> = HashMap::new();
    for action in dag.actions() {
        let sig = action.sig_ref();
        if dag_by_sig.insert(sig, &action.id).is_some() {
            return Err(MatchFailure::AmbiguousSignature {
                signature: sig.to_string(),
            });
        }
    }

    // Subset Test, while translating the log into DAG labels.
    let mut matched_labels: Vec<&str> = Vec::with_capacity(performed.len());
    let mut position: HashMap<&str, usize> = HashMap::new();
    for (pos, action) in performed.actions().iter().enumerate() {
        let sig = action.sig_ref();
        let Some(&label) = dag_by_sig.get(&sig) else {
            return Err(MatchFailure::NotSubset {
                extra_operation: sig.to_string(),
            });
        };
        if position.insert(label, pos).is_some() {
            // The same operation performed twice on one image.
            return Err(MatchFailure::AmbiguousSignature {
                signature: sig.to_string(),
            });
        }
        matched_labels.push(label);
    }

    // Prefix Test: every matched node's ancestors are matched.
    for &label in &matched_labels {
        for ancestor in dag.ancestors(label).expect("label from dag") {
            if !position.contains_key(ancestor.as_str()) {
                return Err(MatchFailure::NotPrefix {
                    operation: label.to_owned(),
                    missing_predecessor: ancestor,
                });
            }
        }
    }

    // Partial Order Test: pairwise check over matched nodes with DAG paths.
    for &a in &matched_labels {
        for &b in &matched_labels {
            if a == b {
                continue;
            }
            if dag.has_path(a, b).expect("labels from dag") && position[a] > position[b] {
                return Err(MatchFailure::OrderViolation {
                    before: a.to_owned(),
                    after: b.to_owned(),
                });
            }
        }
    }

    // Residual: full topological order minus the matched set.
    let node = |label: &str| dag.idx(label).expect("label from dag");
    let residual = dag
        .topo_sort()
        .expect("ConfigDag is acyclic by construction")
        .iter()
        .filter(|id| !position.contains_key(id.as_str()))
        .map(|id| node(id))
        .collect();

    Ok(MatchReport {
        matched: matched_labels.iter().map(|label| node(label)).collect(),
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ActionBody;
    use crate::graph::invigo_workspace_dag;

    /// The Figure 3 cached description: S → A B C D E F (a linear prefix of
    /// the workspace DAG).
    fn figure3_cached(user: &str) -> PerformedLog {
        let dag = invigo_workspace_dag(user);
        ["A", "B", "C", "D", "E", "F"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect()
    }

    #[test]
    fn figure3_match_produces_residual_g_i_h() {
        let dag = invigo_workspace_dag("arijit");
        let report = match_image(&dag, &figure3_cached("arijit")).unwrap();
        assert_eq!(
            dag.labels(&report.matched),
            vec!["A", "B", "C", "D", "E", "F"]
        );
        assert_eq!(report.score(), 6);
        assert!(!report.is_complete());
        // Residual must contain exactly G, H, I with G before H.
        let residual = dag.labels(&report.residual);
        let mut sorted = residual.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec!["G", "H", "I"]);
        let g = residual.iter().position(|x| *x == "G").unwrap();
        let h = residual.iter().position(|x| *x == "H").unwrap();
        assert!(g < h);
    }

    #[test]
    fn different_user_breaks_the_match() {
        // The cached image created user "arijit"; a request for user "jian"
        // has a different create-user signature, so the image has an extra
        // operation the request does not want: Subset fails.
        let dag = invigo_workspace_dag("jian");
        let err = match_image(&dag, &figure3_cached("arijit")).unwrap_err();
        assert!(matches!(err, MatchFailure::NotSubset { .. }), "{err}");
    }

    #[test]
    fn empty_log_matches_everything_with_full_residual() {
        let dag = invigo_workspace_dag("arijit");
        let report = match_image(&dag, &PerformedLog::new()).unwrap();
        assert!(report.matched.is_empty());
        assert_eq!(report.residual.len(), 9);
        assert_eq!(report.score(), 0);
    }

    #[test]
    fn complete_log_leaves_no_residual() {
        let dag = invigo_workspace_dag("arijit");
        let log: PerformedLog = dag
            .topo_sort()
            .unwrap()
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let report = match_image(&dag, &log).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.score(), 9);
    }

    #[test]
    fn subset_test_rejects_foreign_operations() {
        let dag = invigo_workspace_dag("arijit");
        let mut log = figure3_cached("arijit");
        log.push(Action::guest("X", "install-matlab"));
        let err = match_image(&dag, &log).unwrap_err();
        assert_eq!(
            err,
            MatchFailure::NotSubset {
                extra_operation: "guest:install-matlab".into()
            }
        );
    }

    #[test]
    fn prefix_test_rejects_gaps() {
        let dag = invigo_workspace_dag("arijit");
        // Performed A, B, D — missing C, which precedes D in the DAG.
        let log: PerformedLog = ["A", "B", "D"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let err = match_image(&dag, &log).unwrap_err();
        assert_eq!(
            err,
            MatchFailure::NotPrefix {
                operation: "D".into(),
                missing_predecessor: "C".into()
            }
        );
    }

    #[test]
    fn partial_order_test_rejects_inverted_history() {
        let dag = invigo_workspace_dag("arijit");
        // Performed B then A, but the DAG requires A before B.
        let log: PerformedLog = ["B", "A"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let err = match_image(&dag, &log).unwrap_err();
        assert_eq!(
            err,
            MatchFailure::OrderViolation {
                before: "A".into(),
                after: "B".into()
            }
        );
    }

    #[test]
    fn unordered_operations_may_appear_in_any_order() {
        // G and I are DAG-incomparable (both follow F); a log with I before
        // G is as valid as one with G before I.
        let dag = invigo_workspace_dag("arijit");
        let mut log = figure3_cached("arijit");
        log.push(dag.action("I").unwrap().clone());
        log.push(dag.action("G").unwrap().clone());
        let report = match_image(&dag, &log).unwrap();
        assert_eq!(report.score(), 8);
        assert_eq!(dag.labels(&report.residual), vec!["H"]);
    }

    #[test]
    fn duplicate_signature_in_dag_is_ambiguous() {
        let mut dag = ConfigDag::new();
        dag.add_action(Action::guest("n1", "same-op")).unwrap();
        dag.add_action(Action::guest("n2", "same-op")).unwrap();
        let err = match_image(&dag, &PerformedLog::new()).unwrap_err();
        assert!(matches!(err, MatchFailure::AmbiguousSignature { .. }));
    }

    #[test]
    fn duplicate_operation_in_log_is_ambiguous() {
        let dag = invigo_workspace_dag("arijit");
        let a = dag.action("A").unwrap().clone();
        let log = PerformedLog::from_actions(vec![a.clone(), a]);
        let err = match_image(&dag, &log).unwrap_err();
        assert!(matches!(err, MatchFailure::AmbiguousSignature { .. }));
    }

    #[test]
    fn matching_is_by_signature_not_label() {
        // Same operations, different node labels in the log.
        let dag = invigo_workspace_dag("arijit");
        let mut relabeled = Vec::new();
        for (i, id) in ["A", "B"].iter().enumerate() {
            let a = dag.action(id).unwrap();
            let body = ActionBody {
                id: format!("weird-{i}"),
                ..ActionBody::clone(a)
            };
            relabeled.push(Action::from(body));
        }
        let report = match_image(&dag, &PerformedLog::from_actions(relabeled)).unwrap();
        assert_eq!(dag.labels(&report.matched), vec!["A", "B"]);
    }
}
