//! # vmplants-dag — configuration DAGs and partial matching
//!
//! The central mechanism of the VMPlants paper (§3.1–§3.2): a virtual
//! machine's software configuration is specified as a **directed acyclic
//! graph of configuration actions**. Nodes are actions executed either in
//! the VM's *guest* (install a package, create a user) or by the VM's
//! *host* (attach an ISO image, configure a virtual NIC); edges impose a
//! partial order; special START and FINISH nodes delimit the graph; each
//! action has an implicit error node and may carry a custom error-handling
//! sub-graph.
//!
//! The DAG does double duty:
//!
//! 1. It is the *request language*: clients ship a DAG inside the XML
//!    Create-VM request ([`xml`]).
//! 2. It drives *efficient cloning*: the Production Process Planner matches
//!    the DAG against cached "golden" images that already have a prefix of
//!    the actions applied, using the paper's three matching criteria —
//!    **Subset**, **Prefix**, and **Partial Order** ([`matching`]) — and
//!    only the residual actions are executed after cloning
//!    ([`MatchReport::residual`]).
//!
//! ```
//! use vmplants_dag::{ConfigDag, Action};
//!
//! // Figure 3's In-VIGO virtual-workspace DAG (abridged).
//! let mut dag = ConfigDag::new();
//! dag.add_action(Action::guest("A", "install-redhat-8.0")).unwrap();
//! dag.add_action(Action::guest("B", "install-vnc-server")).unwrap();
//! dag.add_edge("A", "B").unwrap();
//! let order = dag.topo_sort().unwrap();
//! assert_eq!(order, vec!["A".to_string(), "B".to_string()]);
//! ```

pub mod action;
pub mod graph;
pub mod intern;
pub mod matching;
pub mod xml;

pub use action::{Action, ActionBody, ActionKind, ErrorPolicy};
pub use graph::{ConfigDag, DagError};
pub use intern::{BitSet, CompiledDag, InternedLog, MatchedSet, SigId, SigInterner};
pub use matching::{match_image, MatchFailure, MatchReport, PerformedLog};
