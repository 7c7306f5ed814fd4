//! # vmplants — Grid virtual machine execution environments
//!
//! A from-scratch Rust reproduction of **"VMPlants: Providing and Managing
//! Virtual Machine Execution Environments for Grid Computing"** (Krsul,
//! Ganguly, Zhang, Fortes, Figueiredo — SC 2004), complete with the
//! substrate the paper's prototype ran on, rebuilt as a deterministic
//! discrete-event simulation (see `DESIGN.md` at the repository root).
//!
//! ## The design in one paragraph
//!
//! Clients ask a front-end **VMShop** for virtual machines, specifying
//! hardware (memory/disk/OS/VMM) plus a **configuration DAG** of software
//! setup actions. The shop runs a **bidding protocol** over the site's
//! **VMPlants** (one per physical node), each of which answers with an
//! estimated creation cost. The winning plant's **Production Process
//! Planner** matches the DAG against **golden images** in the NFS-served
//! **VM Warehouse** using the Subset / Prefix / Partial-Order tests,
//! **clones** the best match (symlinked base disk + copied config, redo
//! log and memory state), resumes it, executes only the *residual* DAG
//! actions via scripts on virtual CD-ROMs, wires the VM into a per-client
//! **host-only network** bridged by VNET to the client's domain, and
//! returns a **classad** describing the new machine.
//!
//! ## Quick start
//!
//! ```
//! use vmplants::{SimSite, SiteConfig};
//! use vmplants_dag::graph::invigo_workspace_dag;
//! use vmplants_virt::VmSpec;
//!
//! // An 8-node site with the paper's golden images published.
//! let mut site = SimSite::build(SiteConfig::default());
//! let ad = site
//!     .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
//!     .expect("VM created");
//! assert_eq!(ad.get_str("state"), Some("running".into()));
//! println!("VM {} up at {} in {:.1}s",
//!     ad.get_str("vmid").unwrap(),
//!     ad.get_str("ip_address").unwrap(),
//!     ad.get_f64("create_s").unwrap());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Subsystem |
//! |---|---|
//! | `vmplants-simkit` | deterministic discrete-event kernel |
//! | `vmplants-classad` | classads: values, expressions, matchmaking |
//! | `vmplants-xmlmsg` | the XML wire format |
//! | `vmplants-dag` | configuration DAGs + the three matching tests |
//! | `vmplants-cluster` | hosts, NFS warehouse path, the e1350 testbed |
//! | `vmplants-virt` | simulated VMware-like and UML-like backends |
//! | `vmplants-warehouse` | golden-image store and descriptors |
//! | `vmplants-vnet` | host-only networks, VNET bridges, client IPs |
//! | `vmplants-plant` | the VMPlant daemon (PPP, production line, info system) |
//! | `vmplants-shop` | the VMShop front-end (bidding, cache, protocol) |
//! | `vmplants` (this crate) | site assembly, experiments, live TCP mode |
//!
//! The [`experiments`] module regenerates every figure and headline number
//! of the paper's evaluation (see `EXPERIMENTS.md`); [`live`] runs the
//! whole stack as a real localhost TCP service speaking the XML protocol.

pub mod ablations;
pub mod chaos;
pub mod experiments;
pub mod live;
pub mod parallel;
pub mod scenario;
pub mod site;

pub use chaos::{run_chaos, run_chaos_with_obs, ChaosConfig, ChaosReport, OrderSpec};
pub use parallel::run_ordered;
pub use scenario::{Scenario, ScenarioError};
pub use site::{SimSite, SiteConfig};

// Re-export the sub-crates under stable names for downstream users.
pub use vmplants_classad as classad;
pub use vmplants_cluster as cluster;
pub use vmplants_dag as dag;
pub use vmplants_plant as plant;
pub use vmplants_shop as shop;
pub use vmplants_simkit as simkit;
pub use vmplants_virt as virt;
pub use vmplants_vnet as vnet;
pub use vmplants_warehouse as warehouse;
pub use vmplants_xmlmsg as xmlmsg;
