//! # vmplants-plant — the VMPlant daemon
//!
//! One VMPlant runs on every physical node (Figure 1) and implements the
//! internal structure of Figure 2:
//!
//! * the **Production Process Planner** ([`daemon::Plant::create`]) matches
//!   a creation request's configuration DAG against golden images in the
//!   VM Warehouse and plans `clone + residual configuration`;
//! * the **Production Line** ([`production`]) drives the VMM backend:
//!   cloning (links + state-file copies + resume/boot) and the execution
//!   of residual DAG actions as guest scripts delivered over virtual
//!   CD-ROMs, honouring each action's error policy;
//! * the **VM Information System** ([`infosys`]) holds the authoritative
//!   classad of every active VM — deliberately *not* mirrored in VMShop,
//!   "thus facilitating service restoration in the presence of failures"
//!   (§3.1) — and the **VM monitor** writes its dynamic attributes
//!   whenever a classad is read;
//! * **cost estimation** ([`cost`]) answers the shop's bidding protocol
//!   with either the prototype's free-host-memory model (§4.1) or the
//!   §3.4 network + compute-cycles model.

pub mod cost;
pub mod daemon;
pub mod infosys;
pub mod migration;
pub mod order;
pub mod production;
pub mod protocol;
pub mod publish;
pub mod service;

pub use cost::CostModel;
pub use daemon::{Plant, PlantConfig};
pub use migration::migrate;
pub use infosys::{InfoSystem, VmRecord};
pub use order::{PlantError, ProductionOrder, VmId};
pub use protocol::{
    Envelope, EnvelopeLabel, ErrorCode, MessageError, Payload, Request, Response, SharedOrder,
};
pub use service::{DedupCache, ReplyFn, DEDUP_CAPACITY};
pub use vmplants_vnet::DomainDirectory;
