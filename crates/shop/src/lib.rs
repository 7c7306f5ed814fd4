//! # vmplants-shop — the VMShop front-end
//!
//! "VMShop provides a single logical point of contact for clients to
//! request three core services: create a VM instance, query information
//! about an active VM instance, and destroy (collect) an active VM
//! instance" (§3.1). This crate implements that front-end:
//!
//! * [`registry`] — publish / discover / bind, the stand-in for the
//!   UDDI/WSDL machinery of Figure 1;
//! * [`bidding`] — the bid-collection protocol: the shop requests
//!   estimated creation costs from every plant (directly or through
//!   [`bidding::VmBroker`]s) and selects the cheapest, breaking ties
//!   uniformly at random as in the §3.4 walk-through;
//! * [`cache`] — the *soft* classad cache: "the classad of an active
//!   virtual machine is maintained by its corresponding VMPlant, but it is
//!   not part of the state that needs to be maintained by VMShop, thus
//!   facilitating service restoration in the presence of failures.
//!   VMShop may, however, cache classad information … to speed up
//!   queries";
//! * [`shop`] — the [`VmShop`] service itself, with plant-failure
//!   handling (re-bid on creation) and crash recovery that rebuilds the
//!   cache from the journal and the plants;
//! * [`journal`] — the durable write-ahead order journal that lets a
//!   crashed shop restart deterministically and reconcile in-flight
//!   orders with the plants;
//! * [`client`] — client-side failover: keyed resubmission across shop
//!   incarnations with capped backoff and exactly-once settlement.

pub mod bidding;
pub mod cache;
pub mod client;
pub mod journal;
pub mod registry;
pub mod shop;

pub use bidding::{Bid, VmBroker};
pub use cache::{ClassAdCache, ExprCache};
pub use client::{ClientRequestLog, ShopClient};
pub use journal::{Journal, JournalOutcome, JournalRecord, OrderState, OrderStatus};
pub use registry::Registry;
pub use shop::{RecoveryStats, ShopDone, ShopError, ShopRequestLog, ShopTuning, VmShop};
