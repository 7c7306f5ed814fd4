//! The shop's durable write-ahead order journal.
//!
//! "The classad of an active virtual machine is maintained by its
//! corresponding VMPlant … thus facilitating service restoration in the
//! presence of failures" (§3.1) — the plants are the source of truth for
//! *VM* state, but the shop is the only component that knows which
//! *orders* it has accepted and where each one stands. The journal is
//! the append-only record of those order lifecycle transitions —
//! received, bids requested, dispatched, published, failed — keyed by
//! the envelope idempotency keys, and it is the one piece of shop state
//! modeled as durable: a [`crate::VmShop::crash`] wipes every volatile
//! structure (soft cache, pending calls, client waiters) but the
//! journal survives, and [`crate::VmShop::recover`] replays it into the
//! next incarnation.
//!
//! Records are plain data — appending draws no randomness and schedules
//! no events, so journaling never perturbs the simulation's byte-level
//! determinism.
//!
//! The journal keeps one copy of each order's payload. A record holds
//! only what [`Journal::render`] prints. The per-order fold holds the
//! typed [`ProductionOrder`] while the order is unsettled — recovery
//! re-dispatches it as is — and drops it when the order settles. A
//! published outcome holds the [`ClassAd`] itself, never a rendering of
//! it: the ad is copy-on-write, so the outcome shares its storage with
//! the client's reply and the soft cache, and a resubmission or a
//! recovery hands it out again without parsing anything. When the shop
//! destroys the VM, the fold drops that ad (`Journal::destroyed`), so
//! the classads the journal holds are bounded by the live VMs; when it
//! migrates the VM, the fold repoints the outcome at the target plant
//! (`Journal::migrated`). Neither appends a record.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use vmplants_classad::ClassAd;
use vmplants_plant::{ProductionOrder, VmId};
use vmplants_simkit::SimTime;

/// One order lifecycle transition, as journaled and rendered.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// The order was accepted and assigned a VMID. `key` is the
    /// client's idempotency key (synthesized for legacy direct calls).
    Received {
        /// Client idempotency key.
        key: String,
        /// The VMID the shop assigned.
        vm_id: VmId,
        /// When the shop accepted the order.
        at: SimTime,
    },
    /// Bids were solicited from `plants` candidate plants.
    BidsRequested {
        /// The order's VMID.
        vm_id: VmId,
        /// How many plants were asked to bid.
        plants: usize,
        /// When the bid round started.
        at: SimTime,
    },
    /// The order was sent to `plant` as dispatch number `attempt` —
    /// the envelope key `create:{vm_id}:{attempt}` is derivable, which
    /// is what lets recovery re-dispatch under the *same* key and lean
    /// on the plant's dedup cache.
    Dispatched {
        /// The order's VMID.
        vm_id: VmId,
        /// The plant that won the bid.
        plant: String,
        /// Zero-based dispatch count.
        attempt: u32,
        /// When the dispatch was issued.
        at: SimTime,
    },
    /// The finished VM's classad was published to the client; the
    /// classad itself lives in the order's settled outcome.
    Published {
        /// The order's VMID.
        vm_id: VmId,
        /// The plant hosting the VM.
        plant: String,
        /// When the shop responded.
        at: SimTime,
    },
    /// The order failed terminally; `error` is the rendered
    /// [`crate::ShopError`], replayed verbatim to resubmissions.
    Failed {
        /// The order's VMID.
        vm_id: VmId,
        /// The rendered terminal error.
        error: String,
        /// When the shop responded.
        at: SimTime,
    },
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalRecord::Received { key, vm_id, at } => {
                write!(f, "[{at}] received {vm_id} key={key}")
            }
            JournalRecord::BidsRequested { vm_id, plants, at } => {
                write!(f, "[{at}] bids-requested {vm_id} plants={plants}")
            }
            JournalRecord::Dispatched {
                vm_id,
                plant,
                attempt,
                at,
            } => write!(f, "[{at}] dispatched {vm_id} -> {plant} attempt={attempt}"),
            JournalRecord::Published { vm_id, plant, at } => {
                write!(f, "[{at}] published {vm_id} plant={plant}")
            }
            JournalRecord::Failed { vm_id, error, at } => {
                write!(f, "[{at}] failed {vm_id}: {error}")
            }
        }
    }
}

/// The settled outcome of an order, as journaled.
#[derive(Clone, Debug)]
pub enum JournalOutcome {
    /// Creation succeeded on `plant`: a resubmission after a crash is
    /// answered with `ad`, with zero re-execution, and a recovery puts it
    /// back into the soft cache.
    Published {
        /// Hosting plant.
        plant: String,
        /// The published classad, shared copy-on-write with the reply
        /// and the soft cache.
        ad: ClassAd,
    },
    /// The order was published and its VM has since been destroyed
    /// through the shop; the classad was dropped with it. A
    /// resubmission is answered with [`crate::ShopError::UnknownVm`].
    Destroyed,
    /// The order failed with the rendered error.
    Failed {
        /// Rendered terminal error.
        error: String,
    },
}

/// Where an order stands in the fold.
#[derive(Clone, Debug)]
pub enum OrderStatus {
    /// Accepted and not yet settled: the order itself, held so a
    /// recovering incarnation can re-dispatch it without any volatile
    /// state.
    Pending(ProductionOrder),
    /// Settled; the order payload has been dropped.
    Settled(JournalOutcome),
}

/// The folded per-order view of the journal: everything a recovering
/// incarnation needs to decide adopt / resume / restart.
#[derive(Clone, Debug)]
pub struct OrderState {
    /// Client idempotency key.
    pub key: String,
    /// When the order was accepted (deadlines survive restarts).
    pub received_at: SimTime,
    /// Every dispatch issued, in order: `(plant, attempt)`.
    pub dispatches: Vec<(String, u32)>,
    /// The pending order, or its terminal outcome once settled.
    pub status: OrderStatus,
}

impl OrderState {
    /// The terminal outcome, once settled.
    pub fn outcome(&self) -> Option<&JournalOutcome> {
        match &self.status {
            OrderStatus::Pending(_) => None,
            OrderStatus::Settled(outcome) => Some(outcome),
        }
    }
}

/// Append-only order journal with an incrementally-maintained fold
/// (per-order state and key index).
#[derive(Default)]
pub struct Journal {
    records: Vec<JournalRecord>,
    orders: BTreeMap<VmId, OrderState>,
    by_key: BTreeMap<String, VmId>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// The order was accepted under client key `key`: journal it and
    /// hold `order` in the fold until it settles.
    pub fn received(&mut self, key: String, vm_id: VmId, order: ProductionOrder, at: SimTime) {
        self.by_key.insert(key.clone(), vm_id.clone());
        self.orders.insert(
            vm_id.clone(),
            OrderState {
                key: key.clone(),
                received_at: at,
                dispatches: Vec::new(),
                status: OrderStatus::Pending(order),
            },
        );
        self.records.push(JournalRecord::Received { key, vm_id, at });
    }

    /// A bid round was solicited from `plants` candidate plants.
    pub fn bids_requested(&mut self, vm_id: VmId, plants: usize, at: SimTime) {
        self.records
            .push(JournalRecord::BidsRequested { vm_id, plants, at });
    }

    /// The order was dispatched to `plant` as dispatch number `attempt`.
    pub fn dispatched(&mut self, vm_id: VmId, plant: String, attempt: u32, at: SimTime) {
        if let Some(order) = self.orders.get_mut(&vm_id) {
            order.dispatches.push((plant.clone(), attempt));
        }
        self.records.push(JournalRecord::Dispatched {
            vm_id,
            plant,
            attempt,
            at,
        });
    }

    /// The order settled with its VM running on `plant`; `ad` is the
    /// published classad.
    pub fn published(&mut self, vm_id: VmId, plant: String, ad: ClassAd, at: SimTime) {
        self.settle(
            &vm_id,
            JournalOutcome::Published {
                plant: plant.clone(),
                ad,
            },
        );
        self.records
            .push(JournalRecord::Published { vm_id, plant, at });
    }

    /// The order failed terminally with the rendered `error`.
    pub fn failed(&mut self, vm_id: VmId, error: String, at: SimTime) {
        self.settle(
            &vm_id,
            JournalOutcome::Failed {
                error: error.clone(),
            },
        );
        self.records.push(JournalRecord::Failed { vm_id, error, at });
    }

    /// The shop destroyed the published VM `vm_id`: drop its classad.
    /// Appends no record; an order that is unsettled, failed or already
    /// destroyed is left as it is.
    pub(crate) fn destroyed(&mut self, vm_id: &VmId) {
        if let Some(order) = self.orders.get_mut(vm_id) {
            if let OrderStatus::Settled(JournalOutcome::Published { .. }) = order.status {
                order.status = OrderStatus::Settled(JournalOutcome::Destroyed);
            }
        }
    }

    /// The shop migrated the published VM `vm_id` to `plant`, where its
    /// classad is now `ad`: repoint the outcome so recovery and
    /// resubmissions name the hosting plant. Appends no record; an order
    /// that is not published and live is left as it is.
    pub(crate) fn migrated(&mut self, vm_id: &VmId, plant: String, ad: ClassAd) {
        if let Some(order) = self.orders.get_mut(vm_id) {
            if let OrderStatus::Settled(JournalOutcome::Published { .. }) = order.status {
                order.status = OrderStatus::Settled(JournalOutcome::Published { plant, ad });
            }
        }
    }

    /// Record the outcome in place of the order payload.
    fn settle(&mut self, vm_id: &VmId, outcome: JournalOutcome) {
        if let Some(order) = self.orders.get_mut(vm_id) {
            order.status = OrderStatus::Settled(outcome);
        }
    }

    /// Number of appended records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The VMID and settled outcome for a client key, if the order it
    /// names has finished — the resubmission fast path.
    pub fn outcome_for_key(&self, key: &str) -> Option<(&VmId, &JournalOutcome)> {
        let vm_id = self.by_key.get(key)?;
        Some((vm_id, self.orders.get(vm_id)?.outcome()?))
    }

    /// Per-order folded state, by VMID.
    pub fn order(&self, vm_id: &VmId) -> Option<&OrderState> {
        self.orders.get(vm_id)
    }

    /// Orders with no journaled outcome — the recovery work list, in
    /// VMID order (deterministic).
    pub fn unsettled(&self) -> Vec<(VmId, OrderState)> {
        self.orders
            .iter()
            .filter(|(_, o)| o.outcome().is_none())
            .map(|(id, o)| (id.clone(), o.clone()))
            .collect()
    }

    /// Number of settled orders.
    pub(crate) fn settled_count(&self) -> usize {
        self.orders
            .values()
            .filter(|o| o.outcome().is_some())
            .count()
    }

    /// Every published VM not since destroyed, in VMID order, with its
    /// hosting plant and classad.
    pub(crate) fn live_ads(&self) -> impl Iterator<Item = (&VmId, &str, &ClassAd)> {
        self.orders.iter().filter_map(|(id, o)| match o.outcome()? {
            JournalOutcome::Published { plant, ad } => Some((id, plant.as_str(), ad)),
            _ => None,
        })
    }

    /// One line per record — the byte-comparable recovery trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            let _ = writeln!(out, "{record}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::graph::experiment_dag;
    use vmplants_plant::Request;
    use vmplants_virt::VmSpec;

    fn vm(n: u32) -> VmId {
        VmId(format!("vm-shop-{n:05}"))
    }

    fn order(n: u32) -> ProductionOrder {
        let mut order =
            ProductionOrder::new(VmSpec::mandrake(64), experiment_dag("ivan"), "ufl.edu");
        order.vm_id = Some(vm(n));
        order
    }

    #[test]
    fn fold_tracks_lifecycle_and_outcomes() {
        let mut j = Journal::new();
        j.received("order:c:0".into(), vm(0), order(0), SimTime::from_secs(1));
        j.bids_requested(vm(0), 3, SimTime::from_secs(2));
        j.dispatched(vm(0), "node1".into(), 0, SimTime::from_secs(3));
        assert!(j.outcome_for_key("order:c:0").is_none());
        assert_eq!(j.unsettled().len(), 1);
        let (_, state) = &j.unsettled()[0];
        assert_eq!(state.dispatches, vec![("node1".to_string(), 0)]);
        assert_eq!(state.received_at, SimTime::from_secs(1));

        let mut ad = ClassAd::new();
        ad.set_value("vmid", "vm-shop-00000");
        j.published(vm(0), "node1".into(), ad.clone(), SimTime::from_secs(40));
        assert!(j.unsettled().is_empty());
        assert!(matches!(
            j.outcome_for_key("order:c:0"),
            Some((id, JournalOutcome::Published { plant, ad: kept }))
                if *id == vm(0) && plant == "node1" && *kept == ad
        ));
        assert_eq!(j.len(), 4);

        // Migrating the VM repoints its outcome and appends nothing.
        j.migrated(&vm(0), "node2".into(), ad.clone());
        assert!(matches!(j.live_ads().next(), Some((_, "node2", _))));
        assert_eq!(j.len(), 4);

        // Destroying the VM drops its classad and appends nothing.
        j.destroyed(&vm(0));
        assert!(matches!(
            j.outcome_for_key("order:c:0"),
            Some((_, JournalOutcome::Destroyed))
        ));
        assert_eq!(j.live_ads().count(), 0);
        assert_eq!(j.settled_count(), 1);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn failed_orders_settle_and_render_is_line_per_record() {
        let mut j = Journal::new();
        j.received("k".into(), vm(1), order(1), SimTime::ZERO);
        j.failed(vm(1), "order deadline exceeded".into(), SimTime::from_secs(9));
        assert!(matches!(
            j.outcome_for_key("k"),
            Some((_, JournalOutcome::Failed { error })) if error == "order deadline exceeded"
        ));
        // A failed order has no VM to destroy: its outcome stays.
        j.destroyed(&vm(1));
        assert!(matches!(j.outcome_for_key("k"), Some((_, JournalOutcome::Failed { .. }))));
        let text = j.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("received vm-shop-00001 key=k"));
        assert!(text.contains("failed vm-shop-00001: order deadline exceeded"));
    }

    #[test]
    fn unsettled_orders_keep_the_accepted_order() {
        let mut j = Journal::new();
        let accepted = order(2);
        let wire = Request::Create(accepted.clone()).to_wire();
        j.received("k".into(), vm(2), accepted, SimTime::ZERO);
        j.dispatched(vm(2), "node0".into(), 0, SimTime::from_secs(1));
        let (_, state) = &j.unsettled()[0];
        let OrderStatus::Pending(kept) = &state.status else {
            panic!("an unsettled order is pending");
        };
        assert_eq!(Request::Create(kept.clone()).to_wire(), wire);
    }

    #[test]
    fn settling_drops_the_order_payload() {
        let mut j = Journal::new();
        j.received("a".into(), vm(3), order(3), SimTime::ZERO);
        j.received("b".into(), vm(4), order(4), SimTime::ZERO);
        j.published(vm(3), "node0".into(), ClassAd::new(), SimTime::from_secs(5));
        j.failed(vm(4), "no VMPlants available".into(), SimTime::from_secs(5));
        for id in [vm(3), vm(4)] {
            let state = j.order(&id).unwrap();
            assert!(
                matches!(state.status, OrderStatus::Settled(_)),
                "{id} still holds its order"
            );
        }
        // The rendered trace names the outcome, never the payloads.
        assert_eq!(
            j.render(),
            "[0.000s] received vm-shop-00003 key=a\n\
             [0.000s] received vm-shop-00004 key=b\n\
             [5.000s] published vm-shop-00003 plant=node0\n\
             [5.000s] failed vm-shop-00004: no VMPlants available\n"
        );
    }
}
