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
//! The journal copies no order payload. A record holds only what
//! `Journal::render` prints, and an order's key, VMID text and plant
//! names are shared by reference count between its records and its fold.
//! The per-order fold holds the [`SharedOrder`] the shop admitted — the
//! very request its dispatch envelopes carry — while the order is
//! unsettled, so recovery re-dispatches it as is, and drops it when the
//! order settles. A published outcome holds the [`ClassAd`] itself, never
//! a rendering of it: the ad is copy-on-write, so the outcome shares its
//! storage with the client's reply and the soft cache, and a resubmission
//! or a recovery hands it out again without parsing anything. When the
//! shop destroys the VM, the fold drops that ad (`Journal::destroyed`),
//! so the classads the journal holds are bounded by the live VMs; when it
//! migrates the VM, the fold repoints the outcome at the target plant
//! (`Journal::migrated`). Neither appends a record.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_plant::{SharedOrder, VmId};
use vmplants_simkit::SimTime;

/// One order lifecycle transition, as journaled and rendered.
#[derive(Clone, Debug)]
pub enum JournalRecord {
    /// The order was accepted and assigned a VMID. `key` is the
    /// client's idempotency key; a direct call has none and renders as
    /// `order:{vm_id}`.
    Received {
        /// Client idempotency key, if the order came with one.
        key: Option<Rc<str>>,
        /// The VMID the shop assigned.
        vm_id: Rc<str>,
        /// When the shop accepted the order.
        at: SimTime,
    },
    /// Bids were solicited from `plants` candidate plants.
    BidsRequested {
        /// The order's VMID.
        vm_id: Rc<str>,
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
        vm_id: Rc<str>,
        /// The plant that won the bid.
        plant: Rc<str>,
        /// Zero-based dispatch count.
        attempt: u32,
        /// When the dispatch was issued.
        at: SimTime,
    },
    /// The finished VM's classad was published to the client; the
    /// classad itself lives in the order's settled outcome.
    Published {
        /// The order's VMID.
        vm_id: Rc<str>,
        /// The plant hosting the VM.
        plant: Rc<str>,
        /// When the shop responded.
        at: SimTime,
    },
    /// The order failed terminally; `error` is the rendered
    /// [`crate::ShopError`], replayed verbatim to resubmissions.
    Failed {
        /// The order's VMID.
        vm_id: Rc<str>,
        /// The rendered terminal error.
        error: String,
        /// When the shop responded.
        at: SimTime,
    },
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalRecord::Received { key, vm_id, at } => match key {
                Some(key) => write!(f, "[{at}] received {vm_id} key={key}"),
                None => write!(f, "[{at}] received {vm_id} key=order:{vm_id}"),
            },
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
        plant: Rc<str>,
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
    Pending(SharedOrder),
    /// Settled; the order payload has been dropped.
    Settled(JournalOutcome),
}

/// The folded per-order view of the journal: everything a recovering
/// incarnation needs to decide adopt / resume / restart.
#[derive(Clone, Debug)]
pub struct OrderState {
    /// Client idempotency key; `None` for a direct call.
    pub key: Option<Rc<str>>,
    /// When the order was accepted (deadlines survive restarts).
    pub received_at: SimTime,
    /// Every dispatch issued, in order: `(plant, attempt)`.
    pub dispatches: Vec<(Rc<str>, u32)>,
    /// The pending order, or its terminal outcome once settled.
    pub status: OrderStatus,
}

impl OrderState {
    /// The terminal outcome, once settled.
    pub(crate) fn outcome(&self) -> Option<&JournalOutcome> {
        match &self.status {
            OrderStatus::Pending(_) => None,
            OrderStatus::Settled(outcome) => Some(outcome),
        }
    }
}

/// Append-only order journal with an incrementally-maintained fold
/// (per-order state and key index). Both maps are keyed by shared text:
/// `orders` by the VMID, `by_key` by the client key, naming the VMID.
#[derive(Default)]
pub struct Journal {
    records: Vec<JournalRecord>,
    orders: BTreeMap<Rc<str>, OrderState>,
    by_key: BTreeMap<Rc<str>, Rc<str>>,
}

impl Journal {
    /// An empty journal.
    pub(crate) fn new() -> Journal {
        Journal::default()
    }

    /// The order was accepted under client key `key` (`None` for a
    /// direct call, which resubmissions cannot name): journal it and hold
    /// `order` in the fold until it settles.
    pub(crate) fn received(
        &mut self,
        key: Option<Rc<str>>,
        vm_id: &VmId,
        order: SharedOrder,
        at: SimTime,
    ) {
        let vm_id: Rc<str> = vm_id.0.as_str().into();
        if let Some(key) = &key {
            self.by_key.insert(Rc::clone(key), Rc::clone(&vm_id));
        }
        self.orders.insert(
            Rc::clone(&vm_id),
            OrderState {
                key: key.clone(),
                received_at: at,
                dispatches: Vec::new(),
                status: OrderStatus::Pending(order),
            },
        );
        self.records.push(JournalRecord::Received { key, vm_id, at });
    }

    /// The text of `vm_id` the journal's records share: the order's, once
    /// it was received.
    fn shared_id(&self, vm_id: &VmId) -> Rc<str> {
        match self.orders.get_key_value(vm_id.0.as_str()) {
            Some((id, _)) => Rc::clone(id),
            None => vm_id.0.as_str().into(),
        }
    }

    /// A bid round was solicited from `plants` candidate plants.
    pub(crate) fn bids_requested(&mut self, vm_id: &VmId, plants: usize, at: SimTime) {
        let vm_id = self.shared_id(vm_id);
        self.records
            .push(JournalRecord::BidsRequested { vm_id, plants, at });
    }

    /// The order was dispatched to `plant` as dispatch number `attempt`.
    pub(crate) fn dispatched(&mut self, vm_id: &VmId, plant: Rc<str>, attempt: u32, at: SimTime) {
        if let Some(order) = self.orders.get_mut(vm_id.0.as_str()) {
            order.dispatches.push((Rc::clone(&plant), attempt));
        }
        self.records.push(JournalRecord::Dispatched {
            vm_id: self.shared_id(vm_id),
            plant,
            attempt,
            at,
        });
    }

    /// The order settled with its VM running on `plant`; `ad` is the
    /// published classad.
    pub(crate) fn published(&mut self, vm_id: &VmId, plant: Rc<str>, ad: ClassAd, at: SimTime) {
        self.settle(
            vm_id,
            JournalOutcome::Published {
                plant: Rc::clone(&plant),
                ad,
            },
        );
        self.records.push(JournalRecord::Published {
            vm_id: self.shared_id(vm_id),
            plant,
            at,
        });
    }

    /// The order failed terminally with the rendered `error`.
    pub(crate) fn failed(&mut self, vm_id: &VmId, error: String, at: SimTime) {
        self.settle(
            vm_id,
            JournalOutcome::Failed {
                error: error.clone(),
            },
        );
        self.records.push(JournalRecord::Failed {
            vm_id: self.shared_id(vm_id),
            error,
            at,
        });
    }

    /// The shop destroyed the published VM `vm_id`: drop its classad.
    /// Appends no record; an order that is unsettled, failed or already
    /// destroyed is left as it is.
    pub(crate) fn destroyed(&mut self, vm_id: &VmId) {
        if let Some(order) = self.orders.get_mut(vm_id.0.as_str()) {
            if let OrderStatus::Settled(JournalOutcome::Published { .. }) = order.status {
                order.status = OrderStatus::Settled(JournalOutcome::Destroyed);
            }
        }
    }

    /// The shop migrated the published VM `vm_id` to `plant`, where its
    /// classad is now `ad`: repoint the outcome so recovery and
    /// resubmissions name the hosting plant. Appends no record; an order
    /// that is not published and live is left as it is.
    pub(crate) fn migrated(&mut self, vm_id: &VmId, plant: Rc<str>, ad: ClassAd) {
        if let Some(order) = self.orders.get_mut(vm_id.0.as_str()) {
            if let OrderStatus::Settled(JournalOutcome::Published { .. }) = order.status {
                order.status = OrderStatus::Settled(JournalOutcome::Published { plant, ad });
            }
        }
    }

    /// Record the outcome in place of the order payload.
    fn settle(&mut self, vm_id: &VmId, outcome: JournalOutcome) {
        if let Some(order) = self.orders.get_mut(vm_id.0.as_str()) {
            order.status = OrderStatus::Settled(outcome);
        }
    }

    /// Number of appended records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// The VMID and settled outcome for a client key, if the order it
    /// names has finished — the resubmission fast path.
    pub(crate) fn outcome_for_key(&self, key: &str) -> Option<(&str, &JournalOutcome)> {
        let vm_id = self.by_key.get(key)?;
        Some((vm_id, self.orders.get(vm_id)?.outcome()?))
    }

    /// Orders with no journaled outcome — the recovery work list, in
    /// VMID order (deterministic).
    pub(crate) fn unsettled(&self) -> Vec<(VmId, OrderState)> {
        self.orders
            .iter()
            .filter(|(_, o)| o.outcome().is_none())
            .map(|(id, o)| (VmId(id.to_string()), o.clone()))
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
    pub(crate) fn live_ads(&self) -> impl Iterator<Item = (&str, &Rc<str>, &ClassAd)> {
        self.orders.iter().filter_map(|(id, o)| match o.outcome()? {
            JournalOutcome::Published { plant, ad } => Some((&**id, plant, ad)),
            _ => None,
        })
    }

    /// One line per record — the byte-comparable recovery trace.
    pub(crate) fn render(&self) -> String {
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
    use vmplants_plant::ProductionOrder;
    use vmplants_virt::VmSpec;

    fn vm(n: u32) -> VmId {
        VmId(format!("vm-shop-{n:05}"))
    }

    fn order(n: u32) -> SharedOrder {
        let mut order =
            ProductionOrder::new(VmSpec::mandrake(64), experiment_dag("ivan"), "ufl.edu");
        order.vm_id = Some(vm(n));
        order.into()
    }

    #[test]
    fn fold_tracks_lifecycle_and_outcomes() {
        let mut j = Journal::new();
        j.received(Some("order:c:0".into()), &vm(0), order(0), SimTime::from_secs(1));
        j.bids_requested(&vm(0), 3, SimTime::from_secs(2));
        j.dispatched(&vm(0), "node1".into(), 0, SimTime::from_secs(3));
        assert!(j.outcome_for_key("order:c:0").is_none());
        assert_eq!(j.unsettled().len(), 1);
        let (_, state) = &j.unsettled()[0];
        assert_eq!(state.dispatches, vec![(Rc::from("node1"), 0)]);
        assert_eq!(state.received_at, SimTime::from_secs(1));

        let mut ad = ClassAd::new();
        ad.set_value("vmid", "vm-shop-00000");
        j.published(&vm(0), "node1".into(), ad.clone(), SimTime::from_secs(40));
        assert!(j.unsettled().is_empty());
        assert!(matches!(
            j.outcome_for_key("order:c:0"),
            Some((id, JournalOutcome::Published { plant, ad: kept }))
                if id == vm(0).0 && &**plant == "node1" && *kept == ad
        ));
        assert_eq!(j.len(), 4);

        // Migrating the VM repoints its outcome and appends nothing.
        j.migrated(&vm(0), "node2".into(), ad.clone());
        assert_eq!(
            j.live_ads().next().map(|(_, plant, _)| &**plant),
            Some("node2")
        );
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
        j.received(Some("k".into()), &vm(1), order(1), SimTime::ZERO);
        j.failed(
            &vm(1),
            "order deadline exceeded".into(),
            SimTime::from_secs(9),
        );
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
        j.received(Some("k".into()), &vm(2), accepted.clone(), SimTime::ZERO);
        j.dispatched(&vm(2), "node0".into(), 0, SimTime::from_secs(1));
        let (_, state) = &j.unsettled()[0];
        let OrderStatus::Pending(kept) = &state.status else {
            panic!("an unsettled order is pending");
        };
        // The very request the shop admitted, not a copy of it.
        assert!(Rc::ptr_eq(&kept.request(), &accepted.request()));
    }

    #[test]
    fn settling_drops_the_order_payload() {
        let mut j = Journal::new();
        j.received(Some("a".into()), &vm(3), order(3), SimTime::ZERO);
        j.received(None, &vm(4), order(4), SimTime::ZERO);
        j.published(
            &vm(3),
            "node0".into(),
            ClassAd::new(),
            SimTime::from_secs(5),
        );
        j.failed(
            &vm(4),
            "no VMPlants available".into(),
            SimTime::from_secs(5),
        );
        for id in [vm(3), vm(4)] {
            let state = &j.orders[id.0.as_str()];
            assert!(
                matches!(state.status, OrderStatus::Settled(_)),
                "{id} still holds its order"
            );
        }
        // A direct order has no key: its line derives one from the VMID,
        // and no resubmission can name it.
        assert!(j.outcome_for_key("order:vm-shop-00004").is_none());
        // The rendered trace names the outcome, never the payloads.
        assert_eq!(
            j.render(),
            "[0.000s] received vm-shop-00003 key=a\n\
             [0.000s] received vm-shop-00004 key=order:vm-shop-00004\n\
             [5.000s] published vm-shop-00003 plant=node0\n\
             [5.000s] failed vm-shop-00004: no VMPlants available\n"
        );
    }
}
