//! The VMShop service.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::files::StoreError;
use vmplants_plant::{
    Envelope, Payload, Plant, PlantError, ProductionOrder, ReplyFn, Request, Response, VmId,
};
use vmplants_simkit::obs::{Counter, Obs, SpanId, TrackId};
use vmplants_simkit::{Engine, EventId, SimDuration, SimRng, SimTime, Transport};
use vmplants_virt::{VirtError, VmState};

use crate::bidding::{collect_bids, select_bid, VmBroker};
use crate::cache::{ClassAdCache, ExprCache};
use crate::journal::{Journal, JournalOutcome, OrderStatus};
use crate::registry::Registry;

/// Failures surfaced by the shop.
#[derive(Clone, Debug, PartialEq)]
pub enum ShopError {
    /// No plants are published (or reachable).
    NoPlants,
    /// Every candidate plant failed the request; carries the last error.
    AllPlantsFailed(PlantError),
    /// Every registered plant is either down or already excluded by this
    /// request's re-bid history — nobody even bid.
    AllPlantsExcluded,
    /// The per-order deadline elapsed before any plant completed the
    /// creation; carries the last plant error seen, if any.
    DeadlineExceeded(Option<PlantError>),
    /// The site is in degraded mode: fewer plants are alive than the
    /// shop's configured minimum, so new orders are shed.
    Degraded {
        /// Plants currently answering.
        alive: usize,
        /// The configured minimum.
        required: usize,
    },
    /// A plant error on a non-creation path.
    Plant(PlantError),
    /// The VM is unknown to the shop and to every live plant.
    UnknownVm(VmId),
    /// The shop process itself is down (crashed and not yet
    /// restarted) — the connection-refused analog. Clients treat this
    /// as retryable and resubmit across incarnations.
    ShopDown,
    /// A terminal failure replayed verbatim from the order journal by
    /// a later shop incarnation; carries the original rendered error.
    Journaled(String),
}

impl std::fmt::Display for ShopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShopError::NoPlants => write!(f, "no VMPlants available"),
            ShopError::AllPlantsFailed(e) => write!(f, "all plants failed; last error: {e}"),
            ShopError::AllPlantsExcluded => {
                write!(f, "no plant bid (all down or already excluded)")
            }
            ShopError::DeadlineExceeded(Some(e)) => {
                write!(f, "order deadline exceeded; last error: {e}")
            }
            ShopError::DeadlineExceeded(None) => write!(f, "order deadline exceeded"),
            ShopError::Degraded { alive, required } => write!(
                f,
                "degraded mode: {alive} plants alive, {required} required"
            ),
            ShopError::Plant(e) => write!(f, "plant error: {e}"),
            ShopError::UnknownVm(id) => write!(f, "unknown VM '{id}'"),
            ShopError::ShopDown => write!(f, "shop is down"),
            // Verbatim: the journaled text *is* the original rendering,
            // so replayed failures keep their error class.
            ShopError::Journaled(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ShopError {}

/// Is this plant failure worth re-bidding elsewhere? Infrastructure
/// faults (dead plant/host, storage outage, lost messages) are; request
/// problems (no golden, bad order, exhausted networks) are not — another
/// plant would refuse them for the same reason or the client must fix
/// the order.
fn retryable(err: &PlantError) -> bool {
    match err {
        PlantError::PlantDown
        | PlantError::Unresponsive
        | PlantError::Virt(VirtError::HostDown(_))
        | PlantError::Virt(VirtError::Io(StoreError::Unavailable(_))) => true,
        PlantError::Remote { code, .. } => code.retryable(),
        _ => false,
    }
}

/// One interrogation of the live plants: each with the VMs it hosts and
/// their states.
type Census = Vec<(Plant, BTreeMap<VmId, VmState>)>;

/// Shop-side robustness knobs. [`ShopTuning::default`] matches the
/// failure-recovery behaviour exercised by the chaos experiments; set
/// `order_deadline: None` and a huge `attempt_timeout` to approximate
/// the original hang-forever prototype.
#[derive(Clone, Debug)]
pub struct ShopTuning {
    /// Give up on an order after this much end-to-end time.
    pub order_deadline: Option<SimDuration>,
    /// Declare a dispatched plant unresponsive after this long without a
    /// reply (the watchdog that replaces waiting forever).
    pub attempt_timeout: SimDuration,
    /// First re-bid backoff; doubles per attempt.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
    /// Shed new orders while fewer plants than this are alive.
    pub min_live_plants: usize,
    /// First retransmission timeout for an unanswered request envelope;
    /// doubles per retransmission.
    pub rto_base: SimDuration,
    /// Retransmission-timeout ceiling.
    pub rto_cap: SimDuration,
    /// Append order lifecycle records to the write-ahead journal — the
    /// crash-recovery substrate. Off only for overhead benchmarking;
    /// a shop crash with journaling off loses every in-flight order.
    pub journal: bool,
    /// Dedup-cache capacity applied to plants wired against this shop:
    /// completed request answers each plant retains for replay.
    pub dedup_capacity: usize,
}

impl Default for ShopTuning {
    fn default() -> ShopTuning {
        ShopTuning {
            // Generous defaults: a dead plant reports back immediately
            // (the crash path fails its jobs), so the watchdog only has
            // to catch *lost* messages — it must never fire on a
            // legitimately slow creation (large-memory clones take many
            // minutes, §4.2).
            order_deadline: Some(SimDuration::from_secs(7200)),
            attempt_timeout: SimDuration::from_secs(3600),
            backoff_base: SimDuration::from_secs(2),
            backoff_cap: SimDuration::from_secs(60),
            min_live_plants: 0,
            // Retransmits must be patient enough not to flood a plant
            // mid-creation (clones take tens of seconds to minutes) but
            // fast enough to recover a dropped request long before the
            // watchdog gives up on the whole attempt.
            rto_base: SimDuration::from_secs(5),
            rto_cap: SimDuration::from_secs(60),
            journal: true,
            dedup_capacity: vmplants_plant::DEDUP_CAPACITY,
        }
    }
}

/// One completed (or failed) creation request, as logged by the shop.
/// `latency` is Figure 4's quantity: "measured from client request to
/// VMShop response".
#[derive(Clone, Debug)]
pub struct ShopRequestLog {
    /// The VMID the shop assigned.
    pub vm_id: VmId,
    /// Requested memory size.
    pub memory_mb: u64,
    /// The plant that (last) served the request.
    pub plant: String,
    /// Virtual time of the client request.
    pub requested_at: SimTime,
    /// Virtual time of the shop's response.
    pub responded_at: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Whether creation succeeded.
    pub success: bool,
    /// How many plant dispatches the order took (1 = no recovery needed).
    pub attempts: u32,
}

/// What one [`VmShop::recover`] pass did with the journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The incarnation number the shop restarted into.
    pub incarnation: u64,
    /// Orders already settled in the journal — nothing to re-execute.
    pub settled: usize,
    /// Unsettled orders whose VM was found `Running` on a plant and
    /// adopted without re-execution.
    pub adopted: usize,
    /// Unsettled orders re-dispatched to their last journaled plant,
    /// alive at recovery, under the journaled key (dedup absorbs the
    /// duplicate).
    pub resumed: usize,
    /// Unsettled orders re-run from a fresh bid round under a fresh
    /// dispatch key: their last journaled plant is down, or they were
    /// never dispatched.
    pub restarted: usize,
    /// `Running` VMs the journal never recorded, collected as orphans.
    /// An unrecorded VM still in production is left to a later
    /// [`VmShop::gc_orphans`].
    pub reaped: usize,
}

struct ShopState {
    registry: Registry,
    brokers: Vec<VmBroker>,
    cache: ClassAdCache,
    exprs: ExprCache,
    rng: SimRng,
    next_vm: u64,
    request_log: Vec<ShopRequestLog>,
    /// Uniform range (seconds) for one message hop (client↔shop or
    /// shop↔plant): socket + XML parse + serialized-object handling.
    msg_latency: (f64, f64),
    tuning: ShopTuning,
    /// The shop↔plant message fabric: every request/response envelope
    /// rides it, so loss/duplication/reordering/partition faults act on
    /// real in-flight messages.
    transport: Transport,
    /// Shop incarnation, bumped by [`VmShop::recover`]. Responses whose
    /// `reply_epoch` names a previous life are dropped.
    epoch: u64,
    /// Per-shop monotone sequence number for outgoing envelopes.
    next_msg: u64,
    /// In-flight plant calls, by idempotency key (the request
    /// envelope's shared key text).
    pending: BTreeMap<Rc<str>, PendingCall>,
    /// Orders currently being produced — their VMIDs are not yet cached,
    /// but they are not orphans either.
    inflight: BTreeSet<VmId>,
    /// False while the shop process is down ([`VmShop::crash`]); a dead
    /// shop refuses submissions and every scheduled continuation from
    /// its previous life no-ops.
    alive: bool,
    /// The durable write-ahead order journal — the only shop state that
    /// survives a crash.
    journal: Journal,
    /// Client idempotency keys of orders currently in flight, mapping
    /// to their VMIDs (volatile: resubmission dedup within one
    /// incarnation).
    client_keys: BTreeMap<String, VmId>,
    /// Extra completions to drain when a keyed order settles: one per
    /// resubmission that arrived while the original was still in
    /// flight (volatile).
    client_waiters: BTreeMap<String, Vec<ShopDone>>,
    /// Observability handle ([`VmShop::set_obs`]); disabled by default.
    obs: Obs,
    /// Trace track for the shop's `order`/`bid` spans.
    obs_track: TrackId,
    /// Bid solicitations sent to plants (one per eligible plant per round).
    bids_requested: Counter,
    /// Request-envelope retransmissions (transmission attempts after the
    /// first for one idempotency key).
    retransmits: Counter,
    /// Attempt-timeout watchdogs that actually settled a pending call.
    watchdog_fires: Counter,
    /// Records appended to the order journal.
    journal_records: Counter,
    /// Completed [`VmShop::recover`] passes.
    recoveries: Counter,
    /// Unsettled orders whose VM was found `Running` on a plant at
    /// recovery and adopted without re-execution.
    orders_adopted: Counter,
    /// Unsettled orders re-dispatched to their journaled plant under
    /// the journaled key (the dedup cache absorbs the duplicate).
    orders_resumed: Counter,
    /// Unsettled orders provably lost (no plant knows them) and re-run
    /// through a fresh bid round.
    orders_restarted: Counter,
}

/// Completion callback for one plant call (decoded response or local
/// failure such as the watchdog's `Unresponsive`).
type CallDone = Box<dyn FnOnce(&mut Engine, Result<Response, PlantError>)>;

/// One in-flight request envelope awaiting its response.
struct PendingCall {
    /// The plant expected to answer; responses from anyone else (e.g. a
    /// plant abandoned by an earlier attempt) are dropped.
    plant: Rc<str>,
    /// Shop epoch the request was issued under.
    epoch: u64,
    /// The pending retransmission timer.
    retransmit: EventId,
    /// The attempt-timeout watchdog.
    watchdog: EventId,
    handler: CallDone,
}

/// The VMShop front-end. Cheap `Rc` handle.
#[derive(Clone)]
pub struct VmShop {
    /// The shop's name, fixed at construction: held outside the mutable
    /// state and shared by every envelope the shop sends.
    name: Rc<str>,
    inner: Rc<RefCell<ShopState>>,
}

/// Mutable per-order recovery state threaded through re-bid attempts.
struct Attempt {
    order: ProductionOrder,
    vm_id: VmId,
    requested_at: SimTime,
    /// Plants that already failed this order (re-bid exclusion list).
    excluded: Vec<Rc<str>>,
    /// Zero-based dispatch count (drives the backoff exponent).
    attempt: u32,
    /// Most recent plant failure, for terminal error reports.
    last_err: Option<PlantError>,
    /// The order's root trace span (closed by `respond_create`).
    span: SpanId,
    /// Shop incarnation that owns this attempt chain: a crash bumps the
    /// epoch, so continuations scheduled by a dead incarnation no-op.
    epoch: u64,
    /// The client idempotency key, when the order came through
    /// [`VmShop::create_keyed`] (drives resubmission dedup and waiter
    /// draining).
    client_key: Option<String>,
}

/// Completion callback for asynchronous shop services.
pub type ShopDone = Box<dyn FnOnce(&mut Engine, Result<ClassAd, ShopError>)>;

/// Completion callback for publish: the registered golden image id.
pub type ShopDoneGolden =
    Box<dyn FnOnce(&mut Engine, Result<vmplants_warehouse::GoldenId, ShopError>)>;

impl VmShop {
    /// A shop with an empty registry.
    pub fn new(name: impl Into<String>, mut rng: SimRng) -> VmShop {
        let transport = Transport::new(rng.fork(3));
        VmShop {
            name: name.into().into(),
            inner: Rc::new(RefCell::new(ShopState {
                registry: Registry::new(),
                brokers: Vec::new(),
                cache: ClassAdCache::new(),
                exprs: ExprCache::new(),
                rng,
                next_vm: 0,
                request_log: Vec::new(),
                msg_latency: (0.05, 0.20),
                tuning: ShopTuning::default(),
                transport,
                epoch: 0,
                next_msg: 0,
                pending: BTreeMap::new(),
                inflight: BTreeSet::new(),
                alive: true,
                journal: Journal::new(),
                client_keys: BTreeMap::new(),
                client_waiters: BTreeMap::new(),
                obs: Obs::disabled(),
                obs_track: TrackId::DEFAULT,
                bids_requested: Counter::new(),
                retransmits: Counter::new(),
                watchdog_fires: Counter::new(),
                journal_records: Counter::new(),
                recoveries: Counter::new(),
                orders_adopted: Counter::new(),
                orders_resumed: Counter::new(),
                orders_restarted: Counter::new(),
            })),
        }
    }

    /// Attach an observability sink: every order gets a root `order` span
    /// (with a `bid` child per bidding round) on a track named after the
    /// shop, the shop's protocol counters are registered as
    /// `shop.bids_requested`/`shop.retransmits`/`shop.watchdog_fires`,
    /// and the shop's transport joins the same registry.
    pub fn set_obs(&self, obs: &Obs) {
        let transport = {
            let mut state = self.inner.borrow_mut();
            state.obs = obs.clone();
            state.obs_track = obs.track(&self.name);
            obs.register_counter("shop.bids_requested", &state.bids_requested);
            obs.register_counter("shop.retransmits", &state.retransmits);
            obs.register_counter("shop.watchdog_fires", &state.watchdog_fires);
            obs.register_counter("shop.journal_records", &state.journal_records);
            obs.register_counter("shop.recoveries", &state.recoveries);
            obs.register_counter("shop.orders_adopted", &state.orders_adopted);
            obs.register_counter("shop.orders_resumed", &state.orders_resumed);
            obs.register_counter("shop.orders_restarted", &state.orders_restarted);
            state.transport.clone()
        };
        transport.set_obs(obs);
    }

    /// Replace the robustness knobs (deadlines, watchdog, backoff).
    pub fn set_tuning(&self, tuning: ShopTuning) {
        self.inner.borrow_mut().tuning = tuning;
    }

    /// Current robustness knobs.
    pub fn tuning(&self) -> ShopTuning {
        self.inner.borrow().tuning.clone()
    }

    /// The shop↔plant message fabric. Chaos scenarios raise loss /
    /// duplication / reordering / partition windows on it; tests read
    /// its stats and trace.
    pub fn transport(&self) -> Transport {
        self.inner.borrow().transport.clone()
    }

    /// Shop incarnation (bumped by [`VmShop::recover`]).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// Shop name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Publish a plant into the shop's registry.
    pub fn register_plant(&self, plant: Plant) {
        self.inner.borrow_mut().registry.publish_plant(plant);
    }

    /// Register a broker (indirect bidding path).
    pub fn register_broker(&self, broker: VmBroker) {
        self.inner.borrow_mut().brokers.push(broker);
    }

    /// All plants reachable directly or through brokers.
    pub fn plants(&self) -> Vec<Plant> {
        let state = self.inner.borrow();
        let mut plants = state.registry.discover_plants();
        // A broker-fronted plant joins once, whether it is also
        // registered directly or fronted by several brokers.
        for broker in &state.brokers {
            for p in broker.plants() {
                if !plants.iter().any(|q| q.name() == p.name()) {
                    plants.push(p.clone());
                }
            }
        }
        plants
    }

    /// The creation log (Figure 4's data source).
    pub fn request_log(&self) -> Vec<ShopRequestLog> {
        self.inner.borrow().request_log.clone()
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.borrow().cache.stats()
    }

    /// Expression-cache statistics `(hits, misses)` — how often order
    /// `requirements`/`select` constraints were served pre-parsed.
    pub fn expr_cache_stats(&self) -> (u64, u64) {
        self.inner.borrow().exprs.stats()
    }

    /// Query the soft cache for VMs whose cached classads satisfy a
    /// constraint expression (the `condor_status -constraint` idiom):
    /// the constraint is parsed once per distinct text and evaluated
    /// against each cached ad, keeping those for which it is `true`.
    /// Returns matches in VMID order. Purely a cache view: after a
    /// [`VmShop::crash`] it is empty until [`VmShop::recover`] restores
    /// the live VMs.
    pub fn select(
        &self,
        constraint: &str,
    ) -> Result<Vec<(VmId, ClassAd)>, vmplants_classad::ParseError> {
        let mut state = self.inner.borrow_mut();
        let expr = state.exprs.parse(constraint)?;
        Ok(state
            .cache
            .iter()
            .filter(|(_, e)| expr.eval_solo(&e.ad).is_true())
            .map(|(id, e)| (id.clone(), e.ad.clone()))
            .collect())
    }

    /// Whether the shop process is up.
    pub fn is_alive(&self) -> bool {
        self.inner.borrow().alive
    }

    /// The order journal's textual trace — one line per record,
    /// byte-comparable across same-seed runs.
    pub fn journal_text(&self) -> String {
        self.inner.borrow().journal.render()
    }

    /// Number of records appended to the order journal.
    pub fn journal_len(&self) -> usize {
        self.inner.borrow().journal.len()
    }

    /// Number of classads the order journal holds: one per VM it
    /// published that the shop has not since destroyed.
    pub fn journal_ads(&self) -> usize {
        self.inner.borrow().journal.live_ads().count()
    }

    /// The shop process dies. Every volatile structure is lost — soft
    /// cache, pending plant calls (their timers are cancelled), order
    /// bookkeeping, client waiters — while the write-ahead journal
    /// survives. Continuations already scheduled by this life no-op
    /// through the epoch guard; [`VmShop::recover`] starts the next
    /// incarnation.
    pub fn crash(&self, engine: &mut Engine) {
        let pending = {
            let mut state = self.inner.borrow_mut();
            if !state.alive {
                return;
            }
            state.alive = false;
            state.cache.clear();
            state.inflight.clear();
            state.client_keys.clear();
            state.client_waiters.clear();
            std::mem::take(&mut state.pending)
        };
        for (_, p) in pending {
            engine.cancel(p.watchdog);
            engine.cancel(p.retransmit);
        }
    }

    /// Restart after [`VmShop::crash`] — the shop's one restart model.
    /// Bump the incarnation and ask each live plant once for its VMs
    /// and their states (§3.1: the plants own VM state). Against that
    /// census, re-cache every journal-published VM its journaled plant
    /// still hosts or did not answer for, reconcile every unsettled
    /// order (adopt, resume or restart), and, with journaling on, reap
    /// `Running` VMs the journal never recorded. Settled orders are
    /// never re-executed: resubmissions are answered from the journal.
    ///
    /// # Panics
    ///
    /// Panics when the shop is still alive — recovery without a crash
    /// would silently fork the incarnation bookkeeping.
    pub fn recover(&self, engine: &mut Engine) -> RecoveryStats {
        let (epoch, span, unsettled) = {
            let mut state = self.inner.borrow_mut();
            assert!(!state.alive, "recover() without a preceding crash()");
            state.alive = true;
            state.epoch += 1;
            state.recoveries.inc();
            let span = state
                .obs
                .span_start(SpanId::NONE, state.obs_track, "recovery", engine.now());
            state.obs.span_attr(span, "incarnation", state.epoch);
            (state.epoch, span, state.journal.unsettled())
        };
        // The one interrogation: each live plant with the VMs it hosts.
        let census: Census = self
            .plants()
            .into_iter()
            .filter_map(|plant| {
                let vms = plant
                    .list_vms()
                    .ok()?
                    .into_iter()
                    .filter_map(|id| Some((id.clone(), plant.vm_state(&id).ok()??)))
                    .collect();
                Some((plant, vms))
            })
            .collect();
        let settled = {
            let now = engine.now();
            let mut state = self.inner.borrow_mut();
            let ShopState { journal, cache, .. } = &mut *state;
            for (vm_id, plant, ad) in journal.live_ads() {
                // The journal follows migrations, so the journaled plant
                // is the one hosting the VM. Keep the VM cached there when
                // that plant reports it, or did not answer (the orphan
                // sweep then spares it once the plant is back); a VM its
                // answering plant no longer hosts is left out.
                let answer = census.iter().find(|(p, _)| p.name() == plant);
                if answer.is_none_or(|(_, vms)| vms.contains_key(vm_id)) {
                    cache.put(vm_id.clone(), ad.clone(), plant.to_owned(), now);
                }
            }
            journal.settled_count()
        };
        let mut stats = RecoveryStats {
            incarnation: epoch,
            settled,
            ..RecoveryStats::default()
        };
        for (vm_id, journaled) in unsettled {
            self.reconcile_order(engine, epoch, &census, vm_id, journaled, &mut stats);
        }
        // Only Running VMs: a plant refuses to collect one still in
        // production, publishing or migrating, so those orphans are left
        // to a later gc_orphans.
        if self.inner.borrow().tuning.journal {
            for (plant, vms) in &census {
                let running = vms
                    .iter()
                    .filter(|(_, state)| **state == VmState::Running)
                    .map(|(id, _)| id.clone());
                stats.reaped += self.reap_unknown(engine, plant, running);
            }
        }
        {
            let state = self.inner.borrow();
            state.orders_adopted.add(stats.adopted as u64);
            state.orders_resumed.add(stats.resumed as u64);
            state.orders_restarted.add(stats.restarted as u64);
            state.obs.span_attr(span, "adopted", stats.adopted);
            state.obs.span_attr(span, "resumed", stats.resumed);
            state.obs.span_attr(span, "restarted", stats.restarted);
            state.obs.span_attr(span, "reaped", stats.reaped);
            state.obs.span_end(span, engine.now());
        }
        stats
    }

    /// Decide one unsettled order's fate against the census: adopt its
    /// VM where it runs, resume it on its last journaled plant while
    /// that plant is alive, or restart it from a fresh bid round.
    fn reconcile_order(
        &self,
        engine: &mut Engine,
        epoch: u64,
        census: &Census,
        vm_id: VmId,
        journaled: crate::journal::OrderState,
        stats: &mut RecoveryStats,
    ) {
        let now = engine.now();
        let OrderStatus::Pending(order) = journaled.status else {
            unreachable!("Journal::unsettled returns pending orders only");
        };
        let running_on = census
            .iter()
            .find(|(_, vms)| vms.get(&vm_id) == Some(&VmState::Running))
            .map(|(plant, _)| plant);
        // Adopt: the production finished while the shop was down. The
        // VM is cached (so gc_orphans keeps its hands off) and the
        // outcome journaled; the client's resubmission replays it.
        if let Some(plant) = running_on {
            if let Ok(ad) = plant.query(engine, &vm_id) {
                let mut state = self.inner.borrow_mut();
                state
                    .cache
                    .put(vm_id.clone(), ad.clone(), plant.name().to_owned(), now);
                if state.tuning.journal {
                    state
                        .journal
                        .published(vm_id.clone(), plant.name().to_owned(), ad, now);
                    state.journal_records.inc();
                }
                state.request_log.push(ShopRequestLog {
                    vm_id: vm_id.clone(),
                    memory_mb: order.spec.memory_mb,
                    plant: plant.name().to_owned(),
                    requested_at: journaled.received_at,
                    responded_at: now,
                    latency: now.since(journaled.received_at),
                    success: true,
                    attempts: journaled.dispatches.len().max(1) as u32,
                });
                stats.adopted += 1;
                return;
            }
        }
        let resume_on = journaled.dispatches.last().and_then(|(name, attempt)| {
            let (plant, _) = census.iter().find(|(plant, _)| plant.name() == name)?;
            Some((plant.clone(), *attempt))
        });
        let how = if resume_on.is_some() {
            "resumed"
        } else {
            "restarted"
        };
        let span = self.recovered_order_span(engine, &vm_id, how);
        let mut order = order;
        order.trace_parent = span;
        self.register_recovered(&journaled.key, &vm_id);
        let mut att = Attempt {
            order,
            vm_id,
            requested_at: journaled.received_at,
            excluded: Vec::new(),
            attempt: 0,
            last_err: None,
            span,
            epoch,
            client_key: Some(journaled.key),
        };
        match resume_on {
            // Resume: re-dispatch under the *journaled* key. The plant's
            // dedup cache drops the duplicate while the original is in
            // flight or producing and replays the recorded answer once
            // it settles.
            Some((plant, attempt)) => {
                stats.resumed += 1;
                att.attempt = attempt;
                self.dispatch_to_plant(engine, att, plant, Box::new(|_, _| {}));
            }
            // The last journaled plant is down or the order never left
            // the shop: re-run from a fresh bid round under a *fresh*
            // dispatch key — never reuse a journaled key against a
            // different plant. A crashed host took any production with
            // it; a `fail()`ed plant may still be producing, and the
            // copy it finishes is reaped by gc_orphans once it is back.
            None => {
                stats.restarted += 1;
                att.attempt = journaled
                    .dispatches
                    .iter()
                    .map(|(_, a)| *a + 1)
                    .max()
                    .unwrap_or(0);
                self.attempt_create(engine, att, Box::new(|_, _| {}));
            }
        }
    }

    /// A fresh `order` span for an order carried across incarnations.
    fn recovered_order_span(&self, engine: &Engine, vm_id: &VmId, how: &str) -> SpanId {
        let state = self.inner.borrow_mut();
        let span = state
            .obs
            .trace_root(state.obs_track, "order", &vm_id.0, engine.now());
        state.obs.span_attr(span, "vmid", vm_id);
        state.obs.span_attr(span, "recovered", how);
        span
    }

    /// Re-register a recovered order's volatile bookkeeping so client
    /// resubmissions attach to it instead of forking a second
    /// execution.
    fn register_recovered(&self, key: &str, vm_id: &VmId) {
        let mut state = self.inner.borrow_mut();
        state.client_keys.insert(key.to_owned(), vm_id.clone());
        state.inflight.insert(vm_id.clone());
    }

    fn sample_hop(&self) -> SimDuration {
        let mut state = self.inner.borrow_mut();
        let (lo, hi) = state.msg_latency;
        SimDuration::from_secs_f64(state.rng.uniform(lo, hi))
    }

    /// Issue one idempotent request to `plant` over the unreliable
    /// transport: frame it in an envelope under `key`, retransmit with
    /// capped exponential backoff until a response arrives, and give up
    /// (with [`PlantError::Unresponsive`]) when the attempt timeout
    /// passes. Retransmissions reuse the same envelope, so the plant's
    /// dedup cache recognizes them and replays rather than re-executes.
    ///
    /// A key already in flight is rejected immediately — callers issue
    /// one logical request per key at a time.
    fn call_plant(
        &self,
        engine: &mut Engine,
        plant: Plant,
        key: Rc<str>,
        request: Request,
        on_done: CallDone,
    ) {
        let (env, timeout) = {
            let mut state = self.inner.borrow_mut();
            if state.pending.contains_key(&key) {
                drop(state);
                engine.schedule(SimDuration::ZERO, move |engine| {
                    on_done(
                        engine,
                        Err(PlantError::InvalidOrder(format!(
                            "request '{key}' is already in flight"
                        ))),
                    )
                });
                return;
            }
            let seq = state.next_msg;
            state.next_msg += 1;
            (
                Envelope::request(Rc::clone(&self.name), state.epoch, seq, key, request),
                state.tuning.attempt_timeout,
            )
        };
        // Watchdog: no response within the attempt timeout — despite
        // retransmissions — means the plant or both directions of the
        // link are gone. Treat as Unresponsive.
        let shop = self.clone();
        let key = Rc::clone(&env.key);
        let watchdog = engine.schedule(timeout, move |engine| {
            let p = shop.inner.borrow_mut().pending.remove(&key);
            if let Some(p) = p {
                shop.inner.borrow().watchdog_fires.inc();
                engine.cancel(p.retransmit);
                (p.handler)(engine, Err(PlantError::Unresponsive));
            }
        });
        self.inner.borrow_mut().pending.insert(
            Rc::clone(&env.key),
            PendingCall {
                plant: plant.shared_name(),
                epoch: env.epoch,
                // Placeholder until the first transmit schedules the
                // real timer.
                retransmit: watchdog,
                watchdog,
                handler: on_done,
            },
        );
        self.transmit(engine, plant, env, 0);
    }

    /// Transmit (or retransmit) a request envelope and arm the next
    /// retransmission timer. No-op once the call has settled.
    fn transmit(&self, engine: &mut Engine, plant: Plant, env: Envelope, attempt: u32) {
        {
            let state = self.inner.borrow();
            if !state.pending.contains_key(&env.key) {
                return;
            }
            if attempt > 0 {
                state.retransmits.inc();
            }
        }
        let transport = self.transport();
        // The plant answers through this closure: the response envelope
        // makes its own unreliable hop back to the shop.
        let reply: ReplyFn = {
            let shop = self.clone();
            let transport = transport.clone();
            let plant_name = plant.shared_name();
            Rc::new(move |engine: &mut Engine, renv: Envelope| {
                let label = renv.trace_label();
                let shop_d = shop.clone();
                transport.send(engine, &plant_name, &shop.name, label, move |engine| {
                    shop_d.deliver_response(engine, renv.clone())
                });
            })
        };
        let env_d = env.clone();
        let plant_d = plant.clone();
        transport.send(
            engine,
            &self.name,
            plant.name(),
            env.trace_label(),
            move |engine| plant_d.serve(engine, env_d.clone(), Rc::clone(&reply)),
        );
        let rto = self.rto_for(attempt);
        let shop = self.clone();
        let key = Rc::clone(&env.key);
        let retransmit = engine.schedule(rto, move |engine| {
            shop.transmit(engine, plant, env, attempt + 1);
        });
        if let Some(p) = self.inner.borrow_mut().pending.get_mut(&key) {
            p.retransmit = retransmit;
        }
    }

    /// A response envelope arrived. Settle the matching pending call;
    /// drop duplicates, answers from unexpected plants, and answers
    /// addressed to a previous shop incarnation.
    fn deliver_response(&self, engine: &mut Engine, env: Envelope) {
        let pending = {
            let mut state = self.inner.borrow_mut();
            match state.pending.get(&env.key) {
                Some(p)
                    if p.plant == env.from
                        && env.reply_epoch == Some(p.epoch)
                        && matches!(env.body, Payload::Response(_)) =>
                {
                    state.pending.remove(&env.key)
                }
                _ => None,
            }
        };
        let Some(p) = pending else { return };
        engine.cancel(p.watchdog);
        engine.cancel(p.retransmit);
        if let Payload::Response(response) = env.body {
            (p.handler)(engine, Ok(response));
        }
    }

    /// Capped exponential retransmission timeout for (re)transmission
    /// number `attempt`.
    fn rto_for(&self, attempt: u32) -> SimDuration {
        let tuning = &self.inner.borrow().tuning;
        let shift = attempt.min(16);
        SimDuration::from_millis(
            (tuning.rto_base.as_millis() << shift).min(tuning.rto_cap.as_millis()),
        )
    }

    /// **Create**: assign a VMID, run the bidding protocol, dispatch to
    /// the winning plant under a watchdog timeout, and re-bid elsewhere
    /// (with exponential backoff, excluding failed plants) on retryable
    /// infrastructure faults — until the per-order deadline. Caches the
    /// classad and responds. A crashed shop refuses with
    /// [`ShopError::ShopDown`] and journals nothing.
    pub fn create(&self, engine: &mut Engine, mut order: ProductionOrder, done: ShopDone) {
        if !self.is_alive() {
            let outbound = self.sample_hop();
            engine.schedule(outbound, move |engine| done(engine, Err(ShopError::ShopDown)));
            return;
        }
        let requested_at = engine.now();
        let vm_id = match &order.vm_id {
            Some(id) => id.clone(),
            None => {
                let mut state = self.inner.borrow_mut();
                let seq = state.next_vm;
                state.next_vm += 1;
                let id = VmId(format!("vm-{}-{:05}", self.name, seq));
                drop(state);
                id
            }
        };
        order.vm_id = Some(vm_id.clone());
        let epoch = {
            let mut state = self.inner.borrow_mut();
            // WAL: the order is durable the moment it is accepted. A
            // direct call has no client key; synthesize one.
            if state.tuning.journal {
                let key = format!("order:{vm_id}");
                state
                    .journal
                    .received(key, vm_id.clone(), order.clone(), requested_at);
                state.journal_records.inc();
            }
            state.epoch
        };
        let span = {
            let mut state = self.inner.borrow_mut();
            state.inflight.insert(vm_id.clone());
            // Keyed root: in sampled mode the VMID drives the
            // deterministic head-sampling decision.
            let span = state
                .obs
                .trace_root(state.obs_track, "order", &vm_id.0, requested_at);
            state.obs.span_attr(span, "vmid", &vm_id);
            span
        };
        // Propagate the trace context so the serving plant parents its
        // `produce` span under this order.
        order.trace_parent = span;
        let shop = self.clone();
        // Inbound hop: client -> shop.
        let inbound = self.sample_hop();
        engine.schedule(inbound, move |engine| {
            shop.attempt_create(
                engine,
                Attempt {
                    order,
                    vm_id,
                    requested_at,
                    excluded: Vec::new(),
                    attempt: 0,
                    last_err: None,
                    span,
                    epoch,
                    client_key: None,
                },
                done,
            );
        });
    }

    /// **Create, keyed** — the client-failover entry point. `key` is
    /// the client's idempotency key: stable across resubmissions of
    /// one logical order, across shop incarnations. A resubmission
    /// whose order already settled is answered straight from the
    /// journal (zero re-execution); one still in flight attaches to
    /// the original and both get the single result; a dead shop
    /// refuses immediately with [`ShopError::ShopDown`] so the client
    /// can back off and resubmit to the next incarnation.
    pub fn create_keyed(
        &self,
        engine: &mut Engine,
        key: String,
        order: ProductionOrder,
        done: ShopDone,
    ) {
        let shop = self.clone();
        // Inbound hop: client -> shop.
        let inbound = self.sample_hop();
        engine.schedule(inbound, move |engine| {
            shop.admit_keyed(engine, key, order, done);
        });
    }

    /// The shop side of a keyed submission, after the inbound hop.
    fn admit_keyed(&self, engine: &mut Engine, key: String, mut order: ProductionOrder, done: ShopDone) {
        let mut state = self.inner.borrow_mut();
        // Connection refused: the process is down. The client's
        // failover loop treats this as retryable.
        if !state.alive {
            drop(state);
            let outbound = self.sample_hop();
            engine.schedule(outbound, move |engine| done(engine, Err(ShopError::ShopDown)));
            return;
        }
        // Settled in a previous (or this) life: replay the journaled
        // outcome without re-executing anything.
        if let Some((vm_id, outcome)) = state.journal.outcome_for_key(&key) {
            let result = match outcome {
                JournalOutcome::Published { ad, .. } => Ok(ad.clone()),
                JournalOutcome::Destroyed => Err(ShopError::UnknownVm(vm_id.clone())),
                JournalOutcome::Failed { error } => Err(ShopError::Journaled(error.clone())),
            };
            drop(state);
            let outbound = self.sample_hop();
            engine.schedule(outbound, move |engine| done(engine, result));
            return;
        }
        // Still in flight in this incarnation: attach — the settle path
        // answers the original and every waiter with the one result.
        if state.client_keys.contains_key(&key) {
            state.client_waiters.entry(key).or_default().push(done);
            return;
        }
        // A fresh order.
        let requested_at = engine.now();
        let vm_id = match &order.vm_id {
            Some(id) => id.clone(),
            None => {
                let seq = state.next_vm;
                state.next_vm += 1;
                VmId(format!("vm-{}-{:05}", self.name, seq))
            }
        };
        order.vm_id = Some(vm_id.clone());
        if state.tuning.journal {
            state
                .journal
                .received(key.clone(), vm_id.clone(), order.clone(), requested_at);
            state.journal_records.inc();
        }
        state.client_keys.insert(key.clone(), vm_id.clone());
        state.inflight.insert(vm_id.clone());
        let span = state
            .obs
            .trace_root(state.obs_track, "order", &vm_id.0, requested_at);
        state.obs.span_attr(span, "vmid", &vm_id);
        let epoch = state.epoch;
        drop(state);
        order.trace_parent = span;
        self.attempt_create(
            engine,
            Attempt {
                order,
                vm_id,
                requested_at,
                excluded: Vec::new(),
                attempt: 0,
                last_err: None,
                span,
                epoch,
                client_key: Some(key),
            },
            done,
        );
    }

    /// Is the shop up and still in the incarnation that scheduled a
    /// continuation? Attempt chains check this so a crash strands
    /// them instead of letting a dead life answer orders.
    fn alive_in_epoch(&self, epoch: u64) -> bool {
        let state = self.inner.borrow();
        state.alive && state.epoch == epoch
    }

    fn attempt_create(&self, engine: &mut Engine, mut att: Attempt, done: ShopDone) {
        // A continuation from a crashed incarnation: the journal owns
        // the order now; recovery will resume or restart it.
        if !self.alive_in_epoch(att.epoch) {
            return;
        }
        let tuning = self.inner.borrow().tuning.clone();
        // Per-order deadline: stop recovering, report the last failure.
        if let Some(deadline) = tuning.order_deadline {
            if engine.now().since_saturating(att.requested_at) >= deadline {
                let last = att.last_err.take();
                return self.respond_create(
                    engine,
                    att,
                    None,
                    Err(ShopError::DeadlineExceeded(last)),
                    done,
                );
            }
        }
        let plants = self.plants();
        if plants.is_empty() {
            return self.respond_create(engine, att, None, Err(ShopError::NoPlants), done);
        }
        // Degraded mode: with too few live plants, shed the order rather
        // than pile work on the survivors.
        let alive = plants.iter().filter(|p| p.is_alive()).count();
        if alive < tuning.min_live_plants {
            return self.respond_create(
                engine,
                att,
                None,
                Err(ShopError::Degraded {
                    alive,
                    required: tuning.min_live_plants,
                }),
                done,
            );
        }
        // Requirements filter (§3.4's Condor-style matchmaking): only
        // plants whose resource ad satisfies the order's constraint may
        // bid. The expression is parsed once per distinct text, then
        // evaluated against each plant's resource ad; when no constraint
        // is set this path is untouched (determinism of existing runs
        // preserved).
        let plants = match &att.order.requirements {
            None => plants,
            Some(text) => {
                let parsed = self.inner.borrow_mut().exprs.parse(text);
                match parsed {
                    Ok(expr) => plants
                        .into_iter()
                        .filter(|p| expr.eval_solo(&p.resource_ad()).is_true())
                        .collect(),
                    Err(e) => {
                        return self.respond_create(
                            engine,
                            att,
                            None,
                            Err(ShopError::Plant(PlantError::InvalidOrder(format!(
                                "bad requirements: {e}"
                            )))),
                            done,
                        );
                    }
                }
            }
        };
        // One bid round-trip to the plants (they answer in parallel; the
        // round costs roughly one hop each way).
        let bid_round = self.sample_hop() + self.sample_hop();
        {
            let mut state = self.inner.borrow_mut();
            state.bids_requested.add(plants.len() as u64);
            if state.tuning.journal {
                state
                    .journal
                    .bids_requested(att.vm_id.clone(), plants.len(), engine.now());
                state.journal_records.inc();
            }
            state.obs.span(
                att.span,
                state.obs_track,
                "bid",
                engine.now(),
                engine.now() + bid_round,
            );
        }
        let shop = self.clone();
        engine.schedule(bid_round, move |engine| {
            // The shop died while the bids were in flight.
            if !shop.alive_in_epoch(att.epoch) {
                return;
            }
            let bids = collect_bids(&plants, &att.order);
            let winner = {
                let mut state = shop.inner.borrow_mut();
                select_bid(&bids, &att.excluded, &mut state.rng)
            };
            let Some(bid) = winner else {
                if att.last_err.is_none() {
                    // Nobody was even eligible on the first try: fail
                    // fast rather than wait out the deadline.
                    return shop.respond_create(
                        engine,
                        att,
                        None,
                        Err(ShopError::AllPlantsExcluded),
                        done,
                    );
                }
                // Every candidate failed retryably this round. The
                // faults may be transient (lost messages, rebooting
                // hosts): forgive the exclusions, back off, and re-bid
                // until the order deadline gives up for us.
                att.excluded.clear();
                let backoff = shop.backoff_for(att.attempt);
                att.attempt += 1;
                let shop2 = shop.clone();
                engine.schedule(backoff, move |engine| {
                    shop2.attempt_create(engine, att, done);
                });
                return;
            };
            shop.dispatch_to_plant(engine, att, bid.plant, done);
        });
    }

    /// Send the order to `plant` as an idempotent envelope call:
    /// retransmissions recover lost messages, the plant's dedup cache
    /// absorbs duplicates, and the watchdog inside [`VmShop::call_plant`]
    /// turns a persistent silence into `Unresponsive` so the re-bid
    /// machinery can move on.
    fn dispatch_to_plant(&self, engine: &mut Engine, att: Attempt, plant: Plant, done: ShopDone) {
        let plant_name = plant.shared_name();
        // The key is per (order, dispatch): retransmissions of this
        // dispatch share it, while a later re-bid — possibly to the same
        // plant — is a fresh logical request and must not replay this
        // one's cached outcome.
        let key = format!("create:{}:{}", att.vm_id.0, att.attempt);
        {
            let mut state = self.inner.borrow_mut();
            if state.tuning.journal {
                state.journal.dispatched(
                    att.vm_id.clone(),
                    plant_name.to_string(),
                    att.attempt,
                    engine.now(),
                );
                state.journal_records.inc();
            }
        }
        let order = att.order.clone();
        let shop = self.clone();
        self.call_plant(
            engine,
            plant,
            key.into(),
            Request::Create(order),
            Box::new(move |engine, res| match res {
                Ok(Response::Ad(ad)) => {
                    shop.respond_create(engine, att, Some(plant_name), Ok(ad), done)
                }
                Ok(Response::Error { code, message }) => shop.retry_or_fail(
                    engine,
                    att,
                    plant_name,
                    code.into_plant_error(message),
                    done,
                ),
                Ok(other) => shop.retry_or_fail(
                    engine,
                    att,
                    plant_name,
                    PlantError::InvalidOrder(format!(
                        "unexpected '{}' response to create",
                        other.label()
                    )),
                    done,
                ),
                Err(err) => shop.retry_or_fail(engine, att, plant_name, err, done),
            }),
        );
    }

    /// A plant failed the attempt: re-bid elsewhere after exponential
    /// backoff when the fault is infrastructure, report otherwise.
    fn retry_or_fail(
        &self,
        engine: &mut Engine,
        mut att: Attempt,
        plant_name: Rc<str>,
        err: PlantError,
        done: ShopDone,
    ) {
        if !retryable(&err) {
            return self.respond_create(
                engine,
                att,
                Some(plant_name),
                Err(ShopError::AllPlantsFailed(err)),
                done,
            );
        }
        att.excluded.push(plant_name);
        let backoff = self.backoff_for(att.attempt);
        att.attempt += 1;
        att.last_err = Some(err);
        let shop = self.clone();
        engine.schedule(backoff, move |engine| {
            shop.attempt_create(engine, att, done);
        });
    }

    /// Exponential backoff for re-bid attempt number `attempt`, capped.
    fn backoff_for(&self, attempt: u32) -> SimDuration {
        let tuning = &self.inner.borrow().tuning;
        let shift = attempt.min(16);
        SimDuration::from_millis(
            (tuning.backoff_base.as_millis() << shift).min(tuning.backoff_cap.as_millis()),
        )
    }

    fn respond_create(
        &self,
        engine: &mut Engine,
        att: Attempt,
        plant: Option<Rc<str>>,
        result: Result<ClassAd, ShopError>,
        done: ShopDone,
    ) {
        let outbound = self.sample_hop();
        let shop = self.clone();
        let Attempt {
            order,
            vm_id,
            requested_at,
            attempt,
            span,
            client_key,
            ..
        } = att;
        let memory_mb = order.spec.memory_mb;
        // WAL: the outcome is durable the moment it is decided. If the
        // shop dies during the outbound hop, the client's resubmission
        // is answered from this record instead of re-executing.
        {
            let mut state = self.inner.borrow_mut();
            if state.tuning.journal {
                let now = engine.now();
                match &result {
                    Ok(ad) => state.journal.published(
                        vm_id.clone(),
                        plant.as_deref().unwrap_or_default().to_owned(),
                        ad.clone(),
                        now,
                    ),
                    Err(e) => state.journal.failed(vm_id.clone(), e.to_string(), now),
                }
                state.journal_records.inc();
            }
        }
        engine.schedule(outbound, move |engine| {
            let responded_at = engine.now();
            let waiters = {
                let mut state = shop.inner.borrow_mut();
                state.inflight.remove(&vm_id);
                state.obs.span_attr(span, "attempts", attempt + 1);
                if result.is_err() {
                    state.obs.span_attr(span, "outcome", "failed");
                }
                state.obs.span_end(span, responded_at);
                if let (Ok(ad), Some(plant_name)) = (&result, &plant) {
                    state.cache.put(
                        vm_id.clone(),
                        ad.clone(),
                        plant_name.to_string(),
                        responded_at,
                    );
                }
                state.request_log.push(ShopRequestLog {
                    vm_id,
                    memory_mb,
                    plant: plant.as_deref().unwrap_or_default().to_owned(),
                    requested_at,
                    responded_at,
                    latency: responded_at.since(requested_at),
                    success: result.is_ok(),
                    attempts: attempt + 1,
                });
                match &client_key {
                    Some(key) => {
                        state.client_keys.remove(key);
                        state.client_waiters.remove(key).unwrap_or_default()
                    }
                    None => Vec::new(),
                }
            };
            // Resubmissions that attached mid-flight all get the one
            // result — the single-execution guarantee made visible.
            for waiter in waiters {
                waiter(engine, result.clone());
            }
            done(engine, result);
        });
    }

    /// Reap orphaned VMs: instances a live plant hosts that the shop
    /// neither cached nor has in flight. Orphans appear when a creation
    /// response is lost (the shop re-bids; the original VM keeps running)
    /// — the grid equivalent of a leaked allocation. Returns the number
    /// of collections initiated.
    pub fn gc_orphans(&self, engine: &mut Engine) -> usize {
        let mut reaped = 0;
        for plant in self.plants() {
            if let Ok(ids) = plant.list_vms() {
                reaped += self.reap_unknown(engine, &plant, ids);
            }
        }
        reaped
    }

    /// Collect every VM of `ids` that `plant` hosts and the shop does
    /// not know there. A VM is only "known" on its *authoritative*
    /// plant: a duplicate left on a losing plant (its creation response
    /// was lost and the shop re-bid elsewhere) is reaped even though
    /// the winning copy is cached.
    fn reap_unknown(
        &self,
        engine: &mut Engine,
        plant: &Plant,
        ids: impl IntoIterator<Item = VmId>,
    ) -> usize {
        let mut reaped = 0;
        for id in ids {
            let known = {
                let state = self.inner.borrow();
                state.cache.plant_of(&id) == Some(plant.name()) || state.inflight.contains(&id)
            };
            if !known {
                reaped += 1;
                plant.collect(engine, &id, Box::new(|_, _| {}));
            }
        }
        reaped
    }

    /// **Query**: serve from the authoritative plant (refreshing the
    /// cache); fall back to a search across plants on a cache miss — the
    /// cache is an accelerator, never the source of truth.
    pub fn query(&self, engine: &mut Engine, id: &VmId, done: ShopDone) {
        let id = id.clone();
        let shop = self.clone();
        let hop = self.sample_hop() + self.sample_hop();
        engine.schedule(hop, move |engine| {
            let result = shop.query_now(engine, &id);
            done(engine, result);
        });
    }

    fn query_now(&self, engine: &Engine, id: &VmId) -> Result<ClassAd, ShopError> {
        // Fast path: the cache knows the authoritative plant.
        let cached_plant = self.inner.borrow().cache.plant_of(id).map(str::to_owned);
        if let Some(name) = cached_plant {
            let plant = self.inner.borrow().registry.bind_plant(&name);
            if let Some(plant) = plant {
                match plant.query(engine, id) {
                    Ok(ad) => {
                        self.inner.borrow_mut().cache.put(
                            id.clone(),
                            ad.clone(),
                            name,
                            engine.now(),
                        );
                        return Ok(ad);
                    }
                    Err(PlantError::UnknownVm(_)) => {
                        self.inner.borrow_mut().cache.invalidate(id);
                    }
                    Err(PlantError::PlantDown) => {
                        // Fall through to the search; the VM may have been
                        // migrated or the plant may come back.
                    }
                    Err(e) => return Err(ShopError::Plant(e)),
                }
            }
        }
        // Slow path: ask every live plant.
        for plant in self.plants() {
            match plant.query(engine, id) {
                Ok(ad) => {
                    self.inner.borrow_mut().cache.put(
                        id.clone(),
                        ad.clone(),
                        plant.name().to_owned(),
                        engine.now(),
                    );
                    return Ok(ad);
                }
                Err(_) => continue,
            }
        }
        Err(ShopError::UnknownVm(id.clone()))
    }

    /// **Destroy** (collect): find the authoritative plant, collect the
    /// VM, invalidate the cache entry.
    pub fn destroy(&self, engine: &mut Engine, id: &VmId, done: ShopDone) {
        let id = id.clone();
        let shop = self.clone();
        let hop = self.sample_hop();
        engine.schedule(hop, move |engine| {
            // Resolve the plant: cache first, then search.
            let plant = shop.resolve_plant(engine, &id);
            let Some(plant) = plant else {
                return done(engine, Err(ShopError::UnknownVm(id)));
            };
            let shop2 = shop.clone();
            let id2 = id.clone();
            shop.call_plant(
                engine,
                plant,
                format!("destroy:{id}").into(),
                Request::Destroy(id.clone()),
                Box::new(move |engine, res| {
                    shop2.inner.borrow_mut().cache.invalidate(&id2);
                    match res {
                        Ok(Response::Ad(ad)) => {
                            // The VM is gone: its journaled classad goes too.
                            shop2.inner.borrow_mut().journal.destroyed(&id2);
                            done(engine, Ok(ad))
                        }
                        Ok(Response::Error { code, message }) => done(
                            engine,
                            Err(ShopError::Plant(code.into_plant_error(message))),
                        ),
                        Ok(other) => done(
                            engine,
                            Err(ShopError::Plant(PlantError::InvalidOrder(format!(
                                "unexpected '{}' response to destroy",
                                other.label()
                            )))),
                        ),
                        Err(e) => done(engine, Err(ShopError::Plant(e))),
                    }
                }),
            );
        });
    }

    /// **Publish**: suspend a running VM and register its state as a new
    /// golden image (§3.2's installer flow), routed to the authoritative
    /// plant.
    pub fn publish(
        &self,
        engine: &mut Engine,
        id: &VmId,
        golden_id: &str,
        golden_name: &str,
        done: ShopDoneGolden,
    ) {
        let id = id.clone();
        let golden_id = golden_id.to_owned();
        let golden_name = golden_name.to_owned();
        let shop = self.clone();
        let hop = self.sample_hop();
        engine.schedule(hop, move |engine| {
            let Some(plant) = shop.resolve_plant(engine, &id) else {
                return done(engine, Err(ShopError::UnknownVm(id)));
            };
            shop.call_plant(
                engine,
                plant,
                format!("publish:{id}:{golden_id}").into(),
                Request::Publish {
                    id: id.clone(),
                    golden_id: golden_id.clone(),
                    name: golden_name,
                },
                Box::new(move |engine, res| match res {
                    Ok(Response::Published { golden_id }) => {
                        done(engine, Ok(vmplants_warehouse::GoldenId(golden_id)))
                    }
                    Ok(Response::Error { code, message }) => done(
                        engine,
                        Err(ShopError::Plant(code.into_plant_error(message))),
                    ),
                    Ok(other) => done(
                        engine,
                        Err(ShopError::Plant(PlantError::InvalidOrder(format!(
                            "unexpected '{}' response to publish",
                            other.label()
                        )))),
                    ),
                    Err(e) => done(engine, Err(ShopError::Plant(e))),
                }),
            );
        });
    }

    /// **Migrate** a running VM to a named target plant (§6's "migration
    /// of active VMs across plants"). The shop resolves the authoritative
    /// source plant, drives the migration, and repoints its cache.
    pub fn migrate(&self, engine: &mut Engine, id: &VmId, target: &str, done: ShopDone) {
        let id = id.clone();
        let target = target.to_owned();
        let shop = self.clone();
        let hop = self.sample_hop();
        engine.schedule(hop, move |engine| {
            let Some(source) = shop.resolve_plant(engine, &id) else {
                return done(engine, Err(ShopError::UnknownVm(id)));
            };
            let Some(target_plant) = shop.inner.borrow().registry.bind_plant(&target) else {
                return done(
                    engine,
                    Err(ShopError::Plant(PlantError::InvalidOrder(format!(
                        "no such plant '{target}'"
                    )))),
                );
            };
            let shop2 = shop.clone();
            let id2 = id.clone();
            vmplants_plant::migrate(
                engine,
                &source,
                &target_plant,
                &id,
                None,
                Box::new(move |engine, res| match res {
                    Ok(ad) => {
                        let mut state = shop2.inner.borrow_mut();
                        // The journal follows the VM, so a recovery
                        // re-caches it at the target, not the source.
                        state.journal.migrated(&id2, target.clone(), ad.clone());
                        state.cache.put(id2, ad.clone(), target, engine.now());
                        drop(state);
                        done(engine, Ok(ad));
                    }
                    Err(e) => done(engine, Err(ShopError::Plant(e))),
                }),
            );
        });
    }

    fn resolve_plant(&self, engine: &Engine, id: &VmId) -> Option<Plant> {
        let cached = self.inner.borrow().cache.plant_of(id).map(str::to_owned);
        if let Some(name) = cached {
            if let Some(plant) = self.inner.borrow().registry.bind_plant(&name) {
                if plant.query(engine, id).is_ok() {
                    return Some(plant);
                }
            }
        }
        self.plants()
            .into_iter()
            .find(|p| p.query(engine, id).is_ok())
    }
}
