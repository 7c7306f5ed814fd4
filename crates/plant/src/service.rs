//! The plant's envelope service endpoint: at-least-once in,
//! exactly-once effect out.
//!
//! The shop retransmits request envelopes until it sees a response, so
//! the plant must tolerate the same logical request arriving many
//! times, possibly interleaved with its own crash/recovery. The
//! [`DedupCache`] records, per idempotency key, whether the request is
//! still being served (`Pending`) or finished (`Done` with the cached
//! response envelope):
//!
//! * a retransmit that finds `Pending` is dropped silently — the
//!   original execution will answer, and the shop's next retransmit
//!   will hit `Done`;
//! * a retransmit that finds `Done` gets the cached response replayed
//!   verbatim, without re-running the effect — this is what makes a
//!   duplicated `Create`/`Publish`/`Destroy` observationally
//!   exactly-once;
//! * entries are epoch-guarded: a crash bumps the plant's incarnation
//!   (PR 1) and wipes its bookkeeping, so cached answers from a
//!   previous life are evicted rather than replayed.
//!
//! The cache is bounded ([`DEDUP_CAPACITY`]) with FIFO eviction of
//! completed entries, mirroring what a real daemon would keep in a
//! fixed-size ring.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use vmplants_simkit::{Engine, SimDuration};
use vmplants_virt::VmState;

use crate::daemon::Plant;
use crate::order::PlantError;
use crate::protocol::{Envelope, Payload, Request, Response, SharedOrder};

/// Maximum completed entries the dedup cache retains.
pub const DEDUP_CAPACITY: usize = 256;

enum Slot {
    /// The request is currently executing; duplicates are dropped.
    Pending,
    /// The request finished; the response envelope is replayed for
    /// retransmits. Boxed: a settled envelope is large relative to the
    /// `Pending` marker.
    Done(Box<Envelope>),
}

struct DedupEntry {
    /// Plant incarnation the entry was created under.
    epoch: u64,
    slot: Slot,
}

/// Bounded, epoch-guarded request dedup cache (see module docs). Keys
/// are the request envelopes' shared key text, so an entry and its FIFO
/// slot copy no strings.
pub struct DedupCache {
    entries: BTreeMap<Rc<str>, DedupEntry>,
    /// Completed keys in completion order, for FIFO eviction.
    order: VecDeque<Rc<str>>,
    /// Maximum completed entries retained before FIFO eviction.
    capacity: usize,
}

impl DedupCache {
    /// An empty cache with the default capacity.
    pub(crate) fn new() -> DedupCache {
        DedupCache::with_capacity(DEDUP_CAPACITY)
    }

    /// An empty cache retaining at most `capacity` completed entries.
    pub(crate) fn with_capacity(capacity: usize) -> DedupCache {
        DedupCache {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Change the eviction bound (existing surplus entries are evicted
    /// on the next completion).
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
    }

    fn begin(&mut self, key: &Rc<str>, epoch: u64) {
        self.entries.insert(
            Rc::clone(key),
            DedupEntry {
                epoch,
                slot: Slot::Pending,
            },
        );
    }

    fn complete(&mut self, key: &Rc<str>, epoch: u64, response: Envelope) {
        match self.entries.get_mut(&**key) {
            // Only the incarnation that began the entry may complete it;
            // a continuation that straddled a crash must not publish a
            // pre-crash answer into the post-crash cache.
            Some(entry) if entry.epoch == epoch => {
                entry.slot = Slot::Done(Box::new(response));
                self.order.push_back(Rc::clone(key));
                while self.order.len() > self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                    }
                }
            }
            _ => {}
        }
    }

    /// Drop a dead incarnation's entry, and its key's place in the FIFO
    /// queue: a stale queued key would later evict the re-executed
    /// request's live answer early.
    fn forget(&mut self, key: &str) {
        if self.entries.remove(key).is_some() {
            self.order.retain(|k| &**k != key);
        }
    }

    /// Drop a `Pending` entry this incarnation began, caching no answer:
    /// the next request under `key` executes again.
    fn abandon(&mut self, key: &str, epoch: u64) {
        let pending = self
            .entries
            .get(key)
            .is_some_and(|e| e.epoch == epoch && matches!(e.slot, Slot::Pending));
        if pending {
            self.entries.remove(key);
        }
    }
}

impl Default for DedupCache {
    fn default() -> DedupCache {
        DedupCache::new()
    }
}

/// How the plant answers: a closure the caller (the shop, via the
/// transport) provides for the response envelope.
pub type ReplyFn = Rc<dyn Fn(&mut Engine, Envelope)>;

impl Plant {
    /// Serve one request envelope (the plant's side of the unreliable
    /// shop↔plant protocol). Replies — possibly replayed from the dedup
    /// cache — go through `reply`; requests this incarnation is already
    /// executing are dropped silently.
    pub fn serve(&self, engine: &mut Engine, env: Envelope, reply: ReplyFn) {
        // A response envelope addressed to a plant is a protocol
        // violation; drop it.
        let Payload::Request(request) = &env.body else {
            return;
        };

        // Crash-consistent refusal: a dead plant answers nothing from
        // its cache — the connection-refused analog. (The error reply
        // itself still flows, so the shop fails fast instead of timing
        // out; the chaos harness's loss windows decide whether it
        // arrives.)
        let epoch = {
            let state = self.inner.borrow();
            if !state.alive {
                drop(state);
                let renv = self.response_to(&env, Response::plant_error(&PlantError::PlantDown));
                engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
                return;
            }
            state.epoch
        };

        // Dedup lookup.
        {
            let mut state = self.inner.borrow_mut();
            match state.dedup.entries.get(&env.key) {
                Some(entry) if entry.epoch == epoch => match &entry.slot {
                    Slot::Pending => {
                        state.dedup_drops.inc();
                        return;
                    }
                    Slot::Done(cached) => {
                        state.dedup_replays.inc();
                        let mut renv = (**cached).clone();
                        // Re-address the cached answer to the incarnation
                        // asking *now*: a shop that crashed and restarted
                        // retransmits under a bumped epoch, and it drops
                        // responses addressed to its previous life.
                        renv.reply_epoch = Some(env.epoch);
                        engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
                        return;
                    }
                },
                Some(_) => state.dedup.forget(&env.key),
                None => {}
            }
        }

        match &**request {
            Request::Create(order) => {
                // VM-level idempotency backstop: if the VM this order
                // names is already running (a previous transmission's
                // effect whose cache entry was evicted), replay its
                // classad instead of re-entering production.
                if let Some(id) = &order.vm_id {
                    let mut guard = self.inner.borrow_mut();
                    let state = &mut *guard;
                    if let Some(record) = state.info.get(id) {
                        if record.state == VmState::Running {
                            let ad = state
                                .info
                                .classad(id, engine.now(), &state.host)
                                .expect("record found above");
                            drop(guard);
                            let renv = self.response_to(&env, Response::Ad(ad));
                            engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
                            return;
                        }
                        // Mid-production without a dedup entry: an
                        // in-flight effect we cannot answer for yet.
                        return;
                    }
                }
                let order = SharedOrder::of(request).expect("a create request");
                self.inner.borrow_mut().dedup.begin(&env.key, epoch);
                let plant = self.clone();
                self.create(
                    engine,
                    order,
                    Box::new(move |engine, result| {
                        let response = match result {
                            Ok(ad) => Response::Ad(ad),
                            Err(e) => Response::plant_error(&e),
                        };
                        plant.finish(engine, &env, epoch, response, reply);
                    }),
                );
            }
            Request::Destroy(id) => {
                let id = id.clone();
                self.inner.borrow_mut().dedup.begin(&env.key, epoch);
                let plant = self.clone();
                self.collect(
                    engine,
                    &id,
                    Box::new(move |engine, result| match result {
                        // A VM still in production is refused, not
                        // destroyed. The refusal stays out of the cache:
                        // the shop's later destroy of the same VM reuses
                        // this key and must run.
                        Err(e @ PlantError::InvalidOrder(_)) => {
                            plant.inner.borrow_mut().dedup.abandon(&env.key, epoch);
                            let renv = plant.response_to(&env, Response::plant_error(&e));
                            reply(engine, renv);
                        }
                        result => {
                            let response = match result {
                                Ok(ad) => Response::Ad(ad),
                                Err(e) => Response::plant_error(&e),
                            };
                            plant.finish(engine, &env, epoch, response, reply);
                        }
                    }),
                );
            }
            Request::Publish { id, golden_id, name } => {
                let (id, golden_id, name) = (id.clone(), golden_id.clone(), name.clone());
                self.inner.borrow_mut().dedup.begin(&env.key, epoch);
                let plant = self.clone();
                self.publish_vm(
                    engine,
                    &id,
                    golden_id,
                    name,
                    Box::new(move |engine, result| {
                        let response = match result {
                            Ok(golden_id) => Response::Published {
                                golden_id: golden_id.0,
                            },
                            Err(e) => Response::plant_error(&e),
                        };
                        plant.finish(engine, &env, epoch, response, reply);
                    }),
                );
            }
            // Read-only services answer from current state every time —
            // replaying a stale cached answer would be *worse* than
            // recomputing, so they bypass the dedup cache.
            Request::Query(id) => {
                let response = match self.query(engine, id) {
                    Ok(ad) => Response::Ad(ad),
                    Err(e) => Response::plant_error(&e),
                };
                let renv = self.response_to(&env, response);
                engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
            }
            Request::Estimate(order) => {
                let response = match self.estimate(order) {
                    Ok(bid) => Response::Bid(bid),
                    Err(e) => Response::plant_error(&e),
                };
                let renv = self.response_to(&env, response);
                engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
            }
            Request::Migrate { .. } => {
                let renv = self.response_to(
                    &env,
                    Response::plant_error(&PlantError::InvalidOrder(
                        "migration is shop-orchestrated, not a plant service".into(),
                    )),
                );
                engine.schedule(SimDuration::ZERO, move |engine| reply(engine, renv));
            }
        }
    }

    /// Frame `response` as an envelope answering `request_env`.
    fn response_to(&self, request_env: &Envelope, response: Response) -> Envelope {
        let mut state = self.inner.borrow_mut();
        let seq = state.next_msg;
        state.next_msg += 1;
        Envelope::response(
            Rc::clone(&self.name),
            state.epoch,
            seq,
            request_env,
            response,
        )
    }

    /// Cache the completed response under the serving incarnation and
    /// deliver it.
    fn finish(
        &self,
        engine: &mut Engine,
        request_env: &Envelope,
        served_epoch: u64,
        response: Response,
        reply: ReplyFn,
    ) {
        let renv = self.response_to(request_env, response);
        self.inner
            .borrow_mut()
            .dedup
            .complete(&request_env.key, served_epoch, renv.clone());
        reply(engine, renv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    use vmplants_cluster::host::{Host, HostSpec};
    use vmplants_cluster::nfs::NfsServer;
    use vmplants_dag::graph::invigo_workspace_dag;
    use vmplants_simkit::SimRng;
    use vmplants_virt::VmSpec;
    use vmplants_warehouse::store::publish_experiment_goldens;
    use vmplants_warehouse::Warehouse;

    use crate::daemon::PlantConfig;
    use vmplants_vnet::DomainDirectory;
    use crate::order::{ProductionOrder, VmId};
    use crate::protocol::ErrorCode;

    fn plant() -> (Engine, Plant) {
        let engine = Engine::new();
        let mut rng = SimRng::seed_from_u64(11);
        let nfs = NfsServer::new("storage");
        let mut warehouse = Warehouse::new();
        publish_experiment_goldens(&mut warehouse, &nfs);
        let domains = DomainDirectory::new();
        domains.register_experiment_domain();
        let host = Host::new(HostSpec::e1350_node("node0"));
        let plant = Plant::new(
            PlantConfig::new("node0"),
            host,
            nfs,
            Rc::new(RefCell::new(warehouse)),
            domains,
            &mut rng,
        );
        (engine, plant)
    }

    fn order(vm: &str) -> ProductionOrder {
        ProductionOrder::new(VmSpec::mandrake(64), invigo_workspace_dag("arijit"), "ufl.edu")
            .with_vm_id(VmId(vm.into()))
    }

    fn collector() -> (Rc<RefCell<Vec<Envelope>>>, ReplyFn) {
        let seen: Rc<RefCell<Vec<Envelope>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let reply: ReplyFn = Rc::new(move |_: &mut Engine, env: Envelope| {
            sink.borrow_mut().push(env);
        });
        (seen, reply)
    }

    #[test]
    fn duplicate_create_is_served_once_and_replayed() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        let env = Envelope::request("shop", 0, 0, "create:vm-1", Request::Create(order("vm-1")));
        // Duplicate arrives while the original is still in production:
        // dropped silently.
        plant.serve(&mut engine, env.clone(), Rc::clone(&reply));
        plant.serve(&mut engine, env.clone(), Rc::clone(&reply));
        engine.run();
        assert_eq!(seen.borrow().len(), 1, "pending duplicate must be dropped");
        assert_eq!(plant.vm_count(), 1, "exactly one VM produced");
        // A retransmit after completion replays the cached response.
        plant.serve(&mut engine, env, Rc::clone(&reply));
        engine.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        match (&seen[0].body, &seen[1].body) {
            (Payload::Response(a), Payload::Response(b)) => {
                assert_eq!(a, b, "replayed response must be identical")
            }
            other => panic!("unexpected payloads: {other:?}"),
        }
        assert_eq!(seen[0].seq, seen[1].seq, "replay is the same envelope");
        assert_eq!(plant.vm_count(), 1, "replay must not clone again");
    }

    #[test]
    fn duplicate_destroy_is_a_noop_replay() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        let create = Envelope::request("shop", 0, 0, "create:vm-1", Request::Create(order("vm-1")));
        plant.serve(&mut engine, create, Rc::clone(&reply));
        engine.run();
        assert_eq!(plant.vm_count(), 1);
        let destroy = Envelope::request(
            "shop",
            0,
            1,
            "destroy:vm-1",
            Request::Destroy(VmId("vm-1".into())),
        );
        plant.serve(&mut engine, destroy.clone(), Rc::clone(&reply));
        engine.run();
        assert_eq!(plant.vm_count(), 0);
        assert_eq!(plant.networks_in_use(), 0);
        // Retransmitted destroy: replayed final classad, not unknown-vm.
        plant.serve(&mut engine, destroy, Rc::clone(&reply));
        engine.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        match &seen[2].body {
            Payload::Response(Response::Ad(_)) => {}
            other => panic!("expected replayed classad, got {other:?}"),
        }
    }

    #[test]
    fn refused_destroy_is_not_cached_for_the_later_destroy() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        let create = Envelope::request("shop", 0, 0, "create:vm-1", Request::Create(order("vm-1")));
        plant.serve(&mut engine, create, Rc::clone(&reply));
        engine.run_until(vmplants_simkit::SimTime::from_secs(2));
        let destroy = Envelope::request(
            "shop",
            0,
            1,
            "destroy:vm-1",
            Request::Destroy(VmId("vm-1".into())),
        );
        // Still cloning: refused, and nothing is torn down.
        plant.serve(&mut engine, destroy.clone(), Rc::clone(&reply));
        engine.run();
        let cached = plant.inner.borrow().dedup.entries.contains_key("destroy:vm-1");
        assert!(!cached, "the refusal must not be cached");
        // The same key once the VM runs executes instead of replaying
        // the refusal.
        plant.serve(&mut engine, destroy, Rc::clone(&reply));
        engine.run();
        let seen = seen.borrow();
        let bodies: Vec<&Payload> = seen.iter().map(|e| &e.body).collect();
        match bodies.as_slice() {
            [Payload::Response(Response::Error { code, message }), Payload::Response(Response::Ad(running)), Payload::Response(Response::Ad(collected))] =>
            {
                assert_eq!(*code, ErrorCode::InvalidOrder);
                assert!(
                    message.contains("cannot collect a VM in state 'cloning'"),
                    "{message}"
                );
                assert_eq!(running.get_str("state"), Some("running".into()));
                assert_eq!(collected.get_str("state"), Some("collected".into()));
            }
            other => panic!("unexpected replies: {other:?}"),
        }
        assert_eq!(plant.vm_count(), 0);
        assert_eq!(plant.networks_in_use(), 0);
    }

    #[test]
    fn crash_evicts_cached_answers_from_the_previous_life() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        let env = Envelope::request("shop", 0, 0, "create:vm-1", Request::Create(order("vm-1")));
        plant.serve(&mut engine, env.clone(), Rc::clone(&reply));
        engine.run();
        assert_eq!(plant.vm_count(), 1);
        plant.host_crashed(&mut engine);
        plant.host_recovered(&engine);
        // Same key after the crash: the old epoch's entry is dead, the
        // request runs again (the VM itself was lost with the host).
        plant.serve(&mut engine, env, Rc::clone(&reply));
        engine.run();
        assert_eq!(plant.vm_count(), 1, "request re-executed after crash");
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].epoch, 1, "answer carries the new incarnation");
    }

    #[test]
    fn dead_plant_refuses_instead_of_answering_from_cache() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        plant.fail();
        let env = Envelope::request("shop", 0, 0, "create:vm-1", Request::Create(order("vm-1")));
        plant.serve(&mut engine, env, reply);
        engine.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        match &seen[0].body {
            Payload::Response(Response::Error { code, .. }) => {
                assert_eq!(*code, ErrorCode::PlantDown)
            }
            other => panic!("expected plant-down, got {other:?}"),
        }
    }

    #[test]
    fn query_and_estimate_bypass_the_dedup_cache() {
        let (mut engine, plant) = plant();
        let (seen, reply) = collector();
        let est = Envelope::request("shop", 0, 0, "est:1", Request::Estimate(order("vm-9")));
        plant.serve(&mut engine, est.clone(), Rc::clone(&reply));
        plant.serve(&mut engine, est, Rc::clone(&reply));
        engine.run();
        assert_eq!(seen.borrow().len(), 2, "estimates answer every time");
        assert!(plant.inner.borrow().dedup.entries.is_empty());
    }

    #[test]
    fn dedup_cache_is_bounded() {
        let mut cache = DedupCache::new();
        let resp = Envelope::request("x", 0, 0, "k", Request::Query(VmId("v".into())));
        for i in 0..(DEDUP_CAPACITY + 50) {
            let key: Rc<str> = format!("k{i}").into();
            cache.begin(&key, 0);
            cache.complete(&key, 0, resp.clone());
        }
        assert_eq!(cache.entries.len(), DEDUP_CAPACITY);
        // Oldest entries evicted first.
        assert!(!cache.entries.contains_key("k0"));
        assert!(cache.entries.contains_key(format!("k{}", DEDUP_CAPACITY + 49).as_str()));
    }

    #[test]
    fn forgotten_answer_does_not_evict_its_successor() {
        let mut cache = DedupCache::with_capacity(4);
        let resp = Envelope::request("x", 0, 0, "k", Request::Query(VmId("v".into())));
        let k: Rc<str> = "k".into();
        cache.begin(&k, 1);
        cache.complete(&k, 1, resp.clone());
        // A crash bumped the epoch: the retransmit forgets the old answer
        // and the request runs again under epoch 2.
        cache.forget("k");
        cache.begin(&k, 2);
        cache.complete(&k, 2, resp.clone());
        for other in ["a", "b", "c"] {
            let other: Rc<str> = other.into();
            cache.begin(&other, 2);
            cache.complete(&other, 2, resp.clone());
        }
        assert!(cache.entries.contains_key("k"), "live answer evicted early");
        assert_eq!(cache.entries.len(), 4);
    }
}
