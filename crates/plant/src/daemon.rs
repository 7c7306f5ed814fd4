//! The plant daemon: service entry points and state.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::host::Host;
use vmplants_cluster::nfs::NfsServer;
use vmplants_simkit::obs::{Counter, Obs, TrackId};
use vmplants_simkit::{Engine, SimDuration, SimRng, SimTime};
use vmplants_virt::hypervisor::CloneStats;
use vmplants_virt::Hypervisor;
use vmplants_vnet::{DomainDirectory, Reachability, VirtualNetworkService};
use vmplants_warehouse::Warehouse;

use crate::cost::CostModel;
use crate::infosys::{InfoSystem, VmRecord};
use crate::order::{PlantError, ProductionOrder, VmId};
use crate::production;
use crate::protocol::SharedOrder;

/// Static configuration of one plant.
#[derive(Clone, Debug)]
pub struct PlantConfig {
    /// Plant name (conventionally the node name).
    pub name: String,
    /// Statically installed host-only networks (§3.4's example uses 4).
    pub host_only_networks: usize,
    /// The bidding cost model.
    pub cost_model: CostModel,
    /// The VNET server port.
    pub vnet_port: u16,
}

impl PlantConfig {
    /// Defaults matching the prototype: 4 host-only networks, the
    /// free-memory cost model, VNET on 9400.
    pub fn new(name: impl Into<String>) -> PlantConfig {
        PlantConfig {
            name: name.into(),
            host_only_networks: 4,
            cost_model: CostModel::FreeMemoryPrototype,
            vnet_port: 9400,
        }
    }
}

/// One clone measurement, kept for the Figure 5/6 harnesses.
#[derive(Clone, Debug)]
pub struct CloneLogEntry {
    /// Which VM.
    pub vm: VmId,
    /// Its memory size.
    pub memory_mb: u64,
    /// The backend's timing breakdown.
    pub stats: CloneStats,
    /// How many VMs were already resident when this clone started.
    pub resident_before: usize,
}

/// A pre-created ("speculatively cloned", §6) VM waiting for a matching
/// request: already cloned and resumed, memory already committed on the
/// host; a creation that matches its golden adopts it instead of cloning.
#[derive(Clone, Debug)]
pub(crate) struct Spare {
    pub(crate) clone_dir: String,
    pub(crate) stats: CloneStats,
}

pub(crate) struct PlantState {
    pub(crate) config: PlantConfig,
    pub(crate) host: Host,
    pub(crate) nfs: NfsServer,
    pub(crate) warehouse: Rc<RefCell<Warehouse>>,
    pub(crate) hypervisor: Rc<Hypervisor>,
    /// The plant's virtual network service: every lease and release of
    /// a VM's network goes through it.
    pub(crate) net: VirtualNetworkService,
    pub(crate) info: InfoSystem,
    pub(crate) rng: Rc<RefCell<SimRng>>,
    pub(crate) next_vm: u64,
    pub(crate) alive: bool,
    /// Incarnation counter, bumped by [`Plant::host_crashed`]. In-flight
    /// production jobs capture it at start; a continuation whose captured
    /// epoch no longer matches knows its bookkeeping (record, lease,
    /// clone files) was already reclaimed by the crash path and must not
    /// touch it again.
    pub(crate) epoch: u64,
    pub(crate) clone_log: Vec<CloneLogEntry>,
    pub(crate) spares: BTreeMap<vmplants_warehouse::GoldenId, Vec<Spare>>,
    pub(crate) next_spare: u64,
    /// Request dedup cache for the envelope protocol ([`crate::service`]).
    pub(crate) dedup: crate::service::DedupCache,
    /// Per-plant monotone sequence number for outgoing envelopes.
    pub(crate) next_msg: u64,
    /// Observability handle ([`Plant::set_obs`]); disabled by default.
    pub(crate) obs: Obs,
    /// Trace track for this plant's spans (interned from the plant name).
    pub(crate) obs_track: TrackId,
    /// Duplicate requests dropped while the original was still `Pending`.
    pub(crate) dedup_drops: Counter,
    /// Duplicate requests answered by replaying a cached `Done` envelope.
    pub(crate) dedup_replays: Counter,
}

impl PlantState {
    /// Drop a VM's record, if the plant has one, and release what it
    /// holds (see [`PlantState::release_vm`]).
    pub(crate) fn drop_vm(&mut self, id: &VmId) {
        if let Some(record) = self.info.remove(id) {
            self.release_vm(&record);
        }
    }

    /// Release what a VM that leaves this plant for good holds: its
    /// network lease and its clone tree's reference to its golden.
    pub(crate) fn release_vm(&mut self, record: &VmRecord) {
        let _ = self.net.release(&record.lease);
        self.warehouse.borrow_mut().unpin(&record.golden);
    }
}

/// A VMPlant daemon. Cheap `Rc` handle; all methods take the simulation
/// engine explicitly.
#[derive(Clone)]
pub struct Plant {
    /// The plant's name, fixed at construction: held outside the mutable
    /// state and shared by reference count wherever it must be kept
    /// (envelope senders, the shop's pending calls).
    pub(crate) name: Rc<str>,
    pub(crate) inner: Rc<RefCell<PlantState>>,
}

/// Completion callback for asynchronous plant services.
pub type DoneAd = Box<dyn FnOnce(&mut Engine, Result<ClassAd, PlantError>)>;

/// Completion callback for prewarming: number of spares created.
pub type DoneCount = Box<dyn FnOnce(&mut Engine, Result<usize, PlantError>)>;

impl Plant {
    /// Bring a plant up on `host`, against a shared warehouse and domain
    /// directory. Both VMM production lines are installed.
    pub fn new(
        config: PlantConfig,
        host: Host,
        nfs: NfsServer,
        warehouse: Rc<RefCell<Warehouse>>,
        domains: DomainDirectory,
        rng: &mut SimRng,
    ) -> Plant {
        let backend_rng = Rc::new(RefCell::new(rng.fork(1)));
        let plant_rng = Rc::new(RefCell::new(rng.fork(2)));
        let hypervisor = Rc::new(Hypervisor::new(backend_rng));
        let reach = Reachability::Direct {
            port: config.vnet_port,
        };
        let net = VirtualNetworkService::new(config.host_only_networks, reach, domains);
        Plant {
            name: config.name.as_str().into(),
            inner: Rc::new(RefCell::new(PlantState {
                config,
                host,
                nfs,
                warehouse,
                hypervisor,
                net,
                info: InfoSystem::new(),
                rng: plant_rng,
                next_vm: 0,
                alive: true,
                epoch: 0,
                clone_log: Vec::new(),
                spares: BTreeMap::new(),
                next_spare: 0,
                dedup: crate::service::DedupCache::new(),
                next_msg: 0,
                obs: Obs::disabled(),
                obs_track: TrackId::DEFAULT,
                dedup_drops: Counter::new(),
                dedup_replays: Counter::new(),
            })),
        }
    }

    /// Attach an observability sink: spans from the production line and
    /// the VMM backends land on a track named after the plant, and the
    /// dedup counters are registered as
    /// `plant.<name>.dedup_drops`/`plant.<name>.dedup_replays`.
    pub fn set_obs(&self, obs: &Obs) {
        let mut state = self.inner.borrow_mut();
        let track = obs.track(&state.config.name);
        state.obs = obs.clone();
        state.obs_track = track;
        let name = state.config.name.clone();
        obs.register_counter(&format!("plant.{name}.dedup_drops"), &state.dedup_drops);
        obs.register_counter(&format!("plant.{name}.dedup_replays"), &state.dedup_replays);
        state.hypervisor.set_obs(obs, track);
    }

    /// Replace the plant's VMM backend (fault-injection tests).
    pub fn install_hypervisor(&self, hv: Hypervisor) {
        self.inner.borrow_mut().hypervisor = Rc::new(hv);
    }

    /// Plant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Plant name as a shared handle, for holders that outlive a borrow
    /// of the plant.
    pub fn shared_name(&self) -> Rc<str> {
        Rc::clone(&self.name)
    }

    /// The plant's host (for experiment instrumentation).
    pub fn host(&self) -> Host {
        self.inner.borrow().host.clone()
    }

    /// Live VM count.
    pub fn vm_count(&self) -> usize {
        self.inner.borrow().info.len()
    }

    /// The clone-timing log (Figure 5/6 data source).
    pub fn clone_log(&self) -> Vec<CloneLogEntry> {
        self.inner.borrow().clone_log.clone()
    }

    /// Whether the plant is serving requests.
    pub fn is_alive(&self) -> bool {
        self.inner.borrow().alive
    }

    /// Crash the plant (resilience tests): it stops answering, but its
    /// information system survives on stable storage and is available
    /// again after [`Plant::revive`].
    pub fn fail(&self) {
        self.inner.borrow_mut().alive = false;
    }

    /// Restart a failed plant.
    pub fn revive(&self) {
        self.inner.borrow_mut().alive = true;
    }

    /// Current incarnation (bumped by [`Plant::host_crashed`]).
    pub fn epoch(&self) -> u64 {
        self.inner.borrow().epoch
    }

    /// The plant's physical host crashed under it: the daemon marks
    /// itself down, bumps its incarnation, reclaims every network lease,
    /// drops all VM records and spares, wipes the clone trees from the
    /// (now powered-off) host disk, and aborts NFS transfers headed to
    /// this host. Returns the number of VM records evicted.
    ///
    /// In-flight production jobs notice the epoch bump at their next
    /// continuation and fail with [`PlantError::PlantDown`] without
    /// re-running any cleanup.
    pub fn host_crashed(&self, engine: &mut Engine) -> usize {
        let (host, nfs, evicted) = {
            let mut state = self.inner.borrow_mut();
            state.alive = false;
            state.epoch += 1;
            let ids: Vec<VmId> = state.info.records().map(|r| r.id.clone()).collect();
            for id in &ids {
                state.drop_vm(id);
            }
            // Wiped spares release their golden references too.
            {
                let mut warehouse = state.warehouse.borrow_mut();
                for (golden_id, spares) in state.spares.iter() {
                    for _ in spares {
                        warehouse.unpin(golden_id);
                    }
                }
            }
            state.spares.clear();
            (state.host.clone(), state.nfs.clone(), ids.len())
        };
        host.disk.remove_tree("/clones/");
        host.disk.remove_tree("/spares/");
        host.crash();
        nfs.fail_transfers_to(engine, &host.disk);
        evicted
    }

    /// The host came back (reboot finished): power it on and resume
    /// serving requests. VM records do not survive a crash — clients
    /// re-create through the shop.
    pub fn host_recovered(&self, _engine: &Engine) {
        let mut state = self.inner.borrow_mut();
        if !state.host.is_up() {
            state.host.power_on();
        }
        state.alive = true;
    }

    /// The plant's own resource classad (§3.4's Condor-style matchmaking
    /// surface): what a client's `requirements` expression evaluates
    /// against when the shop filters bidders.
    pub fn resource_ad(&self) -> ClassAd {
        let state = self.inner.borrow();
        let mut ad = ClassAd::new();
        ad.set_value("name", state.config.name.as_str());
        ad.set_value("alive", state.alive);
        ad.set_value("freememory", state.host.free_mb());
        ad.set_value("vmcount", state.info.len() as i64);
        ad.set_value("memutilization", state.host.mem_utilization());
        ad
    }

    /// **Estimate** (Figure 2): the plant's bid for producing `order`.
    pub fn estimate(&self, order: &ProductionOrder) -> Result<f64, PlantError> {
        let state = self.inner.borrow();
        if !state.alive {
            return Err(PlantError::PlantDown);
        }
        Ok(state
            .config
            .cost_model
            .estimate(&state.host, &state.net, &order.client_domain))
    }

    /// **Create**: the full PPP + production-line path. `done` receives
    /// the new VM's classad. The order is produced as given: a
    /// [`SharedOrder`] is borrowed, not copied.
    pub fn create(&self, engine: &mut Engine, order: impl Into<SharedOrder>, done: DoneAd) {
        if !self.inner.borrow().alive {
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(engine, Err(PlantError::PlantDown))
            });
            return;
        }
        production::start_creation(self.clone(), engine, order.into(), done);
    }

    /// **Query**: the authoritative classad of an active VM, its monitor
    /// attributes carrying the host's state now, as every classad that
    /// leaves the plant does.
    pub fn query(&self, engine: &Engine, id: &VmId) -> Result<ClassAd, PlantError> {
        let mut guard = self.inner.borrow_mut();
        let state = &mut *guard;
        if !state.alive {
            return Err(PlantError::PlantDown);
        }
        state
            .info
            .classad(id, engine.now(), &state.host)
            .ok_or_else(|| PlantError::UnknownVm(id.clone()))
    }

    /// All VM ids this plant currently hosts (shop cache rebuilds).
    pub fn list_vms(&self) -> Result<Vec<VmId>, PlantError> {
        let state = self.inner.borrow();
        if !state.alive {
            return Err(PlantError::PlantDown);
        }
        Ok(state.info.records().map(|r| r.id.clone()).collect())
    }

    /// The production state of a VM this plant tracks, or `None` for a
    /// VM it has never heard of — the shop-recovery reconciliation
    /// probe: `Running` means the production finished and the VM can be
    /// adopted; any other state means the production is still (or was)
    /// in flight on this plant.
    pub fn vm_state(&self, id: &VmId) -> Result<Option<vmplants_virt::VmState>, PlantError> {
        let state = self.inner.borrow();
        if !state.alive {
            return Err(PlantError::PlantDown);
        }
        Ok(state.info.get(id).map(|r| r.state.clone()))
    }

    /// Rebound the request dedup cache (see [`crate::service`]): how
    /// many completed answers this plant retains for replay.
    pub fn set_dedup_capacity(&self, capacity: usize) {
        self.inner.borrow_mut().dedup.set_capacity(capacity);
    }

    /// **Collect** (destroy): tear a running VM down and return its final
    /// classad. A VM still in production (or publishing, or migrating, or
    /// already being collected) is refused with
    /// [`PlantError::InvalidOrder`]; collect it once it runs.
    pub fn collect(&self, engine: &mut Engine, id: &VmId, done: DoneAd) {
        let id = id.clone();
        let refusal = {
            let state = self.inner.borrow();
            if !state.alive {
                Some(PlantError::PlantDown)
            } else {
                match state.info.get(&id) {
                    None => Some(PlantError::UnknownVm(id.clone())),
                    Some(r) => r.refusal("collect"),
                }
            }
        };
        match refusal {
            Some(err) => {
                engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
            }
            None => production::collect_vm(self.clone(), engine, id, done),
        }
    }

    /// Host-only networks currently assigned to client domains.
    pub fn networks_in_use(&self) -> usize {
        self.inner.borrow().net.networks_in_use()
    }

    /// The bridge patching the host-only network of VM `id` through to
    /// its client's proxy, if this plant hosts the VM.
    pub fn bridge_of(&self, id: &VmId) -> Option<vmplants_vnet::Bridge> {
        let state = self.inner.borrow();
        let network = state.info.get(id)?.lease.network;
        state.net.bridge(network).cloned()
    }

    /// Spare clones currently pre-created for a golden image.
    pub fn spare_count(&self, golden: &vmplants_warehouse::GoldenId) -> usize {
        self.inner
            .borrow()
            .spares
            .get(golden)
            .map_or(0, Vec::len)
    }

    /// **Prewarm** (§6's "speculative pre-creation of VM clones"):
    /// clone-and-resume `count` instances of the golden matching
    /// `spec`/`dag` ahead of demand. A later matching Create adopts a
    /// spare and skips the whole cloning phase. `done` receives the
    /// number of spares actually created.
    pub fn prewarm(
        &self,
        engine: &mut Engine,
        spec: vmplants_virt::VmSpec,
        dag: vmplants_dag::ConfigDag,
        count: usize,
        done: DoneCount,
    ) {
        if !self.inner.borrow().alive {
            engine.schedule(SimDuration::ZERO, move |engine| {
                done(engine, Err(PlantError::PlantDown))
            });
            return;
        }
        production::prewarm_spares(self.clone(), engine, spec, dag, count, done);
    }

    /// Does nothing, and schedules nothing: every classad takes the VM
    /// monitor's attributes from the host when it is read
    /// ([`crate::infosys`]). Kept only because the `perfbench` driver,
    /// which changes only together with the benchmark, still calls it;
    /// the call and this function go together.
    pub fn start_monitor(&self, _engine: &mut Engine, _interval: SimDuration, _horizon: SimTime) {}
}
