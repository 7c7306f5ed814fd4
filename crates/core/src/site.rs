//! Site assembly: one call from nothing to a running VMShop + VMPlants
//! deployment on the simulated testbed.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_cluster::testbed::{e1350_with, TestbedConfig};
use vmplants_cluster::Cluster;
use vmplants_dag::ConfigDag;
use vmplants_plant::{CostModel, DomainDirectory, Plant, PlantConfig, ProductionOrder, VmId};
use vmplants_shop::{ShopError, VmShop};
use vmplants_simkit::{Engine, Obs, SimRng};
use vmplants_virt::{TimingModel, VmSpec};
use vmplants_warehouse::store::publish_experiment_goldens;
use vmplants_warehouse::{Warehouse, WarehouseConfig};

/// Configuration of a simulated site.
#[derive(Clone, Debug)]
pub struct SiteConfig {
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Testbed shape (nodes, NFS parameters).
    pub testbed: TestbedConfig,
    /// Bidding cost model installed on every plant.
    pub cost_model: CostModel,
    /// Host-only networks per plant.
    pub host_only_networks: usize,
    /// Virtualization timing model.
    pub timing: TimingModel,
    /// Publish the experiments' Mandrake golden images (32/64/256 MB).
    pub publish_goldens: bool,
    /// Register the default `ufl.edu` client domain.
    pub register_default_domain: bool,
    /// Warehouse policy: chunk dedup, capacity budget, replication
    /// threshold. The default changes no behaviour of the §4.2 site.
    pub warehouse: WarehouseConfig,
    /// Publish a population of Zipf-experiment goldens (64 MB Mandrake,
    /// one per rank of [`vmplants_dag::graph::zipf_dag`]) of this size.
    /// 0 (the default) publishes none.
    pub zipf_goldens: u32,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            seed: 42,
            testbed: TestbedConfig::default(),
            cost_model: CostModel::FreeMemoryPrototype,
            host_only_networks: 4,
            timing: TimingModel::default(),
            publish_goldens: true,
            register_default_domain: true,
            warehouse: WarehouseConfig::default(),
            zipf_goldens: 0,
        }
    }
}

/// Publish `count` Zipf-experiment goldens: rank *r* is a 64 MB Mandrake
/// checkpointed after the base installs plus its rank-specific application
/// stack (`A B C P Q` of [`vmplants_dag::graph::zipf_dag`]). All ranks
/// share the base-install DAG prefix, so under chunk dedup they share the
/// bulk of their disk chunks.
pub fn publish_zipf_goldens(
    warehouse: &mut Warehouse,
    nfs: &vmplants_cluster::nfs::NfsServer,
    count: u32,
) {
    for rank in 0..count {
        let dag = vmplants_dag::graph::zipf_dag(rank, "template");
        let performed: vmplants_dag::PerformedLog = ["A", "B", "C", "P", "Q"]
            .iter()
            .map(|id| dag.action(id).expect("zipf action").clone())
            .collect();
        warehouse
            .publish(
                nfs,
                format!("zipf-{rank:03}"),
                format!("Zipf-rank-{rank} workspace, 64 MB"),
                VmSpec::mandrake(64),
                performed,
            )
            .expect("fresh zipf publish");
    }
}

/// A synchronous [`SimSite`] call whose completion never ran: the event
/// loop drained with the named operation still outstanding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Unsettled(pub(crate) &'static str);

impl std::fmt::Display for Unsettled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} never completed: the event loop drained first", self.0)
    }
}

impl std::error::Error for Unsettled {}

/// To a caller the shop never answered: the connection-refused analog.
impl From<Unsettled> for ShopError {
    fn from(_: Unsettled) -> ShopError {
        ShopError::ShopDown
    }
}

/// A fully wired simulated site: engine + cluster + warehouse + plants +
/// shop, with synchronous convenience wrappers that drive the event loop.
pub struct SimSite {
    /// The simulation engine (public so experiments can advance time).
    pub engine: Engine,
    /// The shop front-end.
    pub shop: VmShop,
    /// The plants, one per cluster node.
    pub plants: Vec<Plant>,
    /// The physical cluster model.
    pub cluster: Cluster,
    /// The shared warehouse.
    pub warehouse: Rc<RefCell<Warehouse>>,
    /// The client-domain directory.
    pub domains: DomainDirectory,
    /// The default client domain name, if registered.
    pub default_domain: Option<String>,
    /// Spare RNG for client-side decisions.
    pub rng: SimRng,
    /// The site-wide observability handle (same one every component got).
    pub obs: Obs,
}

impl SimSite {
    /// Assemble a site from a config.
    pub fn build(config: SiteConfig) -> SimSite {
        SimSite::build_with_obs(config, Obs::disabled())
    }

    /// Assemble a site with an observability sink distributed to every
    /// component (engine, transport, shop, plants, NFS, warehouse). Pass
    /// [`Obs::enabled`] to record traces and metrics; a disabled handle
    /// records nothing and changes no behaviour. The handle is separate
    /// from [`SiteConfig`] (which stays `Send` for the live-mode server);
    /// observability is inherently local to the simulation thread.
    pub fn build_with_obs(config: SiteConfig, obs: Obs) -> SimSite {
        let mut engine = Engine::new();
        engine.set_obs(&obs);
        let mut rng = SimRng::seed_from_u64(config.seed);
        let cluster = e1350_with(&config.testbed);
        cluster.nfs().set_obs(&obs);
        let mut warehouse = Warehouse::with_config(config.warehouse.clone());
        warehouse.set_replicas(cluster.replicas().to_vec());
        if config.publish_goldens {
            publish_experiment_goldens(&mut warehouse, cluster.nfs());
        }
        if config.zipf_goldens > 0 {
            publish_zipf_goldens(&mut warehouse, cluster.nfs(), config.zipf_goldens);
        }
        warehouse.set_obs(&obs);
        let warehouse = Rc::new(RefCell::new(warehouse));
        let domains = DomainDirectory::new();
        let default_domain = if config.register_default_domain {
            Some(domains.register_experiment_domain())
        } else {
            None
        };
        let shop = VmShop::new("shop", rng.fork(1000));
        shop.set_obs(&obs);
        let mut plants = Vec::new();
        for (_, host) in cluster.hosts() {
            let name = host.name();
            let plant = Plant::with_timing(
                PlantConfig {
                    cost_model: config.cost_model,
                    host_only_networks: config.host_only_networks,
                    ..PlantConfig::new(&name)
                },
                host.clone(),
                cluster.nfs().clone(),
                Rc::clone(&warehouse),
                domains.clone(),
                &mut rng,
                config.timing.clone(),
            );
            plant.set_obs(&obs);
            shop.register_plant(plant.clone());
            plants.push(plant);
        }
        SimSite {
            engine,
            shop,
            plants,
            cluster,
            warehouse,
            domains,
            default_domain,
            rng,
            obs,
        }
    }

    /// Build an order for the default client domain.
    pub fn order(&self, spec: VmSpec, dag: ConfigDag) -> ProductionOrder {
        let domain = self
            .default_domain
            .clone()
            .unwrap_or_else(|| "ufl.edu".to_owned());
        ProductionOrder::new(spec, dag, domain)
    }

    /// Synchronously create a VM through the shop: issue the request, run
    /// the event loop to completion, return the classad.
    pub fn create_vm(&mut self, spec: VmSpec, dag: ConfigDag) -> Result<ClassAd, ShopError> {
        let order = self.order(spec, dag);
        self.create_order(order)
    }

    /// Synchronously create from an explicit order.
    pub fn create_order(&mut self, order: ProductionOrder) -> Result<ClassAd, ShopError> {
        self.settle("create", |shop, engine, done| shop.create(engine, order, done))?
    }

    /// Synchronously query a VM.
    pub fn query_vm(&mut self, id: &VmId) -> Result<ClassAd, ShopError> {
        self.settle("query", |shop, engine, done| shop.query(engine, id, done))?
    }

    /// Synchronously destroy (collect) a VM.
    pub fn destroy_vm(&mut self, id: &VmId) -> Result<ClassAd, ShopError> {
        self.settle("destroy", |shop, engine, done| shop.destroy(engine, id, done))?
    }

    /// Issue one callback-style shop operation, run the event loop until
    /// it drains, and return what the operation's completion received.
    /// An operation whose completion never ran by then (dropped, or still
    /// parked somewhere) is [`Unsettled`], not a panic.
    pub(crate) fn settle<T: 'static>(
        &mut self,
        op: &'static str,
        issue: impl FnOnce(&VmShop, &mut Engine, Box<dyn FnOnce(&mut Engine, T)>),
    ) -> Result<T, Unsettled> {
        let out = Rc::new(RefCell::new(None));
        let slot = Rc::clone(&out);
        issue(
            &self.shop,
            &mut self.engine,
            Box::new(move |_, res| *slot.borrow_mut() = Some(res)),
        );
        self.engine.run();
        let settled = out.borrow_mut().take();
        settled.ok_or(Unsettled(op))
    }

    /// Total VMs resident across all plants.
    pub fn total_vms(&self) -> usize {
        self.plants.iter().map(Plant::vm_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_dag::graph::invigo_workspace_dag;

    #[test]
    fn default_site_creates_and_destroys() {
        let mut site = SimSite::build(SiteConfig::default());
        assert_eq!(site.plants.len(), 8);
        let ad = site
            .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
            .unwrap();
        assert_eq!(site.total_vms(), 1);
        let id = VmId(ad.get_str("vmid").unwrap());
        let q = site.query_vm(&id).unwrap();
        assert_eq!(q.get_str("state"), Some("running".into()));
        site.destroy_vm(&id).unwrap();
        assert_eq!(site.total_vms(), 0);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = |seed: u64| {
            let mut site = SimSite::build(SiteConfig {
                seed,
                ..SiteConfig::default()
            });
            let ad = site
                .create_vm(VmSpec::mandrake(32), invigo_workspace_dag("alice"))
                .unwrap();
            (
                ad.get_f64("create_s").unwrap(),
                ad.get_str("plant").unwrap(),
            )
        };
        assert_eq!(run(7), run(7));
        // Different seeds almost surely differ in timing.
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn missing_domain_registration_fails_with_a_network_error() {
        let config = SiteConfig {
            register_default_domain: false,
            ..SiteConfig::default()
        };
        let mut site = SimSite::build(config);
        let err = site
            .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
            .unwrap_err();
        // Every plant rejects the unknown client domain.
        assert!(matches!(err, ShopError::AllPlantsFailed(_)), "{err}");
    }

    #[test]
    fn config_knobs_apply() {
        let mut config = SiteConfig::default();
        config.testbed.nodes = 2;
        config.publish_goldens = false;
        let mut site = SimSite::build(config);
        assert_eq!(site.plants.len(), 2);
        // Without goldens, creation fails with a plant error.
        let err = site
            .create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
            .unwrap_err();
        assert!(matches!(err, ShopError::AllPlantsFailed(_)));
    }

    /// An operation that drops its completion, or parks it where the
    /// drained event loop never reaches, settles as a typed error, and the
    /// site keeps serving.
    #[test]
    fn settle_reports_a_completion_that_never_runs() {
        let mut site = SimSite::build(SiteConfig::default());
        let dropped = site.settle::<u32>("dropped", |_, _, done| drop(done));
        assert_eq!(dropped, Err(Unsettled("dropped")));
        let parked = Rc::new(RefCell::new(Vec::new()));
        let shelf = Rc::clone(&parked);
        let result = site.settle::<u32>("parked", move |_, _, done| shelf.borrow_mut().push(done));
        assert_eq!(result, Err(Unsettled("parked")));
        assert_eq!(parked.borrow().len(), 1);
        assert!(matches!(ShopError::from(Unsettled("create")), ShopError::ShopDown));
        // A completion that runs later in the loop is returned.
        let answered = site.settle("answer", |_, engine, done| {
            engine.schedule(vmplants_simkit::SimDuration::from_secs_f64(1.0), move |engine| {
                done(engine, 7u32)
            });
        });
        assert_eq!(answered, Ok(7));
        site.create_vm(VmSpec::mandrake(64), invigo_workspace_dag("alice"))
            .unwrap();
    }

    /// The warehouse's row-aligned lookup index agrees with the naive
    /// oracle at Zipf scale: 120 goldens published under a budget (so
    /// some are evicted), every third one removed (so `remove` rebuilt the
    /// rows), then 20 ranks at three memory sizes — and again on the copy
    /// rebuilt from the descriptors.
    #[test]
    fn zipf_scale_lookup_agrees_with_naive_oracle() {
        use vmplants_cluster::files::gb;
        use vmplants_cluster::nfs::NfsServer;
        use vmplants_dag::graph::zipf_dag;
        use vmplants_warehouse::GoldenId;
        let config = WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(gb(32)),
            replicate_after: None,
        };
        let nfs = NfsServer::new("storage");
        let mut w = Warehouse::with_config(config.clone());
        publish_experiment_goldens(&mut w, &nfs);
        publish_zipf_goldens(&mut w, &nfs, 120);
        assert!(w.eviction_count() > 0, "the budget never bit");
        for rank in (0..120).step_by(3) {
            assert!(w.remove(&nfs, &GoldenId(format!("zipf-{rank:03}"))));
        }
        assert_eq!(w.len(), 3 + 80);
        // Ranks 0, 7, 14, 18, …, 115: a third of them removed.
        let ranks: Vec<u32> = (0..20).map(|i| i * 6 + i % 3).collect();
        let check = |w: &Warehouse| {
            for &rank in &ranks {
                let dag = zipf_dag(rank, "arijit");
                for mem in [32, 64, 256] {
                    let spec = VmSpec::mandrake(mem);
                    let fast = w.lookup(&spec, &dag).map(|(img, r)| (img.id.clone(), r));
                    let naive = w.find_golden_naive(&spec, &dag).map(|(img, r)| (img.id.clone(), r));
                    let ctx = format!("rank {rank}, {mem} MB");
                    match (&fast, &naive) {
                        (Some((fid, fr)), Some((nid, nr))) => {
                            assert_eq!(fid, nid, "{ctx}");
                            assert_eq!(fr.matched, nr.matched, "{ctx}");
                            assert_eq!(fr.residual, nr.residual, "{ctx}");
                        }
                        (None, None) => {}
                        _ => panic!("{ctx}: fast {fast:?} vs naive {naive:?}"),
                    }
                    // A surviving rank wins with its own golden.
                    if mem == 64 && rank % 3 != 0 {
                        assert_eq!(fast.map(|(id, _)| id.0), Some(format!("zipf-{rank:03}")));
                    }
                }
            }
        };
        check(&w);
        let restored = Warehouse::restore_from(&nfs, config);
        assert_eq!(restored.len(), w.len());
        check(&restored);
    }
}
