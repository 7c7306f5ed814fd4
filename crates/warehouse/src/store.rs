//! The warehouse service: publish, enumerate, pre-filter.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_cluster::files::{FileKind, StoreError};
use vmplants_cluster::nfs::NfsServer;
use vmplants_dag::{BitSet, CompiledDag, ConfigDag, InternedLog, PerformedLog, SigInterner};
use vmplants_simkit::obs::{Counter, Gauge, HistogramMetric, Obs};
use vmplants_simkit::SimDuration;
use vmplants_virt::image::CONFIG_BYTES;
use vmplants_virt::{ImageFiles, VmSpec};

use crate::chunks::{fnv_str, ChunkPlan, ChunkStore};
use crate::golden::{spec_matches, GoldenId, GoldenImage};
use crate::xmldesc;

/// Failures while publishing an image.
#[derive(Clone, Debug, PartialEq)]
pub enum PublishError {
    /// An image with this id already exists.
    DuplicateId(GoldenId),
    /// Materializing the state files failed.
    Io(StoreError),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::DuplicateId(id) => write!(f, "golden image '{id}' already exists"),
            PublishError::Io(e) => write!(f, "publish I/O failure: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<StoreError> for PublishError {
    fn from(e: StoreError) -> Self {
        PublishError::Io(e)
    }
}

/// Size of the golden virtual disk in the experiments (§4.3: "the virtual
/// disk of the golden machine in this experiment occupies 2 GBytes").
pub const GOLDEN_DISK_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Fixed part of the re-derivation cost estimate: cloning a base image
/// and resuming it before replaying any actions.
pub const REDERIVE_BASE_S: f64 = 30.0;
/// Per-action part of the estimate: replaying one configuration action of
/// the evicted golden's derivation DAG.
pub const REDERIVE_PER_ACTION_S: f64 = 10.0;

/// Policy knobs of the content-addressed warehouse.
#[derive(Clone, Debug)]
pub struct WarehouseConfig {
    /// Decompose bulk state files into content-addressed chunks shared
    /// across goldens (on by default; timing-invisible, so same-seed runs
    /// with dedup on and off produce identical reports).
    pub dedup: bool,
    /// Physical capacity budget for resident golden state. When the
    /// footprint exceeds it, cold goldens are evicted down to descriptor +
    /// derivation DAG (re-derived transparently on demand). `None` keeps
    /// every golden resident forever — the paper's behavior.
    pub capacity_bytes: Option<u64>,
    /// Replicate a golden to the secondary NFS servers once this many
    /// clones have been cut from it. `None` disables replication.
    pub replicate_after: Option<u64>,
}

/// Catch a monotone mirror counter up to a source value.
fn sync_counter(counter: &Counter, value: u64) {
    let cur = counter.get();
    if value > cur {
        counter.add(value - cur);
    }
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            dedup: true,
            capacity_bytes: None,
            replicate_after: None,
        }
    }
}

/// One published golden: its image and all the warehouse tracks about
/// it, so eviction and re-derivation touch one record.
struct Golden {
    image: GoldenImage,
    /// Chunk-store owner slot, dense from 0 in the order records are
    /// made, kept across eviction and re-derivation.
    slot: u64,
    /// How its bulk state files are laid out on the export.
    bulk: Bulk,
    /// Whether its state files are on the export (false once eviction
    /// reduced it to descriptor + derivation DAG).
    resident: bool,
    /// Live clone/spare references: a pinned golden is never evicted
    /// (its clone trees still link into its files).
    pins: u64,
    /// Demand counter, driving the replication policy. A `Cell` because
    /// [`Warehouse::lookup`] takes `&self`.
    hits: Cell<u64>,
    /// Already copied to every replica server.
    replicated: bool,
}

/// A golden's bulk state files.
enum Bulk {
    /// Chunk manifests (dedup mode). The plan is a pure function of the
    /// descriptor, kept across eviction so re-derivation never re-plans.
    Chunked(ChunkPlan),
    /// Plain full-size files of this many bytes (full-copy mode; 0 before
    /// the first materialize).
    Full(u64),
}

impl Golden {
    fn new(image: GoldenImage, slot: u64) -> Golden {
        Golden {
            image,
            slot,
            bulk: Bulk::Full(0),
            resident: false,
            pins: 0,
            hits: Cell::new(0),
            replicated: false,
        }
    }

    /// The §Virtual-Data estimate of what re-deriving this golden from
    /// its DAG would cost: a base clone-and-resume plus replaying every
    /// performed action.
    fn rederive_cost_s(&self) -> f64 {
        REDERIVE_BASE_S + REDERIVE_PER_ACTION_S * self.image.performed.len() as f64
    }

    /// Bytes of its resident full-copy bulk files (0 when evicted or
    /// chunked).
    fn resident_full_bytes(&self) -> u64 {
        match self.bulk {
            Bulk::Full(bytes) if self.resident => bytes,
            _ => 0,
        }
    }

    /// Bytes evicting this golden would actually reclaim right now: a
    /// lookup, with no per-chunk work.
    fn reclaimable_bytes(&self, chunks: &ChunkStore, dedup: bool) -> u64 {
        if dedup {
            chunks.reclaimable_bytes(self.slot)
        } else {
            self.resident_full_bytes()
        }
    }

    /// Bring the state files onto the export: content-addressed chunks +
    /// manifests in dedup mode, plain full-size files otherwise. Either
    /// way the config file is a real (tiny) file.
    fn materialize(
        &mut self,
        nfs: &NfsServer,
        chunks: &mut ChunkStore,
        dedup: bool,
    ) -> Result<(), StoreError> {
        let image = &self.image;
        if dedup {
            nfs.store
                .put(&*image.files.config, CONFIG_BYTES, FileKind::VmConfig)?;
            if let Bulk::Full(_) = self.bulk {
                self.bulk = Bulk::Chunked(chunk_plan(image));
            }
            if let Bulk::Chunked(plan) = &self.bulk {
                chunks.publish(&nfs.store, plan, self.slot)?;
            }
        } else {
            image
                .files
                .materialize(&nfs.store, image.spec.memory_mb, GOLDEN_DISK_BYTES)?;
            self.bulk = Bulk::Full(full_copy_bytes(image));
        }
        self.resident = true;
        Ok(())
    }

    /// Drop the state files down to descriptor + derivation DAG. The
    /// index entry survives, so matchmaking still finds the golden;
    /// [`Warehouse::ensure_resident`] re-derives it on demand.
    fn evict(&mut self, nfs: &NfsServer, chunks: &mut ChunkStore) {
        let files = &self.image.files;
        match &self.bulk {
            Bulk::Chunked(plan) => {
                chunks.release(&nfs.store, plan, self.slot);
                for file in &plan.files {
                    let _ = nfs.store.remove(&file.path);
                }
            }
            Bulk::Full(_) => {
                for bulk in files.bulk_files(self.image.spec.memory_mb, GOLDEN_DISK_BYTES) {
                    let _ = nfs.store.remove(&bulk.path);
                }
            }
        }
        let _ = nfs.store.remove(&files.config);
        self.resident = false;
    }
}

/// A golden's chunk plan: recomputable at any time from its descriptor.
fn chunk_plan(image: &GoldenImage) -> ChunkPlan {
    ChunkPlan::plan(
        &image.files,
        &image.spec,
        &image.performed,
        GOLDEN_DISK_BYTES,
    )
}

/// Bytes of a golden's bulk state files as full copies.
fn full_copy_bytes(image: &GoldenImage) -> u64 {
    image
        .files
        .bulk_files(image.spec.memory_mb, GOLDEN_DISK_BYTES)
        .iter()
        .map(|b| b.bytes)
        .sum()
}

/// The VM Warehouse: golden images stored under `/warehouse/<id>/` on the
/// NFS export, indexed in memory, each with an XML descriptor alongside
/// its state files.
///
/// Besides the id index, the warehouse keeps a **signature-subset index**:
/// a per-site [`SigInterner`] plus one row per image holding its hardware
/// spec and its performed log as interned ids. [`Warehouse::lookup`]
/// compiles the request DAG once, then skips every row that fails the
/// hardware criterion or whose id set is not a subset of the request's
/// before the Prefix/Partial-Order tests run — and builds a
/// [`MatchReport`](vmplants_dag::MatchReport) for the winning candidate
/// alone.
pub struct Warehouse {
    /// One record per golden: image, owner slot, chunk plan or bulk
    /// bytes, residency, pins, demand and replication.
    goldens: BTreeMap<GoldenId, Golden>,
    /// Owner slots handed out so far.
    slots: u64,
    /// Signature interner shared by every published log (the per-site
    /// interner of the matchmaking fast path).
    interner: SigInterner,
    /// One row per golden, in publish order: its id, its hardware spec
    /// and its performed log as interned ids (computed once at publish),
    /// so the lookup's per-row loop touches no string-keyed map.
    hw_rows: Vec<(GoldenId, VmSpec, InternedLog)>,
    /// Matchmaking counters: shared handles the metrics registry adopts
    /// via [`Warehouse::set_obs`] (lookup takes `&self`, so the interior-
    /// mutable handles are exactly what is needed).
    lookups: Counter,
    hits: Counter,
    misses: Counter,
    match_depth: HistogramMetric,
    /// Policy knobs (dedup, capacity budget, replication threshold).
    config: WarehouseConfig,
    /// Site-wide content-addressed chunk bookkeeping (dedup mode).
    chunk_store: ChunkStore,
    /// Secondary NFS servers hot goldens replicate to.
    replicas: Vec<NfsServer>,
    /// Cache/footprint metrics (see [`Warehouse::set_obs`]).
    evictions: Counter,
    rederives: Counter,
    replications: Counter,
    chunk_dedup_hits: Counter,
    chunk_dedup_misses: Counter,
    physical_bytes_gauge: Gauge,
    logical_bytes_gauge: Gauge,
}

impl Warehouse {
    /// An empty warehouse with the default policy (dedup on, no capacity
    /// budget, no replication).
    pub fn new() -> Warehouse {
        Warehouse::with_config(WarehouseConfig::default())
    }

    /// An empty warehouse with an explicit policy.
    pub fn with_config(config: WarehouseConfig) -> Warehouse {
        Warehouse {
            goldens: BTreeMap::new(),
            slots: 0,
            interner: SigInterner::new(),
            hw_rows: Vec::new(),
            lookups: Counter::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            match_depth: HistogramMetric::new(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0]),
            config,
            chunk_store: ChunkStore::new(),
            replicas: Vec::new(),
            evictions: Counter::new(),
            rederives: Counter::new(),
            replications: Counter::new(),
            chunk_dedup_hits: Counter::new(),
            chunk_dedup_misses: Counter::new(),
            physical_bytes_gauge: Gauge::new(),
            logical_bytes_gauge: Gauge::new(),
        }
    }

    /// Install the secondary NFS servers hot goldens replicate to.
    pub fn set_replicas(&mut self, replicas: Vec<NfsServer>) {
        self.replicas = replicas;
    }

    /// Register the matchmaking counters (`warehouse.lookups`, `.hits`,
    /// `.misses`), the matched-prefix-depth histogram
    /// (`warehouse.match_depth`), and the content-addressed-store metrics
    /// (`warehouse.evictions`/`.rederives`/`.replications`,
    /// `warehouse.chunk_dedup_hits`/`.chunk_dedup_misses`, and the
    /// `warehouse.physical_bytes`/`.logical_bytes` footprint gauges) with
    /// a metrics registry.
    pub fn set_obs(&self, obs: &Obs) {
        obs.register_counter("warehouse.lookups", &self.lookups);
        obs.register_counter("warehouse.hits", &self.hits);
        obs.register_counter("warehouse.misses", &self.misses);
        obs.register_histogram("warehouse.match_depth", &self.match_depth);
        obs.register_counter("warehouse.evictions", &self.evictions);
        obs.register_counter("warehouse.rederives", &self.rederives);
        obs.register_counter("warehouse.replications", &self.replications);
        obs.register_counter("warehouse.chunk_dedup_hits", &self.chunk_dedup_hits);
        obs.register_counter("warehouse.chunk_dedup_misses", &self.chunk_dedup_misses);
        obs.register_gauge("warehouse.physical_bytes", &self.physical_bytes_gauge);
        obs.register_gauge("warehouse.logical_bytes", &self.logical_bytes_gauge);
    }

    /// Number of published images.
    pub fn golden_count(&self) -> usize {
        self.goldens.len()
    }

    /// Publish a golden image: materialize its state files on the export,
    /// write its XML descriptor, and index it.
    ///
    /// This is the installer-facing API of §3.2 ("providing VM installers
    /// with the capability of publishing a VM image to the Warehouse").
    pub fn publish(
        &mut self,
        nfs: &NfsServer,
        id: impl Into<String>,
        name: impl Into<String>,
        spec: VmSpec,
        performed: PerformedLog,
    ) -> Result<&GoldenImage, PublishError> {
        let id = GoldenId(id.into());
        if self.goldens.contains_key(&id) {
            return Err(PublishError::DuplicateId(id));
        }
        let dir = format!("/warehouse/{}", id.0);
        let files = Rc::new(ImageFiles::plan(
            &dir,
            spec.vmm,
            spec.memory_mb,
            GOLDEN_DISK_BYTES,
        ));
        let image = GoldenImage {
            id: id.clone(),
            name: name.into(),
            spec,
            files,
            performed,
        };
        let mut golden = Golden::new(image, self.slots);
        self.slots += 1;
        golden.materialize(nfs, &mut self.chunk_store, self.config.dedup)?;
        let descriptor = xmldesc::image_to_xml(&golden.image).to_pretty_xml();
        nfs.store
            .put_text(format!("{dir}/descriptor.xml"), descriptor, FileKind::Generic)?;
        self.index(&golden.image);
        self.goldens.insert(id.clone(), golden);
        self.note_materialized();
        // A fresh publish may push the footprint over budget; evict cold
        // goldens (never the one just published) until it fits.
        self.enforce_capacity(nfs, Some(&id));
        Ok(&self.goldens[&id].image)
    }

    /// Mirror the chunk store's dedup counters and the footprint gauges
    /// after a golden's state files reached the export.
    fn note_materialized(&self) {
        sync_counter(&self.chunk_dedup_hits, self.chunk_store.dedup_hits);
        sync_counter(&self.chunk_dedup_misses, self.chunk_store.dedup_misses);
        self.refresh_footprint_gauges();
    }

    fn refresh_footprint_gauges(&self) {
        self.physical_bytes_gauge.set(self.physical_footprint() as i64);
        self.logical_bytes_gauge.set(self.logical_footprint() as i64);
    }

    /// Add an image to the lookup index: a row with its hardware spec and
    /// its performed log interned for the subset pre-check.
    fn index(&mut self, image: &GoldenImage) {
        let log = InternedLog::from_log(&image.performed, &mut self.interner);
        self.hw_rows
            .push((image.id.clone(), image.spec.clone(), log));
    }

    /// Remove an image and its files from the export. Chunks whose last
    /// reference this was are garbage-collected from the chunk tree.
    pub fn remove(&mut self, nfs: &NfsServer, id: &GoldenId) -> bool {
        let Some(golden) = self.goldens.remove(id) else {
            return false;
        };
        if let (true, Bulk::Chunked(plan)) = (golden.resident, &golden.bulk) {
            self.chunk_store.release(&nfs.store, plan, golden.slot);
        }
        self.refresh_footprint_gauges();
        self.hw_rows.retain(|(gid, _, _)| gid != id);
        nfs.store.remove_tree(&format!("/warehouse/{}/", id.0));
        true
    }

    /// Look up an image by id.
    pub fn get(&self, id: &GoldenId) -> Option<&GoldenImage> {
        self.goldens.get(id).map(|g| &g.image)
    }

    /// All images, ordered by id.
    pub(crate) fn images(&self) -> impl Iterator<Item = &GoldenImage> {
        self.goldens.values().map(|g| &g.image)
    }

    /// The hardware pre-filter: images whose memory/disk/OS/VMM identity
    /// matches the request (§3.2's first matching stage, ahead of the
    /// DAG-level tests).
    pub(crate) fn hardware_candidates(&self, spec: &VmSpec) -> Vec<&GoldenImage> {
        self.images()
            .filter(|img| img.hardware_matches(spec))
            .collect()
    }

    /// Full PPP lookup: the best image for the request (most actions
    /// already performed, ties to the lowest id) and its match report.
    /// Compiles the request DAG once (signature→node map, ancestor
    /// bitsets, topo order), skips rows that fail the hardware criterion
    /// or whose interned sig bitsets fail the cheap subset pre-check, runs
    /// the remaining tests on interned logs, and builds the report (node
    /// indices of the request DAG) for the winner only.
    pub fn lookup(
        &self,
        spec: &VmSpec,
        dag: &ConfigDag,
    ) -> Option<(&GoldenImage, vmplants_dag::MatchReport)> {
        self.lookups.inc();
        let compiled = CompiledDag::compile_readonly(dag, &self.interner);
        let mut best: Option<(&GoldenId, vmplants_dag::MatchedSet)> = None;
        for (id, _, log) in self.tested_rows(spec, compiled.sig_bits()) {
            if let Ok(matched) = compiled.verdict(log, &self.interner) {
                // Rows are not in id order, so break score ties by id to
                // replicate the naive path's first-in-id-order win.
                let better = match &best {
                    Some((b_id, b)) => {
                        matched.score() > b.score()
                            || (matched.score() == b.score() && id < *b_id)
                    }
                    None => true,
                };
                if better {
                    best = Some((id, matched));
                }
            }
        }
        match best {
            Some((id, matched)) => {
                self.hits.inc();
                self.match_depth.record(matched.score() as f64);
                // Per-golden demand, driving the replication policy.
                let golden = &self.goldens[id];
                golden.hits.set(golden.hits.get() + 1);
                Some((&golden.image, compiled.report(matched)))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// The index rows [`Warehouse::lookup`] runs the three §3.2 tests on:
    /// those that pass the hardware criterion and whose signatures are a
    /// subset of the request's (`request_sigs`). A signature outside the
    /// request's set means the Subset Test must fail, so the pre-check
    /// skips that row without the heavier tests.
    fn tested_rows<'a>(
        &'a self,
        spec: &'a VmSpec,
        request_sigs: &'a BitSet,
    ) -> impl Iterator<Item = &'a (GoldenId, VmSpec, InternedLog)> {
        self.hw_rows.iter().filter(move |(_, golden_spec, log)| {
            spec_matches(golden_spec, spec) && log.sig_bits().is_subset(request_sigs)
        })
    }

    /// The pre-index reference lookup: linear three-test matching via
    /// [`vmplants_dag::match_image`] against every hardware candidate.
    /// The tests' oracle for [`Warehouse::lookup`]: both must return the
    /// same image and report, and the oracle runs the three tests on
    /// every hardware candidate the index would skip.
    pub fn find_golden_naive(
        &self,
        spec: &VmSpec,
        dag: &ConfigDag,
    ) -> Option<(&GoldenImage, vmplants_dag::MatchReport)> {
        let mut best: Option<(&GoldenImage, vmplants_dag::MatchReport)> = None;
        for img in self.hardware_candidates(spec) {
            if let Ok(report) = vmplants_dag::match_image(dag, &img.performed) {
                let better = match &best {
                    Some((_, b)) => report.score() > b.score(),
                    None => true,
                };
                if better {
                    best = Some((img, report));
                }
            }
        }
        best
    }
}

impl Warehouse {
    /// Physical bytes of resident golden state (unique chunks in dedup
    /// mode, full bulk files otherwise). Config files and descriptors are
    /// excluded — they are kilobytes and survive eviction anyway.
    pub fn physical_footprint(&self) -> u64 {
        if self.config.dedup {
            self.chunk_store.physical_bytes()
        } else {
            self.goldens.values().map(Golden::resident_full_bytes).sum()
        }
    }

    /// Logical bytes of resident golden state (what full copies of every
    /// resident golden would occupy).
    pub fn logical_footprint(&self) -> u64 {
        if self.config.dedup {
            self.chunk_store.logical_bytes()
        } else {
            self.goldens.values().map(Golden::resident_full_bytes).sum()
        }
    }

    /// The dedup factor achieved across resident goldens (1.0 when dedup
    /// is off or nothing is shared).
    pub fn dedup_factor(&self) -> f64 {
        if self.config.dedup {
            self.chunk_store.dedup_factor()
        } else {
            1.0
        }
    }

    /// Evictions performed so far.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.get()
    }

    /// Re-derivations performed so far.
    pub fn rederive_count(&self) -> u64 {
        self.rederives.get()
    }

    /// Goldens currently replicated to the secondary servers.
    pub fn replicated_count(&self) -> usize {
        self.goldens.values().filter(|g| g.replicated).count()
    }

    /// Pin a golden against eviction: its clone trees (or spares) link
    /// into its files, so the state must stay resident while any live
    /// clone references it. Balanced by [`Warehouse::unpin`].
    pub fn pin(&mut self, id: &GoldenId) {
        if let Some(golden) = self.goldens.get_mut(id) {
            golden.pins += 1;
        }
    }

    /// Drop one clone reference; at zero the golden becomes evictable
    /// again (the dead clone tree's chunk references are reclaimable).
    pub fn unpin(&mut self, id: &GoldenId) {
        if let Some(golden) = self.goldens.get_mut(id) {
            golden.pins = golden.pins.saturating_sub(1);
        }
    }

    /// Enforce the capacity budget: while the physical footprint exceeds
    /// it, evict the resident, unpinned golden with the lowest
    /// (re-derivation cost ÷ bytes reclaimed) score — the cheapest
    /// cache-miss per byte freed. `keep` (the image just published or
    /// re-derived) is never a candidate. Returns evictions performed.
    pub(crate) fn enforce_capacity(&mut self, nfs: &NfsServer, keep: Option<&GoldenId>) -> usize {
        let Some(cap) = self.config.capacity_bytes else {
            return 0;
        };
        let mut evicted = 0;
        while self.physical_footprint() > cap {
            let (chunks, dedup) = (&self.chunk_store, self.config.dedup);
            let victim = self
                .goldens
                .iter_mut()
                .filter(|(id, g)| g.resident && g.pins == 0 && Some(*id) != keep)
                .map(|(id, g)| {
                    let reclaimable = g.reclaimable_bytes(chunks, dedup).max(1);
                    (g.rederive_cost_s() / reclaimable as f64, id, g)
                })
                .min_by(|(a, aid, _), (b, bid, _)| {
                    a.partial_cmp(b)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| aid.cmp(bid))
                });
            let Some((_, _, golden)) = victim else {
                break; // everything left is pinned or already cold
            };
            golden.evict(nfs, &mut self.chunk_store);
            self.evictions.inc();
            self.refresh_footprint_gauges();
            evicted += 1;
        }
        evicted
    }

    /// Make sure a golden's state files are on the export, re-deriving
    /// them from the descriptor + derivation DAG when eviction dropped
    /// them (CMS Virtual Data: the DAG *is* the address, so the chunk
    /// plan — and hence the content — is recomputable at any time; the
    /// record keeps it). Returns the simulated re-derivation delay to
    /// charge the caller ([`SimDuration::ZERO`] when already resident).
    pub fn ensure_resident(
        &mut self,
        nfs: &NfsServer,
        id: &GoldenId,
    ) -> Result<SimDuration, StoreError> {
        let Some(golden) = self.goldens.get_mut(id) else {
            return Err(StoreError::NotFound(format!("golden {id}")));
        };
        if golden.resident {
            return Ok(SimDuration::ZERO);
        }
        let cost = SimDuration::from_secs_f64(golden.rederive_cost_s());
        golden.materialize(nfs, &mut self.chunk_store, self.config.dedup)?;
        self.note_materialized();
        self.rederives.inc();
        // Re-admitting the derived state may displace something colder.
        self.enforce_capacity(nfs, Some(id));
        Ok(cost)
    }

    /// Replicate a golden to the secondary servers once its demand
    /// crosses the configured threshold. Called on the clone path; cheap
    /// no-op when replication is off, already done, or the golden is not
    /// hot yet. Returns whether a replication was performed.
    pub fn maybe_replicate(&mut self, nfs: &NfsServer, id: &GoldenId) -> bool {
        let Some(threshold) = self.config.replicate_after else {
            return false;
        };
        let Some(golden) = self.goldens.get_mut(id) else {
            return false;
        };
        if self.replicas.is_empty()
            || golden.replicated
            || !golden.resident
            || golden.hits.get() < threshold
        {
            return false;
        }
        let img = &golden.image;
        let descriptor = nfs
            .store
            .read_text(&format!("{}/descriptor.xml", img.files.dir))
            .ok();
        for replica in &self.replicas {
            if self.config.dedup {
                if let Bulk::Chunked(plan) = &golden.bulk {
                    let _ = self.chunk_store.replicate(&replica.store, plan);
                }
            } else {
                for bulk in img.files.bulk_files(img.spec.memory_mb, GOLDEN_DISK_BYTES) {
                    let _ = replica.store.put(&bulk.path, bulk.bytes, bulk.kind);
                }
            }
            let _ = replica
                .store
                .put(&*img.files.config, CONFIG_BYTES, FileKind::VmConfig);
            if let Some(text) = &descriptor {
                let _ = replica.store.put_text(
                    format!("{}/descriptor.xml", img.files.dir),
                    text.clone(),
                    FileKind::Generic,
                );
            }
        }
        golden.replicated = true;
        self.replications.inc();
        true
    }

    /// The server a given plant should clone this golden from: the
    /// primary unless the golden is replicated, in which case plants
    /// spread deterministically (by name hash) across primary + replicas
    /// — the "nearest replica" of a symmetric-topology site. `None`
    /// means use the primary.
    pub fn fetch_server_for(&self, id: &GoldenId, plant_name: &str) -> Option<NfsServer> {
        if self.replicas.is_empty() || !self.goldens.get(id).is_some_and(|g| g.replicated) {
            return None;
        }
        let slot = fnv_str(plant_name) as usize % (self.replicas.len() + 1);
        if slot == 0 {
            None
        } else {
            Some(self.replicas[slot - 1].clone())
        }
    }
}

impl Warehouse {
    /// Rebuild the in-memory index from the XML descriptors on the export —
    /// the §3.1 restoration path for the warehouse itself: the index is
    /// soft state; the NFS server's files are authoritative. The policy is
    /// not on the export, so the caller passes it again. Unparsable
    /// descriptors are skipped.
    pub fn restore_from(nfs: &NfsServer, config: WarehouseConfig) -> Warehouse {
        let mut warehouse = Warehouse::with_config(config);
        for path in nfs.store.list("/warehouse/") {
            if !path.ends_with("/descriptor.xml") {
                continue;
            }
            let Ok(text) = nfs.store.read_text(&path) else {
                continue;
            };
            let Ok(el) = vmplants_xmlmsg::parse(&text) else {
                continue;
            };
            let Ok(image) = xmldesc::image_from_xml(&el) else {
                continue;
            };
            // One row per golden: a second descriptor claiming an indexed
            // id would leave a row whose log is not the image's.
            if warehouse.goldens.contains_key(&image.id) {
                continue;
            }
            warehouse.index(&image);
            let golden = Golden::new(image, warehouse.slots);
            warehouse.slots += 1;
            warehouse.goldens.insert(golden.image.id.clone(), golden);
        }
        // Rebuild the chunk/residency bookkeeping from what is actually on
        // the export: the refcounts are soft state too, and the plan is
        // recomputable from the descriptor (the DAG is the address).
        for golden in warehouse.goldens.values_mut() {
            let image = &golden.image;
            let probe = &image.files.disk_extents[0];
            if matches!(nfs.store.manifest(probe), Ok(Some(_))) {
                // Re-publishing increfs existing chunks (rewriting a chunk
                // file is an idempotent same-size put), restoring the
                // refcounts image by image. A golden whose chunks cannot
                // all be registered is treated as evicted and re-derived on
                // demand.
                let plan = chunk_plan(image);
                let registered = warehouse
                    .chunk_store
                    .publish(&nfs.store, &plan, golden.slot);
                golden.resident = registered.is_ok();
                golden.bulk = Bulk::Chunked(plan);
            } else if nfs.store.exists(probe) {
                golden.bulk = Bulk::Full(full_copy_bytes(image));
                golden.resident = true;
            }
        }
        warehouse.refresh_footprint_gauges();
        warehouse
    }
}

impl Default for Warehouse {
    fn default() -> Self {
        Warehouse::new()
    }
}

/// Publish the experiments' golden set (§4.2): Mandrake 8.1 workstation
/// checkpoints at 32, 64 and 256 MB. Per §3.2, the golden is "checkpointed
/// with a setup consisting of Linux …, a VNC server and a Web file manager
/// server" — Figure 3's user-independent actions A, B, C — and the clone
/// is then "configured with an IP address and an In-VIGO's user name".
pub fn publish_experiment_goldens(
    warehouse: &mut Warehouse,
    nfs: &NfsServer,
) -> Vec<GoldenId> {
    let dag = vmplants_dag::graph::invigo_workspace_dag("template");
    let base: PerformedLog = ["A", "B", "C"]
        .iter()
        .map(|id| dag.action(id).expect("figure-3 action").clone())
        .collect();
    let mut ids = Vec::new();
    for mem in [32u64, 64, 256] {
        let id = format!("mandrake81-{mem}mb");
        warehouse
            .publish(
                nfs,
                &id,
                format!("Linux Mandrake 8.1 workstation, {mem} MB"),
                VmSpec::mandrake(mem),
                base.clone(),
            )
            .expect("fresh warehouse publish");
        ids.push(GoldenId(id));
    }
    ids
}

#[cfg(test)]
mod tests {
    use vmplants_cluster::files::gb;
    use super::*;
    use vmplants_cluster::files::HashKeyed;
    use vmplants_dag::graph::invigo_workspace_dag;
    use vmplants_dag::Action;
    use vmplants_virt::VmmType;

    impl Warehouse {
        /// Whether a golden's state files are on the export (false once
        /// eviction reduced it to descriptor + derivation DAG).
        fn is_resident(&self, id: &GoldenId) -> bool {
            self.goldens.get(id).is_some_and(|g| g.resident)
        }
    }

    fn nfs() -> NfsServer {
        NfsServer::new("storage")
    }

    #[test]
    fn publish_materializes_files_and_descriptor() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let img = w
            .publish(
                &nfs,
                "base-64",
                "base",
                VmSpec::mandrake(64),
                PerformedLog::new(),
            )
            .unwrap();
        assert_eq!(img.id, GoldenId("base-64".into()));
        // 16 extents + config + redo + memory + descriptor.xml.
        assert_eq!(nfs.store.list("/warehouse/base-64/").len(), 20);
        assert!(nfs.store.exists("/warehouse/base-64/descriptor.xml"));
        assert!(nfs.store.used_bytes() > gb(2));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        w.publish(&nfs, "x", "x", VmSpec::mandrake(32), PerformedLog::new())
            .unwrap();
        let err = w
            .publish(&nfs, "x", "x2", VmSpec::mandrake(32), PerformedLog::new())
            .unwrap_err();
        assert!(matches!(err, PublishError::DuplicateId(_)));
        assert_eq!(w.golden_count(), 1);
    }

    #[test]
    fn remove_deletes_the_tree() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        w.publish(&nfs, "x", "x", VmSpec::mandrake(32), PerformedLog::new())
            .unwrap();
        let before = nfs.store.used_bytes();
        assert!(before > 0);
        assert!(w.remove(&nfs, &GoldenId("x".into())));
        assert!(!w.remove(&nfs, &GoldenId("x".into())));
        assert_eq!(nfs.store.used_bytes(), 0);
        assert!(w.goldens.is_empty());
    }

    #[test]
    fn hardware_candidates_filter_by_spec() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        publish_experiment_goldens(&mut w, &nfs);
        assert_eq!(w.golden_count(), 3);
        let hits = w.hardware_candidates(&VmSpec::mandrake(64));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].spec.memory_mb, 64);
        assert!(w.hardware_candidates(&VmSpec::mandrake(128)).is_empty());
        assert!(w.hardware_candidates(&VmSpec::uml(64)).is_empty());
    }

    #[test]
    fn find_golden_runs_the_dag_tests() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        publish_experiment_goldens(&mut w, &nfs);
        let dag = invigo_workspace_dag("arijit");
        let (img, report) = w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.spec.memory_mb, 64);
        assert_eq!(report.score(), 3);
        assert_eq!(report.residual.len(), 6);
        // The base A/B/C actions are user-independent, so another user's
        // workspace DAG reuses the same goldens (score 3 again).
        let other = invigo_workspace_dag("jian");
        let (_, other_report) = w.lookup(&VmSpec::mandrake(64), &other).unwrap();
        assert_eq!(other_report.score(), 3);
    }

    #[test]
    fn find_golden_prefers_more_configured_images() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let dag = invigo_workspace_dag("arijit");
        let short: PerformedLog = ["A", "B"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let long: PerformedLog = ["A", "B", "C", "D"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        w.publish(&nfs, "short", "s", VmSpec::mandrake(64), short)
            .unwrap();
        w.publish(&nfs, "long", "l", VmSpec::mandrake(64), long)
            .unwrap();
        let (img, report) = w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.id, GoldenId("long".into()));
        assert_eq!(report.score(), 4);
    }

    #[test]
    fn images_with_foreign_actions_are_skipped() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let dag = invigo_workspace_dag("arijit");
        let foreign =
            PerformedLog::from_actions(vec![Action::guest("Z", "install-something-else")]);
        w.publish(&nfs, "foreign", "f", VmSpec::mandrake(64), foreign)
            .unwrap();
        let blank = PerformedLog::new();
        w.publish(&nfs, "blank", "b", VmSpec::mandrake(64), blank)
            .unwrap();
        let (img, report) = w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.id, GoldenId("blank".into()));
        assert_eq!(report.score(), 0);
    }

    /// Both lookup paths must agree image-for-image and byte-for-byte on
    /// the report — the indexed path is an optimization, not a semantics
    /// change.
    fn assert_lookup_matches_naive(w: &Warehouse, spec: &VmSpec, dag: &vmplants_dag::ConfigDag) {
        let fast = w.lookup(spec, dag);
        let naive = w.find_golden_naive(spec, dag);
        match (fast, naive) {
            (None, None) => {}
            (Some((fi, fr)), Some((ni, nr))) => {
                assert_eq!(fi.id, ni.id);
                assert_eq!(fr.matched, nr.matched);
                assert_eq!(fr.residual, nr.residual);
            }
            (fast, naive) => panic!(
                "indexed lookup diverged: fast={:?} naive={:?}",
                fast.map(|(i, _)| &i.id),
                naive.map(|(i, _)| &i.id)
            ),
        }
    }

    #[test]
    fn indexed_lookup_agrees_with_naive_oracle() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let dag = invigo_workspace_dag("arijit");
        // Empty warehouse.
        assert_lookup_matches_naive(&w, &VmSpec::mandrake(64), &dag);
        // Experiment goldens plus prefix / foreign / blank logs.
        publish_experiment_goldens(&mut w, &nfs);
        let long: PerformedLog = ["A", "B", "C", "D"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        w.publish(&nfs, "long", "l", VmSpec::mandrake(64), long)
            .unwrap();
        let foreign =
            PerformedLog::from_actions(vec![Action::guest("Z", "install-something-else")]);
        w.publish(&nfs, "foreign", "f", VmSpec::mandrake(64), foreign)
            .unwrap();
        w.publish(&nfs, "blank", "b", VmSpec::mandrake(64), PerformedLog::new())
            .unwrap();
        // The deepest log of all, on a different disk: it must win only
        // requests for that disk.
        let big_disk = VmSpec {
            disk_gb: 8,
            ..VmSpec::mandrake(64)
        };
        let deep: PerformedLog = ["A", "B", "C", "D", "E"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        w.publish(&nfs, "big-disk", "d", big_disk.clone(), deep)
            .unwrap();
        let mixed_case_os = VmSpec {
            os: "LINUX-Mandrake-8.1".into(),
            ..VmSpec::mandrake(64)
        };
        for spec in [
            VmSpec::mandrake(64),
            VmSpec::mandrake(32),
            VmSpec::mandrake(128),
            VmSpec::uml(64),
            mixed_case_os.clone(),
            big_disk.clone(),
        ] {
            assert_lookup_matches_naive(&w, &spec, &dag);
            assert_lookup_matches_naive(&w, &spec, &invigo_workspace_dag("jian"));
        }
        // The OS compares case-insensitively, the disk exactly.
        let (img, _) = w.lookup(&mixed_case_os, &dag).unwrap();
        assert_eq!(img.id, GoldenId("long".into()));
        let (img, _) = w.lookup(&big_disk, &dag).unwrap();
        assert_eq!(img.id, GoldenId("big-disk".into()));
        // Removal drops the candidate from the index too.
        assert!(w.remove(&nfs, &GoldenId("long".into())));
        assert_lookup_matches_naive(&w, &VmSpec::mandrake(64), &dag);
        let (img, _) = w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.id, GoldenId("mandrake81-64mb".into()));
    }

    /// A 48-action chain request: long enough that the three matching
    /// tests dominate a row's cost.
    fn chain_dag() -> vmplants_dag::ConfigDag {
        let mut dag = vmplants_dag::ConfigDag::new();
        let ids: Vec<String> = (0..48).map(|i| format!("s{i:02}")).collect();
        for id in &ids {
            dag.add_action(Action::guest(id, format!("install-{id}")))
                .unwrap();
        }
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        dag.chain(&refs).unwrap();
        dag
    }

    /// `goldens` goldens of the request's hardware: one in eight a genuine
    /// prefix of the chain (4 to 35 actions deep), the rest carrying a
    /// foreign action log.
    fn chain_warehouse(dag: &vmplants_dag::ConfigDag, goldens: usize) -> Warehouse {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let order = dag.topo_sort().unwrap();
        for i in 0..goldens {
            let performed: PerformedLog = if i % 8 == 0 {
                order
                    .iter()
                    .take(4 + (i % 32))
                    .map(|id| dag.action(id).unwrap().clone())
                    .collect()
            } else {
                (0..12)
                    .map(|j| Action::guest(format!("x{i}-{j}"), format!("foreign-{i}-{j}")))
                    .collect()
            };
            w.publish(
                &nfs,
                format!("chain-{i:04}"),
                "chain golden",
                VmSpec::mandrake(64),
                performed,
            )
            .unwrap();
        }
        w
    }

    /// The rows that reach §3.2's three matching tests, as an exact count
    /// per path: the naive scan tests every hardware candidate, the index
    /// only the rows whose signatures pass the subset pre-check — the
    /// prefix goldens, one in eight.
    #[test]
    fn subset_precheck_sends_only_prefix_rows_to_the_matching_tests() {
        let dag = chain_dag();
        let spec = VmSpec::mandrake(64);
        for (goldens, naive_rows, indexed_rows, depth) in
            [(10, 10, 2, 12), (100, 100, 13, 28), (1000, 1000, 125, 28)]
        {
            let w = chain_warehouse(&dag, goldens);
            let compiled = CompiledDag::compile_readonly(&dag, &w.interner);
            assert_eq!(
                w.hardware_candidates(&spec).len(),
                naive_rows,
                "naive rows at {goldens} goldens"
            );
            assert_eq!(
                w.tested_rows(&spec, compiled.sig_bits()).count(),
                indexed_rows,
                "indexed rows at {goldens} goldens"
            );
            assert_lookup_matches_naive(&w, &spec, &dag);
            let (_, report) = w.lookup(&spec, &dag).unwrap();
            assert_eq!(report.score(), depth, "deepest prefix at {goldens} goldens");
        }
    }

    #[test]
    fn warehouse_index_restores_from_descriptors() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        publish_experiment_goldens(&mut w, &nfs);
        let dag = invigo_workspace_dag("arijit");
        // The index is lost (warehouse service restart)…
        drop(w);
        // …and rebuilt wholesale from the on-disk descriptors.
        let restored = Warehouse::restore_from(&nfs, WarehouseConfig::default());
        assert_eq!(restored.golden_count(), 3);
        let (img, report) = restored.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.id, GoldenId("mandrake81-64mb".into()));
        assert_eq!(report.score(), 3);
        // Performed logs survived with order intact.
        let ids: Vec<&str> = img
            .performed
            .actions()
            .iter()
            .map(|a| a.id.as_str())
            .collect();
        assert_eq!(ids, vec!["A", "B", "C"]);
        // A corrupt descriptor is skipped, not fatal.
        nfs.store
            .put_text("/warehouse/broken/descriptor.xml", "<oops", vmplants_cluster::files::FileKind::Generic)
            .unwrap();
        assert_eq!(
            Warehouse::restore_from(&nfs, WarehouseConfig::default()).golden_count(),
            3
        );
    }

    /// Every resident golden's incremental reclaimable bytes equal the
    /// per-chunk scan over its plan.
    fn assert_reclaimable_matches_oracle(w: &Warehouse) {
        assert!(w.goldens.values().any(|g| g.resident));
        for (id, golden) in w.goldens.iter().filter(|(_, g)| g.resident) {
            let Bulk::Chunked(plan) = &golden.bulk else {
                panic!("golden {id} is not chunked");
            };
            assert_eq!(
                golden.reclaimable_bytes(&w.chunk_store, true),
                w.chunk_store.reclaimable_bytes_scan(plan),
                "golden {id}"
            );
        }
    }

    /// A restored warehouse keeps its capacity budget (the next publish
    /// past it evicts) and rebuilds the sole-reference accounting the
    /// eviction score reads.
    #[test]
    fn restored_warehouse_keeps_policy_and_accounting() {
        use vmplants_cluster::files::mb;
        let config = WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(gb(2) + mb(360)),
            replicate_after: None,
        };
        let nfs = nfs();
        let mut w = Warehouse::with_config(config.clone());
        publish_experiment_goldens(&mut w, &nfs);
        assert_eq!(w.eviction_count(), 1);
        assert_reclaimable_matches_oracle(&w);
        drop(w);
        let mut restored = Warehouse::restore_from(&nfs, config);
        assert_eq!(restored.config.capacity_bytes, Some(gb(2) + mb(360)));
        assert!(!restored.is_resident(&GoldenId("mandrake81-64mb".into())));
        assert_eq!(restored.goldens.values().filter(|g| g.resident).count(), 2);
        assert_reclaimable_matches_oracle(&restored);
        let dag = invigo_workspace_dag("template");
        let base: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        restored
            .publish(&nfs, "mandrake81-128mb", "m", VmSpec::mandrake(128), base)
            .unwrap();
        assert_eq!(
            restored.eviction_count(),
            1,
            "budget enforced after restore"
        );
        assert!(restored.physical_footprint() <= gb(2) + mb(360));
        assert_reclaimable_matches_oracle(&restored);
    }

    /// A golden whose chunks cannot all be re-registered on restore (one
    /// chunk is gone and the export is full) comes back evicted; the
    /// rollback leaves the files and the chunks its siblings share in
    /// place.
    #[test]
    fn restore_treats_unregistrable_golden_as_evicted() {
        let mut nfs = nfs();
        nfs.store = vmplants_cluster::files::FileStore::with_capacity(gb(3));
        let mut w = Warehouse::new();
        publish_experiment_goldens(&mut w, &nfs);
        drop(w);
        let vmss = "/warehouse/mandrake81-256mb/machine-256mb.vmss";
        let lost = nfs.store.manifest(vmss).unwrap().unwrap()[0];
        nfs.store.remove_chunk(lost).unwrap();
        let free = nfs.store.free_bytes().unwrap();
        nfs.store.put("/filler", free, FileKind::Generic).unwrap();
        let files = (nfs.store.list("/"), nfs.store.chunk_hashes());
        let restored = Warehouse::restore_from(&nfs, WarehouseConfig::default());
        assert_eq!((nfs.store.list("/"), nfs.store.chunk_hashes()), files);
        assert!(!restored.is_resident(&GoldenId("mandrake81-256mb".into())));
        assert!(restored.is_resident(&GoldenId("mandrake81-32mb".into())));
        assert!(restored.is_resident(&GoldenId("mandrake81-64mb".into())));
        assert_reclaimable_matches_oracle(&restored);
    }

    /// Capacity pressure evicts the golden with the lowest
    /// re-derivation-cost-per-reclaimed-byte. The three experiment goldens
    /// share every disk-extent chunk (keyed without memory), so each one's
    /// reclaimable bytes are just its private redo + memory-state chunks —
    /// equal costs, so the largest private footprint goes first.
    #[test]
    fn capacity_budget_evicts_cheapest_per_byte() {
        use vmplants_cluster::files::mb;
        let nfs = nfs();
        let mut w = Warehouse::with_config(WarehouseConfig {
            dedup: true,
            // Fits 32 MB + 64 MB private state on top of the shared 2 GB
            // of extents, but not the 256 MB golden's as well.
            capacity_bytes: Some(gb(2) + mb(360)),
            replicate_after: None,
        });
        publish_experiment_goldens(&mut w, &nfs);
        // Publishing the 256 MB golden overflowed the budget; it is itself
        // exempt (just published), costs are equal (3 actions each), so the
        // eviction score picks the larger of the other two private
        // footprints: the 64 MB golden (80 MB reclaimable vs 48 MB).
        assert_eq!(w.eviction_count(), 1);
        assert!(w.is_resident(&GoldenId("mandrake81-32mb".into())));
        assert!(!w.is_resident(&GoldenId("mandrake81-64mb".into())));
        assert!(w.is_resident(&GoldenId("mandrake81-256mb".into())));
        assert!(w.physical_footprint() <= gb(2) + mb(360));
        // The evicted golden keeps descriptor + index entry: matchmaking
        // still finds it.
        assert!(nfs
            .store
            .exists("/warehouse/mandrake81-64mb/descriptor.xml"));
        let dag = invigo_workspace_dag("arijit");
        let (img, _) = w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert_eq!(img.id, GoldenId("mandrake81-64mb".into()));
    }

    /// Re-deriving an evicted golden restores byte-identical state files
    /// (the chunk plan is a pure function of layout + spec + performed
    /// log), and charges the estimated re-derivation delay.
    #[test]
    fn rederive_restores_byte_identical_files() {
        use vmplants_cluster::files::mb;
        let nfs = nfs();
        let mut w = Warehouse::with_config(WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(gb(2) + mb(360)),
            replicate_after: None,
        });
        publish_experiment_goldens(&mut w, &nfs);
        let id = GoldenId("mandrake81-64mb".into());
        assert!(!w.is_resident(&id));
        // Snapshot what an untouched sibling's manifests look like so the
        // restored golden can be compared against a fresh publish.
        let paths: Vec<String> = w.get(&id).unwrap().files.all_paths()
            .iter()
            .map(|p| p.to_string())
            .collect();
        let cost = w.ensure_resident(&nfs, &id).unwrap();
        // 3 performed actions: 30 s base + 3 × 10 s replay.
        assert_eq!(cost, SimDuration::from_secs_f64(60.0));
        assert_eq!(w.rederive_count(), 1);
        assert!(w.is_resident(&id));
        for p in &paths {
            assert!(nfs.store.exists(p), "missing after rederive: {p}");
        }
        // Bulk files resolve to their full logical sizes again.
        assert_eq!(
            nfs.store
                .resolved_size("/warehouse/mandrake81-64mb/machine-64mb.vmss")
                .unwrap(),
            mb(64)
        );
        // Already-resident goldens re-derive for free.
        assert_eq!(w.ensure_resident(&nfs, &id).unwrap(), SimDuration::ZERO);
        // Re-admitting 80 MB displaced the now-coldest golden (the 256 MB
        // one has the lowest cost-per-byte of the remaining candidates).
        assert!(!w.is_resident(&GoldenId("mandrake81-256mb".into())));
    }

    /// Pinned goldens (live clone trees) are never evicted, even when the
    /// budget cannot be met; unpinning makes them candidates again.
    #[test]
    fn pins_block_eviction_until_released() {
        use vmplants_cluster::files::mb;
        let nfs = nfs();
        let mut w = Warehouse::with_config(WarehouseConfig {
            dedup: true,
            capacity_bytes: Some(gb(2)),
            replicate_after: None,
        });
        let dag = invigo_workspace_dag("arijit");
        let base: PerformedLog = ["A", "B", "C"]
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        w.publish(&nfs, "g32", "g", VmSpec::mandrake(32), base.clone())
            .unwrap();
        let g32 = GoldenId("g32".into());
        w.pin(&g32);
        w.pin(&g32);
        // The second publish overflows the 2 GB budget, but g32 is pinned
        // and g64 was just published: nothing can be evicted.
        w.publish(&nfs, "g64", "g", VmSpec::mandrake(64), base)
            .unwrap();
        assert_eq!(w.eviction_count(), 0);
        assert!(w.physical_footprint() > gb(2));
        // Still pinned after one unpin (two clones were cut).
        w.unpin(&g32);
        assert_eq!(w.enforce_capacity(&nfs, None), 1);
        assert!(w.is_resident(&g32), "pinned golden must survive");
        assert!(!w.is_resident(&GoldenId("g64".into())));
        assert!(w.physical_footprint() <= gb(2) + mb(96));
    }

    /// Hot goldens replicate to the secondary servers once demand crosses
    /// the threshold, and plants then spread deterministically across
    /// primary + replicas.
    #[test]
    fn hot_goldens_replicate_and_spread_fetches() {
        let nfs = nfs();
        let replica_a = NfsServer::new("storage-r1");
        let replica_b = NfsServer::new("storage-r2");
        let mut w = Warehouse::with_config(WarehouseConfig {
            dedup: true,
            capacity_bytes: None,
            replicate_after: Some(2),
        });
        w.set_replicas(vec![replica_a.clone(), replica_b.clone()]);
        publish_experiment_goldens(&mut w, &nfs);
        let id = GoldenId("mandrake81-64mb".into());
        let dag = invigo_workspace_dag("arijit");
        // First clone: below threshold, no replication yet.
        w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert!(!w.maybe_replicate(&nfs, &id));
        assert!(w.fetch_server_for(&id, "plant-0").is_none());
        // Second clone crosses the threshold.
        w.lookup(&VmSpec::mandrake(64), &dag).unwrap();
        assert!(w.maybe_replicate(&nfs, &id));
        assert!(!w.maybe_replicate(&nfs, &id), "replicates once");
        assert_eq!(w.replicated_count(), 1);
        // The replicas carry the full clone-source set: config, chunked
        // bulk files, descriptor.
        for replica in [&replica_a, &replica_b] {
            assert!(replica.store.exists("/warehouse/mandrake81-64mb/machine.vmx"));
            assert!(replica
                .store
                .exists("/warehouse/mandrake81-64mb/descriptor.xml"));
            assert_eq!(
                replica
                    .store
                    .resolved_size("/warehouse/mandrake81-64mb/machine-64mb.vmss")
                    .unwrap(),
                vmplants_cluster::files::mb(64)
            );
        }
        // Plant→server mapping is deterministic and actually spreads.
        let servers: Vec<Option<String>> = (0..8)
            .map(|i| {
                w.fetch_server_for(&id, &format!("plant-{i}"))
                    .map(|s| s.name().to_string())
            })
            .collect();
        let again: Vec<Option<String>> = (0..8)
            .map(|i| {
                w.fetch_server_for(&id, &format!("plant-{i}"))
                    .map(|s| s.name().to_string())
            })
            .collect();
        assert_eq!(servers, again);
        assert!(servers.iter().any(|s| s.is_some()), "some plant uses a replica");
        // Non-replicated goldens always fetch from the primary.
        assert!(w
            .fetch_server_for(&GoldenId("mandrake81-32mb".into()), "plant-0")
            .is_none());
    }

    /// The full-copy (dedup off) path supports the same eviction and
    /// re-derivation cycle, with footprint read off real file sizes.
    #[test]
    fn full_copy_mode_evicts_and_rederives() {
        use vmplants_cluster::files::mb;
        let nfs = nfs();
        let mut w = Warehouse::with_config(WarehouseConfig {
            dedup: false,
            capacity_bytes: Some(gb(4) + mb(400)),
            replicate_after: None,
        });
        publish_experiment_goldens(&mut w, &nfs);
        // Full copies: each golden is ~2 GB, so only two fit.
        assert_eq!(w.eviction_count(), 1);
        assert_eq!(w.dedup_factor(), 1.0);
        let evicted: Vec<GoldenId> = ["32", "64", "256"]
            .iter()
            .map(|m| GoldenId(format!("mandrake81-{m}mb")))
            .filter(|id| !w.is_resident(id))
            .collect();
        assert_eq!(evicted.len(), 1);
        let cost = w.ensure_resident(&nfs, &evicted[0]).unwrap();
        assert!(cost > SimDuration::ZERO);
        assert!(w.is_resident(&evicted[0]));
        assert!(nfs
            .store
            .exists(&w.get(&evicted[0]).unwrap().files.config));
    }

    /// The chunk-store conservation invariants, checked against the
    /// records: every refcount equals the references from resident
    /// goldens' plans, the export's chunk table holds exactly the live
    /// hashes, the export's used bytes are the live chunk bytes plus the
    /// file bytes, and each resident golden's reclaimable bytes equal the
    /// per-chunk scan. A resident golden's manifests resolve to full
    /// size; an evicted one keeps only its descriptor.
    fn assert_conserved(w: &Warehouse, nfs: &NfsServer, ctx: &str) {
        let mut refs: HashKeyed<u64> = HashKeyed::default();
        let mut sizes: HashKeyed<u64> = HashKeyed::default();
        for golden in w.goldens.values() {
            let files = &golden.image.files;
            let on_export = nfs.store.list(&format!("{}/", files.dir));
            if !golden.resident {
                let descriptor = format!("{}/descriptor.xml", files.dir);
                assert_eq!(
                    on_export,
                    [descriptor],
                    "{ctx}: evicted {}",
                    golden.image.id
                );
                continue;
            }
            let Bulk::Chunked(plan) = &golden.bulk else {
                panic!("{ctx}: resident golden {} is not chunked", golden.image.id);
            };
            assert_eq!(
                on_export.len(),
                plan.files.len() + 2,
                "{ctx}: {}",
                golden.image.id
            );
            for file in &plan.files {
                assert_eq!(nfs.store.resolved_size(&file.path), Ok(file.bytes), "{ctx}");
            }
            for (hash, size) in plan.files.iter().flat_map(|f| f.chunks()) {
                *refs.entry(hash).or_insert(0) += 1;
                sizes.insert(hash, size);
            }
            assert_eq!(
                golden.reclaimable_bytes(&w.chunk_store, true),
                w.chunk_store.reclaimable_bytes_scan(plan),
                "{ctx}: reclaimable bytes of {}",
                golden.image.id
            );
        }
        assert_eq!(w.chunk_store.refcounts(), refs, "{ctx}: refcounts");
        let mut live: Vec<u64> = refs.keys().copied().collect();
        live.sort_unstable();
        assert_eq!(nfs.store.chunk_hashes(), live, "{ctx}: chunk table");
        let chunk_bytes: u64 = sizes.values().sum();
        assert_eq!(
            w.chunk_store.physical_bytes(),
            chunk_bytes,
            "{ctx}: physical"
        );
        let file_bytes: u64 = nfs
            .store
            .list("/")
            .iter()
            .map(|p| nfs.store.stat(p).unwrap().bytes)
            .sum();
        assert_eq!(
            nfs.store.used_bytes(),
            chunk_bytes + file_bytes,
            "{ctx}: used"
        );
    }

    /// Seeded publish / lookup + re-derive / pin / unpin / enforce /
    /// remove sequences on a capacity-bounded warehouse keep the chunk
    /// store conserved after every step. Goldens are prefixes of one
    /// action chain at three memory sizes, and several ids share a
    /// derivation (hence every chunk), so eviction meets shared, private
    /// and doubly-owned chunks.
    #[test]
    fn chunk_store_is_conserved_under_churn() {
        use vmplants_simkit::SimRng;
        let actions: Vec<Action> = (0..8)
            .map(|i| Action::guest(format!("a{i}"), format!("step-{i}")))
            .collect();
        let chain = |depth: usize| {
            let mut dag = ConfigDag::new();
            for a in &actions[..depth] {
                dag.add_action(a.clone()).unwrap();
            }
            let ids: Vec<&str> = actions[..depth].iter().map(|a| a.id.as_str()).collect();
            dag.chain(&ids).unwrap();
            dag
        };
        let cap = gb(3);
        for seed in 1..=8u64 {
            let nfs = nfs();
            let mut w = Warehouse::with_config(WarehouseConfig {
                dedup: true,
                capacity_bytes: Some(cap),
                replicate_after: None,
            });
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pinned: Vec<GoldenId> = Vec::new();
            let mut published = 0;
            for step in 0..120 {
                let ctx = format!("seed {seed}, step {step}");
                let ids: Vec<GoldenId> = w.goldens.keys().cloned().collect();
                let mem = [32u64, 64, 256][rng.index(3)];
                match rng.index(8) {
                    0..=1 => {
                        let depth = rng.index(actions.len() + 1);
                        let log = PerformedLog::from_actions(actions[..depth].to_vec());
                        let id = format!("g{}", rng.index(published + 2));
                        match w.publish(&nfs, &id, "g", VmSpec::mandrake(mem), log) {
                            Ok(_) => published += 1,
                            Err(e) => {
                                assert!(matches!(e, PublishError::DuplicateId(_)), "{ctx}: {e}")
                            }
                        }
                    }
                    2..=3 => {
                        let request = chain(rng.index(actions.len() + 1));
                        let hit = w
                            .lookup(&VmSpec::mandrake(mem), &request)
                            .map(|(g, _)| g.id.clone());
                        if let Some(id) = hit {
                            let cost = w.ensure_resident(&nfs, &id).unwrap();
                            assert!(w.is_resident(&id), "{ctx}: {id} after {cost:?}");
                        }
                    }
                    4 if !ids.is_empty() => {
                        let id = ids[rng.index(ids.len())].clone();
                        w.pin(&id);
                        pinned.push(id);
                    }
                    5 if !pinned.is_empty() => {
                        let id = pinned.swap_remove(rng.index(pinned.len()));
                        w.unpin(&id);
                    }
                    6 => {
                        w.enforce_capacity(&nfs, None);
                        assert!(
                            w.physical_footprint() <= cap
                                || w.goldens.values().all(|g| !g.resident || g.pins > 0),
                            "{ctx}: over budget with an evictable golden"
                        );
                    }
                    7 if !ids.is_empty() && rng.chance(0.5) => {
                        let id = &ids[rng.index(ids.len())];
                        assert!(w.remove(&nfs, id));
                        pinned.retain(|p| p != id);
                        assert!(nfs.store.list(&format!("/warehouse/{}/", id.0)).is_empty());
                    }
                    _ => {}
                }
                assert_conserved(&w, &nfs, &ctx);
            }
            assert!(
                w.eviction_count() > 0 && w.rederive_count() > 0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn experiment_goldens_cover_the_three_memory_sizes() {
        let nfs = nfs();
        let mut w = Warehouse::new();
        let ids = publish_experiment_goldens(&mut w, &nfs);
        assert_eq!(ids.len(), 3);
        for (id, mem) in ids.iter().zip([32u64, 64, 256]) {
            let img = w.get(id).unwrap();
            assert_eq!(img.spec.memory_mb, mem);
            assert_eq!(img.performed.len(), 3);
            assert_eq!(img.spec.vmm, VmmType::VmwareLike);
        }
    }
}
