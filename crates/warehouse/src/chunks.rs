//! The content-addressed chunk store: dedup layer under the warehouse.
//!
//! Bulk golden-state files (disk extents, redo logs, memory snapshots) are
//! decomposed into fixed-size chunks addressed by a content hash derived
//! from the image's *derivation* — hardware identity plus the performed
//! configuration log (CMS "Virtual Data": the derivation DAG is the data's
//! address). Goldens sharing a DAG prefix therefore share the chunks that
//! prefix left untouched, and publishing dedups against chunks already in
//! the export's chunk table (hash → size, outside the path namespace).
//!
//! The simulation carries no real bytes: a chunk's "content" is exactly
//! its address, which is computed deterministically from the derivation.
//! Each performed action dirties a deterministic pseudo-random subset of
//! the image's disk chunks (folding its signature into their hashes) and
//! always rewrites the redo log and memory snapshot — a memory image never
//! survives an action untouched, but most of a 2 GB installed disk does.

use std::collections::hash_map::Entry;
use std::rc::Rc;

use vmplants_cluster::files::{FileKind, FileStore, HashKeyed, StoreError};
use vmplants_dag::action::ActionSignature;
use vmplants_dag::PerformedLog;
use vmplants_virt::{ImageFiles, VmSpec};

/// Fixed chunk size: 4 MiB (a 2 GB golden disk spans 512 chunks).
pub const CHUNK_BYTES: u64 = 4 * 1024 * 1024;

/// Out of every [`DIRTY_MOD`] disk chunks, roughly how many one
/// configuration action rewrites (install/configure steps touch a few
/// percent of an installed disk, not all of it).
const DIRTY_HIT: u64 = 1;
const DIRTY_MOD: u64 = 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// FNV-1a over a string (stable across runs and platforms).
pub fn fnv_str(s: &str) -> u64 {
    fnv_bytes(FNV_OFFSET, s.as_bytes())
}

/// Stable content hash of an action's matching identity.
pub fn sig_hash(sig: &ActionSignature) -> u64 {
    let mut h = fnv_bytes(FNV_OFFSET, format!("{:?}", sig.kind).as_bytes());
    h = fnv_bytes(h, sig.command.as_bytes());
    for (k, v) in &sig.params {
        h = fnv_bytes(h, k.as_bytes());
        h = fnv_bytes(h, v.as_bytes());
    }
    h
}

/// The chunk decomposition of one bulk file: the manifest the store entry
/// points at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileChunks {
    /// Warehouse path of the logical file.
    pub path: String,
    /// Role of the logical file.
    pub kind: FileKind,
    /// Logical size of the file.
    pub bytes: u64,
    /// Content hash per [`CHUNK_BYTES`] chunk, in file order (the last
    /// chunk holds the remainder). This is the manifest itself, shared
    /// with every export the file is written to.
    pub hashes: Rc<[u64]>,
}

impl FileChunks {
    /// `(content hash, size)` per chunk, in file order.
    pub fn chunks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let n = self.hashes.len();
        let last = self.bytes - (n as u64).saturating_sub(1) * CHUNK_BYTES;
        self.hashes
            .iter()
            .enumerate()
            .map(move |(i, &hash)| (hash, if i + 1 == n { last } else { CHUNK_BYTES }))
    }
}

/// The full chunk plan of a golden image — recomputable at any time from
/// `(spec, performed, layout)`, which is what makes evicted goldens
/// re-derivable from their descriptor alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Per bulk file, its chunk list.
    pub files: Vec<FileChunks>,
}

impl ChunkPlan {
    /// Plan the chunk decomposition of a golden image. Purely
    /// deterministic: base hashes name the pristine-install content of
    /// each chunk (keyed by OS/VMM identity, role, extent and chunk
    /// index — *not* by golden id, so distinct goldens share), then each
    /// performed action folds its signature into the chunks it dirties.
    pub fn plan(
        files: &ImageFiles,
        spec: &VmSpec,
        performed: &PerformedLog,
        disk_bytes: u64,
    ) -> ChunkPlan {
        let mut base = fnv_bytes(FNV_OFFSET, spec.os.as_bytes());
        base = fnv_bytes(base, spec.vmm.to_string().as_bytes());
        base = fnv_u64(base, spec.disk_gb);
        let sigs: Vec<u64> = performed.actions().iter().map(|a| sig_hash(&a.signature())).collect();
        let mut out = Vec::new();
        for bulk in files.bulk_files(spec.memory_mb, disk_bytes) {
            let mut role_key = fnv_bytes(base, bulk.role.as_bytes());
            role_key = fnv_u64(role_key, bulk.index as u64);
            // Memory snapshots are sized (and contentful) per memory size.
            if bulk.role != "extent" {
                role_key = fnv_u64(role_key, spec.memory_mb);
            }
            let n = bulk.bytes.div_ceil(CHUNK_BYTES).max(1);
            let mut hashes = Vec::with_capacity(n as usize);
            for c in 0..n {
                let key = fnv_u64(role_key, c);
                let mut h = key;
                for &sig in &sigs {
                    // Disk chunks are dirtied sparsely; redo and memory
                    // state are rewritten wholesale by every action.
                    let dirty = bulk.role != "extent"
                        || fnv_u64(sig, key) % DIRTY_MOD < DIRTY_HIT;
                    if dirty {
                        h = fnv_u64(h, sig);
                    }
                }
                hashes.push(h);
            }
            out.push(FileChunks {
                path: bulk.path.clone(),
                kind: bulk.kind,
                bytes: bulk.bytes,
                hashes: hashes.into(),
            });
        }
        ChunkPlan { files: out }
    }

    /// Logical bytes of the plan (what a full copy would occupy).
    pub fn logical_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Every `(hash, size)` chunk reference of the plan, in file order
    /// (a hash the plan lists twice appears twice).
    fn chunk_refs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.files.iter().flat_map(FileChunks::chunks)
    }

    /// Every distinct chunk hash in the plan with its size.
    #[cfg(test)]
    pub(crate) fn unique_chunks(&self) -> HashKeyed<u64> {
        self.chunk_refs().collect()
    }
}

/// Site-wide refcounted chunk bookkeeping. The chunks themselves are real
/// (byte-accounted) entries of the NFS export's chunk table; this tracks
/// which are live and how many manifests reference each, so the last
/// release of a chunk garbage-collects its bytes.
///
/// Every published plan belongs to an *owner*: a small dense slot number
/// the caller assigns (the warehouse gives one per golden). An owner has at
/// most one plan published at a time and releases exactly the plan it
/// published. Each chunk carries the XOR of the owners referencing it, so
/// at refcount 1 it names its sole owner, and the store keeps, per owner,
/// the bytes of the chunks only that owner references — what releasing
/// its plan would reclaim — current on every refcount change.
#[derive(Default)]
pub struct ChunkStore {
    /// Content hash → (refcount, size, XOR of the referencing owners),
    /// hashed by the content hash itself.
    refs: HashKeyed<(u64, u64, u64)>,
    /// Per owner slot: bytes of the chunks whose refcount is exactly 1
    /// and whose one reference is that owner's plan.
    sole_bytes: Vec<u64>,
    /// Physical bytes of all live chunks (Σ sizes of `refs` keys).
    physical: u64,
    /// Logical bytes of all published manifests (the full-copy footprint).
    logical: u64,
    /// Chunks found already present at publish time.
    pub dedup_hits: u64,
    /// Chunks newly written at publish time.
    pub dedup_misses: u64,
}

impl ChunkStore {
    /// An empty chunk store.
    pub fn new() -> ChunkStore {
        ChunkStore::default()
    }

    /// Physical bytes of live chunks.
    pub fn physical_bytes(&self) -> u64 {
        self.physical
    }

    /// Logical bytes across published manifests.
    pub fn logical_bytes(&self) -> u64 {
        self.logical
    }

    /// Live distinct chunks.
    pub fn chunk_count(&self) -> usize {
        self.refs.len()
    }

    /// The dedup factor achieved so far (1.0 means no sharing).
    pub fn dedup_factor(&self) -> f64 {
        if self.physical == 0 {
            1.0
        } else {
            self.logical as f64 / self.physical as f64
        }
    }

    /// Add one reference from `owner` to a chunk. Returns whether the chunk
    /// is new to the store (it still has to be written to the export).
    fn incref(&mut self, hash: u64, size: u64, owner: u64) -> bool {
        match self.refs.entry(hash) {
            Entry::Occupied(mut entry) => {
                let (count, size, owners) = entry.get_mut();
                if *count == 1 {
                    self.sole_bytes[*owners as usize] -= *size;
                }
                *count += 1;
                *owners ^= owner;
                self.dedup_hits += 1;
                false
            }
            Entry::Vacant(entry) => {
                entry.insert((1, size, owner));
                self.sole_bytes[owner as usize] += size;
                self.physical += size;
                self.dedup_misses += 1;
                true
            }
        }
    }

    /// Drop one reference from `owner` to a chunk. Returns the chunk's size
    /// when that was its last reference (the caller deletes the chunk).
    fn decref(&mut self, hash: u64, owner: u64) -> Option<u64> {
        let Entry::Occupied(mut entry) = self.refs.entry(hash) else {
            return None;
        };
        let (count, size, owners) = entry.get_mut();
        let size = *size;
        *count -= 1;
        *owners ^= owner;
        match *count {
            0 => {
                entry.remove();
                self.sole_bytes[owner as usize] -= size;
                self.physical -= size;
                Some(size)
            }
            1 => {
                self.sole_bytes[*owners as usize] += size;
                None
            }
            _ => None,
        }
    }

    /// Materialize `owner`'s plan on the export: write (or incref) every
    /// chunk, then write each bulk file as a chunk manifest. Returns the
    /// bytes of *new* chunk data written (the dedup savings are
    /// `logical - new`).
    ///
    /// All or nothing: if a write fails (a bounded export filling up), the
    /// references this call added are dropped again, the chunks it created
    /// are deleted, and the dedup counters are restored, so the store is
    /// exactly as before the call.
    pub fn publish(
        &mut self,
        store: &FileStore,
        plan: &ChunkPlan,
        owner: u64,
    ) -> Result<u64, StoreError> {
        let slot = owner as usize;
        if self.sole_bytes.len() <= slot {
            self.sole_bytes.resize(slot + 1, 0);
        }
        let counters = (self.dedup_hits, self.dedup_misses);
        let mut increfs = 0;
        let mut created = Vec::new();
        let mut new_bytes = 0u64;
        let mut written = Ok(());
        for (hash, size) in plan.chunk_refs() {
            increfs += 1;
            if !self.incref(hash, size, owner) {
                continue;
            }
            // Re-registering chunks already on the export (restoring the
            // refcounts) finds them there; a rollback must spare those.
            match store.put_chunk(hash, size) {
                Ok(true) => created.push(hash),
                Ok(false) => {}
                Err(e) => {
                    written = Err(e);
                    break;
                }
            }
            new_bytes += size;
        }
        let written = written.and_then(|()| {
            plan.files.iter().try_for_each(|file| {
                store.put_chunked(&file.path, file.kind, Rc::clone(&file.hashes))
            })
        });
        if let Err(e) = written {
            for (hash, _) in plan.chunk_refs().take(increfs) {
                self.decref(hash, owner);
            }
            for &hash in &created {
                store.remove_chunk(hash);
            }
            (self.dedup_hits, self.dedup_misses) = counters;
            return Err(e);
        }
        self.logical += plan.logical_bytes();
        Ok(new_bytes)
    }

    /// Drop `owner`'s plan references; chunks reaching refcount 0 are
    /// deleted from the export. Returns the bytes reclaimed. The manifests
    /// themselves are the caller's to remove (they live in the golden's
    /// directory tree).
    pub fn release(&mut self, store: &FileStore, plan: &ChunkPlan, owner: u64) -> u64 {
        let mut reclaimed = 0u64;
        for (hash, _) in plan.chunk_refs() {
            if let Some(size) = self.decref(hash, owner) {
                store.remove_chunk(hash);
                reclaimed += size;
            }
        }
        self.logical -= plan.logical_bytes();
        reclaimed
    }

    /// Bytes that releasing `owner`'s plan would reclaim right now: its
    /// chunks whose sole reference is that plan. A hash the plan itself
    /// lists twice has refcount 2 and does not count, although the
    /// release frees it.
    pub fn reclaimable_bytes(&self, owner: u64) -> u64 {
        self.sole_bytes.get(owner as usize).copied().unwrap_or(0)
    }

    /// The per-chunk scan [`ChunkStore::reclaimable_bytes`] keeps current
    /// incrementally: the test oracle.
    #[cfg(test)]
    pub(crate) fn reclaimable_bytes_scan(&self, plan: &ChunkPlan) -> u64 {
        plan.unique_chunks()
            .iter()
            .filter(|(hash, _)| matches!(self.refs.get(hash), Some((1, _, _))))
            .map(|(_, size)| size)
            .sum()
    }

    /// Every live chunk's refcount, by hash: the test view of the table.
    #[cfg(test)]
    pub(crate) fn refcounts(&self) -> HashKeyed<u64> {
        self.refs
            .iter()
            .map(|(&hash, &(count, _, _))| (hash, count))
            .collect()
    }

    /// Re-register a plan published on a *replica* export: writes any
    /// chunks missing there plus the manifests, without touching the
    /// refcounts (the primary's counts are authoritative). Returns the
    /// bytes copied to the replica.
    pub fn replicate(&self, store: &FileStore, plan: &ChunkPlan) -> Result<u64, StoreError> {
        let mut copied = 0u64;
        for file in &plan.files {
            for (hash, size) in file.chunks() {
                if store.put_chunk(hash, size)? {
                    copied += size;
                }
            }
            store.put_chunked(&file.path, file.kind, Rc::clone(&file.hashes))?;
        }
        Ok(copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vmplants_dag::graph::invigo_workspace_dag;
    use vmplants_simkit::rng::SimRng;
    use vmplants_virt::VmmType;

    const DISK: u64 = 2 * 1024 * 1024 * 1024;

    fn plan_for(log_ids: &[&str], mem: u64) -> ChunkPlan {
        let dag = invigo_workspace_dag("template");
        let performed: PerformedLog = log_ids
            .iter()
            .map(|id| dag.action(id).unwrap().clone())
            .collect();
        let files = ImageFiles::plan("/warehouse/x", VmmType::VmwareLike, mem, DISK);
        ChunkPlan::plan(&files, &VmSpec::mandrake(mem), &performed, DISK)
    }

    #[test]
    fn plan_is_deterministic_and_sized_right() {
        let a = plan_for(&["A", "B"], 64);
        let b = plan_for(&["A", "B"], 64);
        assert_eq!(a, b);
        // 16 extents + redo + vmss.
        assert_eq!(a.files.len(), 18);
        let expected = DISK + 16 * 1024 * 1024 + 64 * 1024 * 1024;
        assert_eq!(a.logical_bytes(), expected);
        // Every chunk is at most CHUNK_BYTES and they sum per file.
        for f in &a.files {
            assert!(f.chunks().all(|(_, s)| s <= CHUNK_BYTES && s > 0));
            assert_eq!(f.chunks().map(|(_, s)| s).sum::<u64>(), f.bytes);
        }
    }

    #[test]
    fn shared_prefixes_share_most_disk_chunks() {
        let abc = plan_for(&["A", "B", "C"], 64);
        let abcd = plan_for(&["A", "B", "C", "D"], 64);
        let a_chunks = abc.unique_chunks();
        let b_chunks = abcd.unique_chunks();
        let shared: u64 = b_chunks
            .iter()
            .filter(|(h, _)| a_chunks.contains_key(h))
            .map(|(_, s)| s)
            .sum();
        // D dirties ~1/16 of the disk and rewrites redo+vmss; the bulk of
        // the 2 GB disk is still shared.
        assert!(
            shared > DISK * 8 / 10,
            "only {shared} bytes shared between prefix plans"
        );
        // An unrelated log shares essentially nothing beyond luck.
        let other = plan_for(&["A", "B"], 256);
        assert!(other
            .unique_chunks()
            .keys()
            .filter(|h| a_chunks.contains_key(h))
            .count() < 600);
    }

    #[test]
    fn publish_release_round_trip_reclaims_everything() {
        let store = FileStore::new("export");
        let mut cs = ChunkStore::new();
        let p1 = plan_for(&["A", "B", "C"], 64);
        let p2 = plan_for(&["A", "B", "C", "D"], 64);
        let new1 = cs.publish(&store, &p1, 0).unwrap();
        assert_eq!(new1, p1.logical_bytes(), "first publish is all new");
        let new2 = cs.publish(&store, &p2, 1).unwrap();
        assert!(new2 < p2.logical_bytes() / 4, "second publish mostly dedups");
        assert!(cs.dedup_factor() > 1.5);
        assert_eq!(store.used_bytes(), cs.physical_bytes());
        // Releasing one plan keeps shared chunks alive…
        cs.release(&store, &p2, 1);
        assert_eq!(cs.logical_bytes(), p1.logical_bytes());
        let remaining = p1.unique_chunks();
        assert!(remaining.keys().all(|&h| store.has_chunk(h)));
        // …and releasing the last reference reclaims every byte.
        cs.release(&store, &p1, 0);
        assert_eq!(cs.physical_bytes(), 0);
        assert_eq!(cs.chunk_count(), 0);
        assert_eq!(store.used_bytes(), 0, "all chunks deleted");
        assert!(store.chunk_hashes().is_empty());
    }

    #[test]
    fn reclaimable_counts_only_sole_references() {
        let store = FileStore::new("export");
        let mut cs = ChunkStore::new();
        let p1 = plan_for(&["A", "B", "C"], 64);
        let p2 = plan_for(&["A", "B", "C", "D"], 64);
        cs.publish(&store, &p1, 0).unwrap();
        cs.publish(&store, &p2, 1).unwrap();
        let r1 = cs.reclaimable_bytes(0);
        assert!(r1 < p1.logical_bytes() / 4, "most of p1 is pinned by p2");
        let reclaimed = cs.release(&store, &p1, 0);
        assert_eq!(reclaimed, r1, "estimate matches actual reclaim");
    }

    /// Every plan the differential test draws from: overlapping DAG
    /// prefixes at two memory sizes, plus a hand-built plan that lists one
    /// shared and one private hash twice each.
    fn plan_pool() -> Vec<ChunkPlan> {
        let ids = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
        let mut pool: Vec<ChunkPlan> = (0..=ids.len())
            .flat_map(|k| [32, 64].map(|mem| plan_for(&ids[..k], mem)))
            .collect();
        // Every chunk of these plans is a full CHUNK_BYTES.
        let shared = pool[3].files[0].hashes[0];
        let private = 0xd0d0_d0d0_d0d0_d0d0;
        pool.push(ChunkPlan {
            files: vec![FileChunks {
                path: "/warehouse/dup/disk.vmdk".into(),
                kind: FileKind::DiskExtent,
                bytes: 5 * CHUNK_BYTES,
                hashes: vec![shared, private, shared, private, pool[5].files[1].hashes[2]].into(),
            }],
        });
        pool
    }

    /// Bytes releasing `plan` frees beyond its reclaimable bytes: hashes it
    /// lists more than once and nothing else references.
    fn self_pinned_bytes(cs: &ChunkStore, plan: &ChunkPlan) -> u64 {
        let mut listed: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (hash, size) in plan.chunk_refs() {
            listed.entry(hash).or_insert((0, size)).0 += 1;
        }
        listed
            .iter()
            .filter(|(hash, (n, _))| *n > 1 && cs.refs[*hash].0 == *n)
            .map(|(_, (_, size))| size)
            .sum()
    }

    /// Seeded random publish / release / re-publish sequences: after every
    /// step each published owner's incremental reclaimable bytes equal the
    /// per-chunk scan, and a release frees exactly that much (plus the
    /// hashes a plan lists twice, which the scan never counts).
    #[test]
    fn incremental_reclaimable_matches_scan_oracle() {
        let pool = plan_pool();
        let dup = pool.len() - 1;
        for seed in 1..=4 {
            let store = FileStore::new("export");
            let mut cs = ChunkStore::new();
            let mut rng = SimRng::seed_from_u64(seed);
            let mut published: BTreeMap<u64, usize> = BTreeMap::new();
            for _ in 0..120 {
                let owner = rng.uniform_u64(0, 7);
                match published.remove(&owner) {
                    Some(p) => {
                        let plan = &pool[p];
                        let pinned = self_pinned_bytes(&cs, plan);
                        assert!(p == dup || pinned == 0);
                        let expected = cs.reclaimable_bytes_scan(plan) + pinned;
                        assert_eq!(cs.release(&store, plan, owner), expected);
                    }
                    None => {
                        let p = rng.index(pool.len());
                        cs.publish(&store, &pool[p], owner).unwrap();
                        published.insert(owner, p);
                    }
                }
                for (&owner, &p) in &published {
                    assert_eq!(
                        cs.reclaimable_bytes(owner),
                        cs.reclaimable_bytes_scan(&pool[p]),
                        "seed {seed}, owner {owner}, plan {p}"
                    );
                }
                assert_eq!(store.used_bytes(), cs.physical_bytes());
            }
            for (owner, p) in published {
                cs.release(&store, &pool[p], owner);
                assert_eq!(cs.reclaimable_bytes(owner), 0);
            }
            assert_eq!(cs.chunk_count(), 0);
            assert_eq!(cs.logical_bytes(), 0);
            assert!(cs.sole_bytes.iter().all(|&b| b == 0));
        }
    }

    /// A publish that fills a bounded export midway leaves the store and
    /// the bookkeeping exactly as before the call.
    #[test]
    fn failed_publish_rolls_back_completely() {
        let p1 = plan_for(&["A", "B", "C"], 64);
        let p2 = plan_for(&["A", "B", "C", "D"], 256);
        let headroom = 100 * 1024 * 1024;
        let store = FileStore::with_capacity("export", p1.logical_bytes() + headroom);
        let mut cs = ChunkStore::new();
        cs.publish(&store, &p1, 0).unwrap();
        let snapshot = |store: &FileStore, cs: &ChunkStore| {
            (
                store.list("/"),
                store.chunk_hashes(),
                store.used_bytes(),
                cs.physical_bytes(),
                cs.logical_bytes(),
                cs.chunk_count(),
                cs.dedup_hits,
                cs.dedup_misses,
                cs.refs.clone(),
                [0, 1].map(|owner| cs.reclaimable_bytes(owner)),
            )
        };
        let before = snapshot(&store, &cs);
        // p2 needs far more new bytes than the headroom, but its first
        // new chunks fit: the failure comes midway through the plan.
        let unique = p1.unique_chunks();
        let new: u64 = p2
            .unique_chunks()
            .iter()
            .filter(|(h, _)| !unique.contains_key(h))
            .map(|(_, s)| s)
            .sum();
        assert!(new > 2 * headroom);
        let err = cs.publish(&store, &p2, 1).unwrap_err();
        assert!(matches!(err, StoreError::Full { .. }), "{err:?}");
        assert_eq!(snapshot(&store, &cs), before);
        assert_eq!(cs.release(&store, &p1, 0), p1.logical_bytes());
        assert_eq!(store.used_bytes(), 0);

        // Re-registering chunks already on the export (the restore path)
        // finds them there; a rollback must not delete them.
        let export = FileStore::with_capacity("export", p1.logical_bytes() + headroom);
        ChunkStore::new().publish(&export, &p1, 0).unwrap();
        let files = (export.list("/"), export.chunk_hashes());
        let mut restored = ChunkStore::new();
        assert!(restored.publish(&export, &p2, 0).is_err());
        assert_eq!((export.list("/"), export.chunk_hashes()), files);
        assert_eq!(restored.chunk_count(), 0);
        assert_eq!(restored.physical_bytes(), 0);
    }

    #[test]
    fn replicate_copies_chunks_and_manifests() {
        let primary = FileStore::new("primary");
        let replica = FileStore::new("replica");
        let mut cs = ChunkStore::new();
        let p = plan_for(&["A", "B"], 32);
        cs.publish(&primary, &p, 0).unwrap();
        let copied = cs.replicate(&replica, &p).unwrap();
        assert_eq!(copied, p.logical_bytes());
        assert_eq!(replica.used_bytes(), primary.used_bytes());
        for f in &p.files {
            assert_eq!(
                replica.resolved_size(&f.path).unwrap(),
                primary.resolved_size(&f.path).unwrap()
            );
        }
        // Replicating again is a no-op byte-wise.
        assert_eq!(cs.replicate(&replica, &p).unwrap(), 0);
    }
}
