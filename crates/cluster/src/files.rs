//! Byte-accounted simulated file stores.
//!
//! Golden images, clones, redo logs, memory-state files and configuration
//! ISOs are all "files" whose *sizes* drive the timing model. A
//! [`FileStore`] tracks a flat path → metadata map with POSIX-ish symlink
//! semantics: a symlink contributes ~0 bytes (the paper's cloning trick),
//! while reads resolve through it to the target's size. Beside the path
//! namespace, a store keeps a content-addressed chunk table (hash → size)
//! that chunk manifests list their contents from.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Bound;
use std::rc::Rc;

/// Hasher for tables keyed by a content hash: the key is an FNV hash,
/// already well mixed, so it is its own table hash. The keys come from
/// chunk plans the program computes, never from outside input, so the
/// tables need no protection against crafted collisions.
#[derive(Default)]
pub struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A table keyed by content hash, hashed by [`PassThroughHasher`].
pub type HashKeyed<V> = HashMap<u64, V, BuildHasherDefault<PassThroughHasher>>;

/// What role a file plays, for reporting and sanity checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A VM configuration file (`.vmx`-like).
    VmConfig,
    /// One extent of a base virtual disk (the golden disk spans 16 such
    /// files in the paper's setup).
    DiskExtent,
    /// A copy-on-write redo log capturing writes against a base disk.
    RedoLog,
    /// A suspended-VM memory state file (`.vmss`-like).
    MemoryState,
    /// A CD-ROM ISO image carrying configuration scripts.
    IsoImage,
    /// Anything else.
    Generic,
}

/// Metadata for one stored file.
#[derive(Clone, Debug, PartialEq)]
pub struct FileMeta {
    /// Logical size in bytes (0 for symlinks).
    pub bytes: u64,
    /// Role of the file.
    pub kind: FileKind,
    /// If set, this entry is a symlink to the given path *within the same
    /// store or another store's namespace*; size queries resolve through it.
    /// Shared: a linked clone's extent links point at the golden's own
    /// path strings, so removing the clone only drops reference counts.
    pub link_target: Option<Rc<str>>,
    /// Small text files (descriptors, configs) keep their actual content so
    /// services can be restored from "disk" after a crash. Bulk data files
    /// carry sizes only.
    pub content: Option<String>,
    /// If set, this entry is a *chunk manifest*: a logical file whose bytes
    /// live in the listed chunks of the store's chunk table, by content
    /// hash (content-addressed dedup). The entry itself costs ~0 physical
    /// bytes; readers see the summed chunk sizes.
    pub chunks: Option<Rc<[u64]>>,
}

#[derive(Default)]
struct StoreInner {
    name: String,
    files: BTreeMap<String, FileMeta>,
    /// The content-addressed chunk table: hash → size. Chunks take
    /// physical bytes but live outside the path namespace.
    chunks: HashKeyed<u64>,
    /// Sum of `bytes` over `files` plus the sizes in `chunks`, kept by
    /// [`StoreInner::insert`], [`StoreInner::remove`],
    /// [`FileStore::remove_tree`] and the chunk-table methods — the only
    /// places either map changes.
    used: u64,
    capacity_bytes: Option<u64>,
}

/// A named simulated file tree. Cheap `Rc` handle.
#[derive(Clone)]
pub struct FileStore {
    inner: Rc<RefCell<StoreInner>>,
}

/// Errors from store operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The path does not exist.
    NotFound(String),
    /// Writing would exceed the store's capacity.
    Full {
        /// Requested additional bytes.
        requested: u64,
        /// Bytes still available.
        available: u64,
    },
    /// A symlink chain did not terminate within the hop budget.
    LinkLoop(String),
    /// The backing server or device is offline (NFS outage, host crash);
    /// the operation may succeed later or on another replica.
    Unavailable(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(p) => write!(f, "no such file: {p}"),
            StoreError::Full {
                requested,
                available,
            } => write!(f, "store full: need {requested} bytes, {available} free"),
            StoreError::LinkLoop(p) => write!(f, "symlink loop at {p}"),
            StoreError::Unavailable(what) => write!(f, "storage unavailable: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

const MAX_LINK_HOPS: usize = 16;

impl FileStore {
    /// An unbounded store.
    pub fn new(name: impl Into<String>) -> FileStore {
        FileStore {
            inner: Rc::new(RefCell::new(StoreInner {
                name: name.into(),
                ..StoreInner::default()
            })),
        }
    }

    /// A store with a byte capacity (e.g. an 18 GB node disk).
    pub fn with_capacity(name: impl Into<String>, capacity_bytes: u64) -> FileStore {
        let s = FileStore::new(name);
        s.inner.borrow_mut().capacity_bytes = Some(capacity_bytes);
        s
    }

    /// Store name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// True when both handles refer to the same underlying store.
    pub fn same_store(&self, other: &FileStore) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Create or replace a regular file.
    pub fn put(
        &self,
        path: impl Into<String>,
        bytes: u64,
        kind: FileKind,
    ) -> Result<(), StoreError> {
        let path = path.into();
        let mut inner = self.inner.borrow_mut();
        let existing = inner.files.get(&path).map(|m| m.bytes).unwrap_or(0);
        inner.check_room(existing, bytes)?;
        inner.insert(
            path,
            FileMeta {
                bytes,
                kind,
                link_target: None,
                content: None,
                chunks: None,
            },
        );
        Ok(())
    }

    /// Create or replace a chunk manifest: a logical file assembled from
    /// chunks of this store's chunk table, listed by content hash. The
    /// manifest entry itself is metadata (~0 bytes);
    /// [`FileStore::resolved_size`] reports the summed chunk sizes, so
    /// transfer timing is identical to a whole file of the same logical
    /// size.
    pub fn put_chunked(
        &self,
        path: impl Into<String>,
        kind: FileKind,
        chunks: impl Into<Rc<[u64]>>,
    ) -> Result<(), StoreError> {
        self.inner.borrow_mut().insert(
            path.into(),
            FileMeta {
                bytes: 0,
                kind,
                link_target: None,
                content: None,
                chunks: Some(chunks.into()),
            },
        );
        Ok(())
    }

    /// The chunk hashes of a manifest at `path` (following symlinks), or
    /// `None` when the path resolves to a regular file.
    pub fn manifest(&self, path: &str) -> Result<Option<Rc<[u64]>>, StoreError> {
        let inner = self.inner.borrow();
        let meta = inner.resolve(path)?;
        Ok(meta.chunks.clone())
    }

    /// Create or replace a small *text* file whose content is retained
    /// (descriptors, configuration files). Size is the UTF-8 byte length.
    pub fn put_text(
        &self,
        path: impl Into<String>,
        text: impl Into<String>,
        kind: FileKind,
    ) -> Result<(), StoreError> {
        let path = path.into();
        let text = text.into();
        let bytes = text.len() as u64;
        self.put(&path, bytes, kind)?;
        if let Some(meta) = self.inner.borrow_mut().files.get_mut(&path) {
            meta.content = Some(text);
        }
        Ok(())
    }

    /// Read back the content of a text file written with
    /// [`FileStore::put_text`]. Follows symlinks.
    pub fn read_text(&self, path: &str) -> Result<String, StoreError> {
        let inner = self.inner.borrow();
        let meta = inner.resolve(path)?;
        meta.content
            .clone()
            .ok_or_else(|| StoreError::NotFound(format!("{path} has no text content")))
    }

    /// Create a symlink at `path` pointing to `target`. The target need not
    /// exist yet (dangling links resolve to `NotFound` at read time).
    pub fn link(&self, path: impl Into<String>, target: impl Into<Rc<str>>) {
        self.inner.borrow_mut().insert(
            path.into(),
            FileMeta {
                bytes: 0,
                kind: FileKind::Generic,
                link_target: Some(target.into()),
                content: None,
                chunks: None,
            },
        );
    }

    /// Add a chunk of `size` bytes to the chunk table under its content
    /// hash. Returns whether the chunk is new: a hash already present names
    /// the same content, so re-adding it changes nothing. A new chunk is
    /// capacity-checked like any write.
    pub fn put_chunk(&self, hash: u64, size: u64) -> Result<bool, StoreError> {
        let mut inner = self.inner.borrow_mut();
        if inner.chunks.contains_key(&hash) {
            return Ok(false);
        }
        inner.check_room(0, size)?;
        inner.chunks.insert(hash, size);
        inner.used += size;
        Ok(true)
    }

    /// Whether the chunk table holds this hash.
    pub fn has_chunk(&self, hash: u64) -> bool {
        self.inner.borrow().chunks.contains_key(&hash)
    }

    /// Drop a chunk from the chunk table; returns its size, or `None` when
    /// the hash was not there. Manifests listing it stop resolving.
    pub fn remove_chunk(&self, hash: u64) -> Option<u64> {
        let mut inner = self.inner.borrow_mut();
        let size = inner.chunks.remove(&hash)?;
        inner.used -= size;
        Some(size)
    }

    /// Every chunk hash in the chunk table, ascending.
    pub fn chunk_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self.inner.borrow().chunks.keys().copied().collect();
        hashes.sort_unstable();
        hashes
    }

    /// Remove a file or symlink; returns its metadata.
    pub fn remove(&self, path: &str) -> Result<FileMeta, StoreError> {
        self.inner
            .borrow_mut()
            .remove(path)
            .ok_or_else(|| StoreError::NotFound(path.to_owned()))
    }

    /// Remove every file under a path prefix; returns how many were removed.
    /// One pass over the prefix's key range, which ends at the first key
    /// past every path the prefix starts.
    pub fn remove_tree(&self, prefix: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let upper = match successor(prefix) {
            Some(end) => Bound::Excluded(end),
            None => Bound::Unbounded,
        };
        let range = (Bound::Included(prefix.to_owned()), upper);
        let (count, freed) = inner
            .files
            .extract_if(range, |_, _| true)
            .fold((0, 0), |(count, freed), (_, meta)| {
                (count + 1, freed + meta.bytes)
            });
        inner.used -= freed;
        count
    }

    /// Whether the path exists (as file or symlink). Chunks are not paths.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.borrow().files.contains_key(path)
    }

    /// Metadata without link resolution.
    pub fn stat(&self, path: &str) -> Result<FileMeta, StoreError> {
        self.inner
            .borrow()
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| StoreError::NotFound(path.to_owned()))
    }

    /// Logical size following symlinks (the bytes a reader would fetch).
    /// A chunk manifest resolves to the sum of its chunk sizes; a chunk
    /// missing from the table is [`StoreError::NotFound`].
    pub fn resolved_size(&self, path: &str) -> Result<u64, StoreError> {
        let inner = self.inner.borrow();
        let meta = inner.resolve(path)?;
        match &meta.chunks {
            None => Ok(meta.bytes),
            Some(chunks) => chunks.iter().try_fold(0, |total, hash| {
                match inner.chunks.get(hash) {
                    Some(size) => Ok(total + size),
                    None => Err(StoreError::NotFound(format!("chunk {hash:016x}"))),
                }
            }),
        }
    }

    /// The kind of the final target, following symlinks.
    pub fn resolved_kind(&self, path: &str) -> Result<FileKind, StoreError> {
        let inner = self.inner.borrow();
        Ok(inner.resolve(path)?.kind)
    }

    /// Physical bytes used by files and chunks (symlinks cost nothing).
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().used
    }

    /// Free bytes, if the store is bounded.
    pub fn free_bytes(&self) -> Option<u64> {
        let inner = self.inner.borrow();
        inner
            .capacity_bytes
            .map(|cap| cap.saturating_sub(inner.used))
    }

    /// Number of entries (files + symlinks + chunks).
    pub fn file_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.files.len() + inner.chunks.len()
    }

    /// Paths under a prefix, sorted (chunks are not listed).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.borrow().under(prefix).cloned().collect()
    }
}

impl StoreInner {
    /// Fail with [`StoreError::Full`] unless writing `bytes` in place of
    /// `replaced` existing bytes fits the capacity.
    fn check_room(&self, replaced: u64, bytes: u64) -> Result<(), StoreError> {
        if let Some(cap) = self.capacity_bytes {
            let used = self.used - replaced;
            if used + bytes > cap {
                return Err(StoreError::Full {
                    requested: bytes,
                    available: cap.saturating_sub(used),
                });
            }
        }
        Ok(())
    }

    /// Create or replace one entry, keeping `used` in step.
    fn insert(&mut self, path: String, meta: FileMeta) {
        self.used += meta.bytes;
        if let Some(old) = self.files.insert(path, meta) {
            self.used -= old.bytes;
        }
    }

    /// Remove one entry, keeping `used` in step.
    fn remove(&mut self, path: &str) -> Option<FileMeta> {
        let meta = self.files.remove(path)?;
        self.used -= meta.bytes;
        Some(meta)
    }

    /// Paths under `prefix`, in order: a range walk from the prefix, not
    /// a scan of every key.
    fn under<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a String> + 'a {
        self.files
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(p, _)| p)
            .take_while(move |p| p.starts_with(prefix))
    }

    /// Follow symlinks to the terminal entry (bounded by the hop budget).
    fn resolve(&self, path: &str) -> Result<&FileMeta, StoreError> {
        let mut current = path;
        for _ in 0..MAX_LINK_HOPS {
            let meta = self
                .files
                .get(current)
                .ok_or_else(|| StoreError::NotFound(current.to_owned()))?;
            match &meta.link_target {
                Some(target) => current = &**target,
                None => return Ok(meta),
            }
        }
        Err(StoreError::LinkLoop(path.to_owned()))
    }
}

/// The least string greater than every string that starts with `prefix`,
/// or `None` when no such string exists (`prefix` is empty or made only
/// of `char::MAX`). Trailing `char::MAX` are dropped and the last char
/// left is stepped to the next scalar value, skipping the surrogates.
fn successor(prefix: &str) -> Option<String> {
    let stem = prefix.trim_end_matches(char::MAX);
    let last = stem.chars().next_back()?;
    let next = match last {
        '\u{D7FF}' => '\u{E000}',
        c => char::from_u32(c as u32 + 1).expect("not a surrogate and below char::MAX"),
    };
    let mut end = stem[..stem.len() - last.len_utf8()].to_owned();
    end.push(next);
    Some(end)
}

/// Megabytes → bytes, for readable test and testbed constants.
pub const fn mb(n: u64) -> u64 {
    n * 1024 * 1024
}

/// Gigabytes → bytes.
pub const fn gb(n: u64) -> u64 {
    n * 1024 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_stat_remove() {
        let s = FileStore::new("test");
        s.put("/w/golden/disk0", mb(128), FileKind::DiskExtent)
            .unwrap();
        assert!(s.exists("/w/golden/disk0"));
        let meta = s.stat("/w/golden/disk0").unwrap();
        assert_eq!(meta.bytes, mb(128));
        assert_eq!(meta.kind, FileKind::DiskExtent);
        assert_eq!(s.used_bytes(), mb(128));
        s.remove("/w/golden/disk0").unwrap();
        assert!(!s.exists("/w/golden/disk0"));
        assert!(matches!(
            s.remove("/w/golden/disk0"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn symlinks_cost_nothing_but_resolve_to_target_size() {
        let s = FileStore::new("test");
        s.put("/warehouse/base.disk", gb(2), FileKind::DiskExtent)
            .unwrap();
        s.link("/clones/vm1/disk", "/warehouse/base.disk");
        assert_eq!(s.used_bytes(), gb(2), "link adds no bytes");
        assert_eq!(s.resolved_size("/clones/vm1/disk").unwrap(), gb(2));
        assert_eq!(
            s.resolved_kind("/clones/vm1/disk").unwrap(),
            FileKind::DiskExtent
        );
        // Direct stat shows the link itself.
        assert_eq!(s.stat("/clones/vm1/disk").unwrap().bytes, 0);
    }

    #[test]
    fn dangling_and_looping_links() {
        let s = FileStore::new("test");
        s.link("/a", "/missing");
        assert!(matches!(
            s.resolved_size("/a"),
            Err(StoreError::NotFound(_))
        ));
        s.link("/x", "/y");
        s.link("/y", "/x");
        assert!(matches!(s.resolved_size("/x"), Err(StoreError::LinkLoop(_))));
    }

    #[test]
    fn chained_links_resolve() {
        let s = FileStore::new("test");
        s.put("/real", 42, FileKind::Generic).unwrap();
        s.link("/l1", "/real");
        s.link("/l2", "/l1");
        assert_eq!(s.resolved_size("/l2").unwrap(), 42);
    }

    #[test]
    fn capacity_is_enforced() {
        let s = FileStore::with_capacity("disk", mb(100));
        s.put("/a", mb(60), FileKind::Generic).unwrap();
        assert_eq!(s.free_bytes(), Some(mb(40)));
        let err = s.put("/b", mb(50), FileKind::Generic).unwrap_err();
        assert!(matches!(err, StoreError::Full { .. }));
        // Replacing a file only counts the delta.
        s.put("/a", mb(90), FileKind::Generic).unwrap();
        assert_eq!(s.used_bytes(), mb(90));
    }

    #[test]
    fn remove_tree_clears_a_clone_directory() {
        let s = FileStore::new("test");
        for f in ["cfg", "mem", "redo"] {
            s.put(format!("/clones/vm7/{f}"), 10, FileKind::Generic)
                .unwrap();
        }
        s.put("/clones/vm8/cfg", 10, FileKind::Generic).unwrap();
        assert_eq!(s.remove_tree("/clones/vm7/"), 3);
        assert_eq!(s.file_count(), 1);
        assert!(s.exists("/clones/vm8/cfg"));
    }

    #[test]
    fn remove_tree_stops_at_the_prefix() {
        let s = FileStore::new("test");
        s.put("/clones/vm-1/cfg", 10, FileKind::Generic).unwrap();
        s.put("/clones/vm-1/mem", 10, FileKind::Generic).unwrap();
        s.put("/clones/vm-10/cfg", 10, FileKind::Generic).unwrap();
        s.put("/clones/vm-2/cfg", 10, FileKind::Generic).unwrap();
        assert_eq!(s.remove_tree("/clones/vm-1/"), 2);
        assert_eq!(s.list("/clones/"), vec!["/clones/vm-10/cfg", "/clones/vm-2/cfg"]);
        assert_eq!(s.used_bytes(), 20);
    }

    /// A prefix that ends in `char::MAX` has no successor in its last
    /// place: the range bound carries into the char before it, and a prefix
    /// made only of `char::MAX` (or the empty prefix) runs to the end of
    /// the map.
    #[test]
    fn remove_tree_at_the_top_of_the_key_space() {
        let top = char::MAX;
        let s = FileStore::new("test");
        let paths = [
            "/clones/".to_owned(),
            format!("/clones/{top}"),
            format!("/clones/{top}/cfg"),
            format!("/clones/{top}{top}x"),
            "/clones0".to_owned(),
            format!("{top}"),
            format!("{top}/mem"),
            format!("{top}{top}"),
        ];
        for (i, p) in paths.iter().enumerate() {
            s.put(p, 10 + i as u64, FileKind::Generic).unwrap();
        }
        s.link("/clones/vm-1/disk", format!("{top}"));
        assert_eq!(
            successor(&format!("/clones/{top}")).as_deref(),
            Some("/clones0")
        );
        assert_eq!(successor(&format!("{top}{top}")), None);
        assert_eq!(successor(""), None);
        assert_eq!(successor("\u{D7FF}").as_deref(), Some("\u{E000}"));

        assert_eq!(s.remove_tree(&format!("/clones/{top}")), 3);
        assert_eq!(
            s.list("/clones"),
            vec!["/clones/", "/clones/vm-1/disk", "/clones0"]
        );
        assert_eq!(s.used_bytes(), 10 + 14 + 15 + 16 + 17);
        assert_eq!(s.file_count(), 6);

        // Nothing sorts above `char::MAX`: the bound is the map's end.
        assert_eq!(s.remove_tree(&format!("{top}")), 3);
        assert_eq!(
            s.list(""),
            vec!["/clones/", "/clones/vm-1/disk", "/clones0"]
        );
        assert_eq!(s.used_bytes(), 10 + 14);
        assert_eq!(s.file_count(), 3);
        assert_eq!(s.resolved_size("/clones0").unwrap(), 14);
        assert!(matches!(
            s.resolved_size("/clones/vm-1/disk"),
            Err(StoreError::NotFound(_))
        ));

        assert_eq!(s.remove_tree(""), 3);
        assert_eq!((s.used_bytes(), s.file_count()), (0, 0));
    }

    #[test]
    fn used_bytes_tracks_every_mutation() {
        let s = FileStore::new("test");
        let summed = |s: &FileStore| -> u64 {
            s.list("").iter().map(|p| s.stat(p).unwrap().bytes).sum()
        };
        s.put("/a", 100, FileKind::Generic).unwrap();
        s.put("/b", 50, FileKind::Generic).unwrap();
        s.put_text("/t", "twelve bytes", FileKind::Generic).unwrap();
        assert_eq!(s.used_bytes(), 162);
        // Replace a file with a smaller one.
        s.put("/a", 30, FileKind::Generic).unwrap();
        assert_eq!(s.used_bytes(), summed(&s));
        // A symlink over a regular file frees the file's bytes.
        s.link("/b", "/a");
        assert_eq!(s.used_bytes(), 42);
        assert_eq!(s.used_bytes(), summed(&s));
        // A chunk manifest over a regular file frees them too.
        s.put("/c", 8, FileKind::Generic).unwrap();
        s.put_chunked("/c", FileKind::DiskExtent, vec![0xa]).unwrap();
        assert_eq!(s.used_bytes(), summed(&s));
        s.remove("/t").unwrap();
        assert_eq!(s.used_bytes(), 30);
        s.put("/dir/x", 7, FileKind::Generic).unwrap();
        s.put("/dir/y", 9, FileKind::Generic).unwrap();
        assert_eq!(s.used_bytes(), summed(&s));
        s.remove_tree("/dir/");
        assert_eq!(s.used_bytes(), 30);
        assert_eq!(s.used_bytes(), summed(&s));
    }

    #[test]
    fn list_is_sorted_and_prefix_filtered() {
        let s = FileStore::new("test");
        s.put("/b", 1, FileKind::Generic).unwrap();
        s.put("/a/2", 1, FileKind::Generic).unwrap();
        s.put("/a/1", 1, FileKind::Generic).unwrap();
        assert_eq!(s.list("/a/"), vec!["/a/1".to_owned(), "/a/2".to_owned()]);
        assert_eq!(s.list(""), vec!["/a/1", "/a/2", "/b"]);
    }

    #[test]
    fn text_files_round_trip_and_follow_links() {
        let s = FileStore::new("t");
        s.put_text("/w/descriptor.xml", "<golden-image id=\"x\"/>", FileKind::Generic)
            .unwrap();
        assert_eq!(
            s.read_text("/w/descriptor.xml").unwrap(),
            "<golden-image id=\"x\"/>"
        );
        assert_eq!(s.used_bytes(), 22);
        s.link("/alias", "/w/descriptor.xml");
        assert_eq!(s.read_text("/alias").unwrap().len(), 22);
        // Bulk files have no content.
        s.put("/bulk", 100, FileKind::DiskExtent).unwrap();
        assert!(s.read_text("/bulk").is_err());
        assert!(s.read_text("/missing").is_err());
    }

    #[test]
    fn chunk_manifests_resolve_to_summed_chunk_sizes() {
        let s = FileStore::new("nfs");
        assert_eq!(s.put_chunk(0xaa, mb(4)), Ok(true));
        assert_eq!(s.put_chunk(0xbb, mb(4)), Ok(true));
        assert_eq!(s.put_chunk(0xcc, mb(2)), Ok(true));
        // Re-adding a hash names the same content: nothing changes.
        assert_eq!(s.put_chunk(0xaa, mb(4)), Ok(false));
        s.put_chunked("/warehouse/g/disk.s003", FileKind::DiskExtent, vec![0xaa, 0xbb, 0xcc])
            .unwrap();
        // The manifest is metadata: physical usage counts only the chunks,
        // which live outside the path namespace.
        assert_eq!(s.used_bytes(), mb(10));
        assert_eq!(s.list(""), vec!["/warehouse/g/disk.s003"]);
        assert_eq!(s.chunk_hashes(), vec![0xaa, 0xbb, 0xcc]);
        assert_eq!(s.file_count(), 4);
        assert_eq!(s.resolved_size("/warehouse/g/disk.s003").unwrap(), mb(10));
        assert_eq!(
            s.resolved_kind("/warehouse/g/disk.s003").unwrap(),
            FileKind::DiskExtent
        );
        // A clone's symlink to the manifest reads through to the same size.
        s.link("/clones/vm1/disk.s003", "/warehouse/g/disk.s003");
        assert_eq!(s.resolved_size("/clones/vm1/disk.s003").unwrap(), mb(10));
        assert_eq!(
            s.manifest("/clones/vm1/disk.s003").unwrap().unwrap().len(),
            3
        );
        s.put("/plain", 7, FileKind::Generic).unwrap();
        assert_eq!(s.manifest("/plain").unwrap(), None);
        // Deleting a chunk makes the manifest unreadable, like a dangling
        // link — the refcounting layer above must prevent this.
        assert_eq!(s.remove_chunk(0xbb), Some(mb(4)));
        assert_eq!(s.remove_chunk(0xbb), None);
        assert!(!s.has_chunk(0xbb));
        assert!(matches!(
            s.resolved_size("/warehouse/g/disk.s003"),
            Err(StoreError::NotFound(_))
        ));
        assert_eq!(s.used_bytes(), mb(6) + 7);
    }

    /// A new chunk is capacity-checked like a file write; a rejected one
    /// leaves no trace.
    #[test]
    fn chunk_table_respects_capacity() {
        let s = FileStore::with_capacity("export", mb(10));
        s.put("/a", mb(4), FileKind::Generic).unwrap();
        assert_eq!(s.put_chunk(1, mb(4)), Ok(true));
        assert_eq!(
            s.put_chunk(2, mb(4)),
            Err(StoreError::Full {
                requested: mb(4),
                available: mb(2),
            })
        );
        assert!(!s.has_chunk(2));
        assert_eq!(s.free_bytes(), Some(mb(2)));
        // A file write sees the chunk bytes too.
        assert!(s.put("/b", mb(3), FileKind::Generic).is_err());
    }

    /// What the model test expects of one path: its stored entry.
    #[derive(Clone, Debug)]
    enum ModelEntry {
        File(u64),
        Link(String),
        Manifest(Vec<u64>),
    }

    /// The model's answer to `resolved_size`, with errors reduced to their
    /// variant.
    fn model_resolved_size(
        files: &BTreeMap<String, ModelEntry>,
        chunks: &BTreeMap<u64, u64>,
        path: &str,
    ) -> Result<u64, &'static str> {
        let mut current = path;
        for _ in 0..MAX_LINK_HOPS {
            match files.get(current).ok_or("not-found")? {
                ModelEntry::File(bytes) => return Ok(*bytes),
                ModelEntry::Link(target) => current = target,
                ModelEntry::Manifest(hashes) => {
                    return hashes
                        .iter()
                        .map(|h| chunks.get(h).ok_or("not-found"))
                        .sum::<Result<u64, _>>()
                }
            }
        }
        Err("link-loop")
    }

    fn error_kind(e: &StoreError) -> &'static str {
        match e {
            StoreError::NotFound(_) => "not-found",
            StoreError::LinkLoop(_) => "link-loop",
            StoreError::Full { .. } => "full",
            StoreError::Unavailable(_) => "unavailable",
        }
    }

    /// Everything observable about a store, for "unchanged" checks.
    fn observe(s: &FileStore) -> (u64, Option<u64>, usize, Vec<String>, Vec<u64>) {
        (
            s.used_bytes(),
            s.free_bytes(),
            s.file_count(),
            s.list(""),
            s.chunk_hashes(),
        )
    }

    /// Seeded random operation sequences over a bounded store with chunks,
    /// checked step by step against a map model: byte accounting, entry
    /// counts and resolved sizes agree, a manifest listing a missing chunk
    /// reads as `NotFound`, and a `Full` rejection changes nothing. Tree
    /// removals pick among sibling prefixes (`/clones/vm-1/` beside
    /// `/clones/vm-10/` and `/clones/vm-1x`), so a range that runs one key
    /// too far or stops one key short shows.
    #[test]
    fn chunked_store_matches_model_under_random_operations() {
        use vmplants_simkit::rng::SimRng;
        const CAPACITY: u64 = 6_000;
        const PATHS: [&str; 14] = [
            "/a/f0",
            "/a/f1",
            "/a/f2",
            "/a/f3",
            "/a/f4",
            "/b/f5",
            "/b/f6",
            "/b/f7",
            "/b/f8",
            "/b/f9",
            "/clones/vm-1/cfg",
            "/clones/vm-1/mem",
            "/clones/vm-10/cfg",
            "/clones/vm-1x",
        ];
        const PREFIXES: [&str; 5] = [
            "/a/",
            "/clones/vm-1/",
            "/clones/vm-1",
            "/clones/vm-10/",
            "/clones/",
        ];
        let last = PATHS.len() as u64 - 1;
        let path = |slot: u64| PATHS[slot as usize].to_owned();
        // Content addressing: a hash always names the same size.
        let chunk_size = |hash: u64| 150 * (hash + 1);
        let mut rejections = 0;
        // Manifest reads seen, by outcome: whole, and missing a chunk.
        let (mut whole, mut missing) = (0, 0);
        for seed in 1..=8 {
            let s = FileStore::with_capacity("export", CAPACITY);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut files: BTreeMap<String, ModelEntry> = BTreeMap::new();
            let mut chunks: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..300 {
                let before = observe(&s);
                let p = path(rng.uniform_u64(0, last));
                let result = match rng.index(8) {
                    0 => {
                        let bytes = rng.uniform_u64(0, 2_000);
                        s.put(&p, bytes, FileKind::Generic)
                            .map(|()| files.insert(p, ModelEntry::File(bytes)))
                            .map(drop)
                    }
                    1 => {
                        let text = "t".repeat(rng.index(300));
                        let bytes = text.len() as u64;
                        s.put_text(&p, text, FileKind::Generic)
                            .map(|()| files.insert(p, ModelEntry::File(bytes)))
                            .map(drop)
                    }
                    2 => {
                        let target = path(rng.uniform_u64(0, last));
                        s.link(&p, target.as_str());
                        files.insert(p, ModelEntry::Link(target));
                        Ok(())
                    }
                    3 => {
                        let hash = rng.uniform_u64(0, 7);
                        let size = chunk_size(hash);
                        s.put_chunk(hash, size).map(|new| {
                            assert_eq!(new, chunks.insert(hash, size).is_none());
                        })
                    }
                    4 => {
                        let hash = rng.uniform_u64(0, 7);
                        assert_eq!(s.remove_chunk(hash), chunks.remove(&hash));
                        Ok(())
                    }
                    5 => {
                        let hashes: Vec<u64> =
                            (0..rng.uniform_u64(1, 4)).map(|_| rng.uniform_u64(0, 7)).collect();
                        s.put_chunked(&p, FileKind::DiskExtent, hashes.clone())
                            .map(|()| files.insert(p, ModelEntry::Manifest(hashes)))
                            .map(drop)
                    }
                    6 => {
                        assert_eq!(s.remove(&p).is_ok(), files.remove(&p).is_some());
                        Ok(())
                    }
                    _ => {
                        let prefix = PREFIXES[rng.index(PREFIXES.len())];
                        let doomed: Vec<String> = files
                            .keys()
                            .filter(|k| k.starts_with(prefix))
                            .cloned()
                            .collect();
                        assert_eq!(s.remove_tree(prefix), doomed.len(), "{prefix}");
                        for k in doomed {
                            files.remove(&k);
                        }
                        Ok(())
                    }
                };
                if let Err(e) = result {
                    assert!(matches!(e, StoreError::Full { .. }), "seed {seed} step {step}: {e}");
                    assert_eq!(observe(&s), before, "seed {seed} step {step}: Full changed the store");
                    rejections += 1;
                }
                let used: u64 = files
                    .values()
                    .map(|e| match e {
                        ModelEntry::File(bytes) => *bytes,
                        _ => 0,
                    })
                    .sum::<u64>()
                    + chunks.values().sum::<u64>();
                let ctx = format!("seed {seed} step {step}");
                assert_eq!(s.used_bytes(), used, "{ctx}");
                assert_eq!(s.free_bytes(), Some(CAPACITY - used), "{ctx}");
                assert_eq!(s.file_count(), files.len() + chunks.len(), "{ctx}");
                assert_eq!(s.chunk_hashes(), chunks.keys().copied().collect::<Vec<_>>());
                for p in PATHS {
                    let expected = model_resolved_size(&files, &chunks, p);
                    assert_eq!(
                        s.resolved_size(p).map_err(|e| error_kind(&e)),
                        expected,
                        "{ctx}, {p}"
                    );
                    if let Some(ModelEntry::Manifest(_)) = files.get(p) {
                        match expected {
                            Ok(_) => whole += 1,
                            Err(_) => missing += 1,
                        }
                    }
                }
            }
        }
        assert!(rejections > 0, "the capacity bound never bit");
        assert!(whole > 0 && missing > 0, "manifest reads: {whole} whole, {missing} missing");
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mb(1), 1_048_576);
        assert_eq!(gb(2), 2 * 1024 * mb(1));
    }
}
