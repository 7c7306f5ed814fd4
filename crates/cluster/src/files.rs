//! Byte-accounted simulated file stores.
//!
//! Golden images, clones, redo logs, memory-state files and configuration
//! ISOs are all "files" whose *sizes* drive the timing model. A
//! [`FileStore`] tracks a flat path → metadata map with POSIX-ish symlink
//! semantics: a symlink contributes ~0 bytes (the paper's cloning trick),
//! while reads resolve through it to the target's size.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

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
    pub link_target: Option<String>,
    /// Small text files (descriptors, configs) keep their actual content so
    /// services can be restored from "disk" after a crash. Bulk data files
    /// carry sizes only.
    pub content: Option<String>,
    /// If set, this entry is a *chunk manifest*: a logical file whose bytes
    /// live in the listed chunk files (content-addressed dedup). The entry
    /// itself costs ~0 physical bytes; readers see the summed chunk sizes.
    pub chunks: Option<Vec<String>>,
}

#[derive(Default)]
struct StoreInner {
    name: String,
    files: BTreeMap<String, FileMeta>,
    /// Sum of `bytes` over `files`, kept by [`StoreInner::insert`] and
    /// [`StoreInner::remove`] — the only two places `files` changes.
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
                files: BTreeMap::new(),
                used: 0,
                capacity_bytes: None,
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
        if let Some(cap) = inner.capacity_bytes {
            let used = inner.used - existing;
            if used + bytes > cap {
                return Err(StoreError::Full {
                    requested: bytes,
                    available: cap.saturating_sub(used),
                });
            }
        }
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
    /// content-addressed chunk files in the same store. The manifest entry
    /// itself is metadata (~0 bytes); [`FileStore::resolved_size`] reports
    /// the summed chunk sizes, so transfer timing is identical to a whole
    /// file of the same logical size.
    pub fn put_chunked(
        &self,
        path: impl Into<String>,
        kind: FileKind,
        chunks: Vec<String>,
    ) -> Result<(), StoreError> {
        self.inner.borrow_mut().insert(
            path.into(),
            FileMeta {
                bytes: 0,
                kind,
                link_target: None,
                content: None,
                chunks: Some(chunks),
            },
        );
        Ok(())
    }

    /// The chunk list of a manifest at `path` (following symlinks), or
    /// `None` when the path resolves to a regular file.
    pub fn manifest(&self, path: &str) -> Result<Option<Vec<String>>, StoreError> {
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
    pub fn link(&self, path: impl Into<String>, target: impl Into<String>) {
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

    /// Remove a file or symlink; returns its metadata.
    pub fn remove(&self, path: &str) -> Result<FileMeta, StoreError> {
        self.inner
            .borrow_mut()
            .remove(path)
            .ok_or_else(|| StoreError::NotFound(path.to_owned()))
    }

    /// Remove every file under a path prefix; returns how many were removed.
    pub fn remove_tree(&self, prefix: &str) -> usize {
        let mut inner = self.inner.borrow_mut();
        let doomed: Vec<String> = inner.under(prefix).cloned().collect();
        for p in &doomed {
            inner.remove(p);
        }
        doomed.len()
    }

    /// Whether the path exists (as file or symlink).
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
    /// A chunk manifest resolves to the sum of its chunk sizes.
    pub fn resolved_size(&self, path: &str) -> Result<u64, StoreError> {
        let inner = self.inner.borrow();
        let meta = inner.resolve(path)?;
        match &meta.chunks {
            None => Ok(meta.bytes),
            Some(chunks) => {
                let mut total = 0u64;
                for chunk in chunks {
                    total += inner.resolve(chunk)?.bytes;
                }
                Ok(total)
            }
        }
    }

    /// The kind of the final target, following symlinks.
    pub fn resolved_kind(&self, path: &str) -> Result<FileKind, StoreError> {
        let inner = self.inner.borrow();
        Ok(inner.resolve(path)?.kind)
    }

    /// Physical bytes used (symlinks cost nothing).
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

    /// Number of entries (files + symlinks).
    pub fn file_count(&self) -> usize {
        self.inner.borrow().files.len()
    }

    /// Paths under a prefix, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.borrow().under(prefix).cloned().collect()
    }
}

impl StoreInner {
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
                Some(target) => current = target,
                None => return Ok(meta),
            }
        }
        Err(StoreError::LinkLoop(path.to_owned()))
    }
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
        s.put_chunked("/c", FileKind::DiskExtent, vec!["/a".into()]).unwrap();
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
        s.put("/chunks/aa", mb(4), FileKind::Generic).unwrap();
        s.put("/chunks/bb", mb(4), FileKind::Generic).unwrap();
        s.put("/chunks/cc", mb(2), FileKind::Generic).unwrap();
        s.put_chunked(
            "/warehouse/g/disk.s003",
            FileKind::DiskExtent,
            vec!["/chunks/aa".into(), "/chunks/bb".into(), "/chunks/cc".into()],
        )
        .unwrap();
        // The manifest is metadata: physical usage counts only the chunks.
        assert_eq!(s.used_bytes(), mb(10));
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
        assert_eq!(s.manifest("/chunks/aa").unwrap(), None);
        // Deleting a chunk makes the manifest unreadable, like a dangling
        // link — the refcounting layer above must prevent this.
        s.remove("/chunks/bb").unwrap();
        assert!(matches!(
            s.resolved_size("/warehouse/g/disk.s003"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(mb(1), 1_048_576);
        assert_eq!(gb(2), 2 * 1024 * mb(1));
    }
}
