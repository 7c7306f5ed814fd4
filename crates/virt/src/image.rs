//! On-warehouse layout of a golden machine's state files.

use std::rc::Rc;

use vmplants_cluster::files::{mb, FileKind, FileStore};

use crate::vm::VmmType;

/// The files that make up one golden image on the warehouse export, as
/// described in §4.1: "each golden machine is specified by a configuration
/// file, and virtual disk and memory files". The experiments' golden disk
/// is 2 GB spanned across 16 extent files; VMware-like images are
/// "suspended VMs with non-persistent virtual disks", so they also carry a
/// base redo log and a memory-state (`.vmss`) file sized by the VM memory.
#[derive(Clone, Debug, PartialEq)]
pub struct ImageFiles {
    /// Warehouse directory of the image (all other paths live under it).
    pub dir: String,
    /// The VM configuration file path. It and the other state paths are
    /// shared, like the extent paths: every clone's copy of a file names
    /// its source with the golden's own string.
    pub config: Rc<str>,
    /// Base virtual-disk extent paths (shared read-only by all clones).
    /// Each clone's extent symlinks point at these very strings.
    pub disk_extents: Vec<Rc<str>>,
    /// The base redo log the checkpoint was taken against (VMware-like).
    pub base_redo: Option<Rc<str>>,
    /// The suspended memory state (VMware-like; `None` for UML images,
    /// which boot from disk).
    pub memory_state: Option<Rc<str>>,
}

/// One bulk state file of a golden image, as enumerated by
/// [`ImageFiles::bulk_files`] for the content-addressed chunk planner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BulkFile {
    /// Warehouse path the file lives at.
    pub path: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Size `materialize` would give it.
    pub bytes: u64,
    /// Stable role tag for content addressing (`extent`/`redo`/`vmss`).
    pub role: &'static str,
    /// Index within the role (the extent number; 0 otherwise).
    pub index: usize,
}

/// Size of the config file.
pub const CONFIG_BYTES: u64 = 4 * 1024;
/// Size of the base redo log at checkpoint time.
pub const BASE_REDO_BYTES: u64 = 16 * 1024 * 1024;
/// Number of extent files the golden disk spans (§4.3).
pub const DISK_EXTENT_COUNT: usize = 16;

impl ImageFiles {
    /// Describe (without materializing) a golden image under `dir`.
    pub fn plan(dir: &str, vmm: VmmType, memory_mb: u64, disk_bytes: u64) -> ImageFiles {
        let dir = dir.trim_end_matches('/').to_owned();
        let disk_extents = (0..DISK_EXTENT_COUNT)
            .map(|i| Rc::from(format!("{dir}/disk-s{i:03}.vmdk")))
            .collect();
        let _ = disk_bytes; // recorded at materialization; layout is fixed
        match vmm {
            VmmType::VmwareLike => ImageFiles {
                config: format!("{dir}/machine.vmx").into(),
                base_redo: Some(format!("{dir}/base.redo").into()),
                memory_state: Some(format!("{dir}/machine-{memory_mb}mb.vmss").into()),
                disk_extents,
                dir,
            },
            VmmType::UmlLike => ImageFiles {
                config: format!("{dir}/machine.uml").into(),
                base_redo: None,
                memory_state: None,
                disk_extents,
                dir,
            },
        }
    }

    /// Describe a *checkpointed* UML golden (SBUML-style, §4.3: "with
    /// checkpointing techniques such as SBUML, it is possible to clone
    /// virtual machines from the corresponding snapshots and resume them
    /// without a full reboot"): a UML layout that also carries a memory
    /// snapshot.
    pub fn plan_uml_checkpoint(dir: &str, memory_mb: u64, disk_bytes: u64) -> ImageFiles {
        let mut files = ImageFiles::plan(dir, VmmType::UmlLike, memory_mb, disk_bytes);
        files.memory_state = Some(format!("{}/machine-{memory_mb}mb.sbuml", files.dir).into());
        files
    }

    /// Create the image's files on a store (used to publish goldens). The
    /// disk is split evenly across the 16 extents.
    pub fn materialize(
        &self,
        store: &FileStore,
        memory_mb: u64,
        disk_bytes: u64,
    ) -> Result<(), vmplants_cluster::files::StoreError> {
        store.put(&*self.config, CONFIG_BYTES, FileKind::VmConfig)?;
        let per_extent = disk_bytes / self.disk_extents.len() as u64;
        for path in &self.disk_extents {
            store.put(&**path, per_extent, FileKind::DiskExtent)?;
        }
        if let Some(redo) = &self.base_redo {
            store.put(&**redo, BASE_REDO_BYTES, FileKind::RedoLog)?;
        }
        if let Some(mem) = &self.memory_state {
            store.put(&**mem, mb(memory_mb), FileKind::MemoryState)?;
        }
        Ok(())
    }

    /// The image's *bulk* state files — the candidates for content-addressed
    /// chunking — with the sizes [`ImageFiles::materialize`] would give
    /// them. The config file is excluded: it stays a small real file so
    /// descriptors remain readable without the chunk store.
    pub fn bulk_files(&self, memory_mb: u64, disk_bytes: u64) -> Vec<BulkFile> {
        let per_extent = disk_bytes / self.disk_extents.len() as u64;
        let mut out: Vec<BulkFile> = self
            .disk_extents
            .iter()
            .enumerate()
            .map(|(i, path)| BulkFile {
                path: String::from(&**path),
                kind: FileKind::DiskExtent,
                bytes: per_extent,
                role: "extent",
                index: i,
            })
            .collect();
        if let Some(redo) = &self.base_redo {
            out.push(BulkFile {
                path: String::from(&**redo),
                kind: FileKind::RedoLog,
                bytes: BASE_REDO_BYTES,
                role: "redo",
                index: 0,
            });
        }
        if let Some(mem) = &self.memory_state {
            out.push(BulkFile {
                path: String::from(&**mem),
                kind: FileKind::MemoryState,
                bytes: mb(memory_mb),
                role: "vmss",
                index: 0,
            });
        }
        out
    }

    /// The files a clone must *copy* (config, base redo, memory state) as
    /// `(src, dst)` pairs under `clone_dir`; each source shares the
    /// golden's own path string. Disk extents are excluded — clones access
    /// them through symlinks.
    pub(crate) fn copy_set(&self, clone_dir: &str) -> Vec<(Rc<str>, String)> {
        let clone_dir = clone_dir.trim_end_matches('/');
        let mut pairs = Vec::with_capacity(3);
        let mut push = |src: &Rc<str>| {
            let file_name = src.rsplit('/').next().expect("non-empty path");
            pairs.push((Rc::clone(src), [clone_dir, "/", file_name].concat()));
        };
        push(&self.config);
        if let Some(redo) = &self.base_redo {
            push(redo);
        }
        if let Some(mem) = &self.memory_state {
            push(mem);
        }
        pairs
    }

    /// The symlinks a clone creates for the shared base disk, as
    /// `(link_path, target)` pairs. Each target shares the golden's own
    /// extent path string.
    pub fn link_set(&self, clone_dir: &str) -> Vec<(String, Rc<str>)> {
        let clone_dir = clone_dir.trim_end_matches('/');
        self.disk_extents
            .iter()
            .map(|src| {
                let file_name = src.rsplit('/').next().expect("non-empty path");
                ([clone_dir, "/", file_name].concat(), Rc::clone(src))
            })
            .collect()
    }

    /// Every path of the image (for deletion / inventory).
    pub fn all_paths(&self) -> Vec<&str> {
        let mut out = vec![&*self.config];
        out.extend(self.disk_extents.iter().map(|p| &**p));
        if let Some(r) = &self.base_redo {
            out.push(r);
        }
        if let Some(m) = &self.memory_state {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::files::gb;

    /// The bytes a clone copies for `pairs`, read from the store.
    fn copied_bytes(pairs: &[(Rc<str>, String)], store: &FileStore) -> u64 {
        pairs
            .iter()
            .map(|(src, _)| store.resolved_size(src).unwrap())
            .sum()
    }

    #[test]
    fn vmware_layout_has_checkpoint_files() {
        let img = ImageFiles::plan("/warehouse/mandrake-64", VmmType::VmwareLike, 64, gb(2));
        assert_eq!(img.disk_extents.len(), 16);
        assert!(img.memory_state.is_some());
        assert!(img.base_redo.is_some());
        assert_eq!(img.all_paths().len(), 1 + 16 + 1 + 1);
    }

    #[test]
    fn uml_layout_boots_from_disk() {
        let img = ImageFiles::plan("/warehouse/uml-32", VmmType::UmlLike, 32, gb(2));
        assert!(img.memory_state.is_none());
        assert!(img.base_redo.is_none());
        assert_eq!(img.all_paths().len(), 17);
    }

    #[test]
    fn checkpointed_uml_layout_carries_a_snapshot() {
        let img = ImageFiles::plan_uml_checkpoint("/w/sbuml-32", 32, gb(2));
        assert!(img.memory_state.as_deref().unwrap().ends_with(".sbuml"));
        assert!(img.base_redo.is_none());
        let store = FileStore::new();
        img.materialize(&store, 32, gb(2)).unwrap();
        let pairs = img.copy_set("/c");
        assert_eq!(pairs.len(), 2, "config + snapshot");
        assert_eq!(copied_bytes(&pairs, &store), CONFIG_BYTES + mb(32));
    }

    #[test]
    fn materialize_accounts_the_right_bytes() {
        let store = FileStore::new();
        let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, 256, gb(2));
        img.materialize(&store, 256, gb(2)).unwrap();
        // 2 GB disk + 256 MB memory + 16 MB redo + 4 KB config.
        let expected = gb(2) + mb(256) + BASE_REDO_BYTES + CONFIG_BYTES;
        assert_eq!(store.used_bytes(), expected);
        assert_eq!(store.file_count(), 19);
    }

    #[test]
    fn bulk_files_match_materialized_sizes() {
        let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, 256, gb(2));
        let bulk = img.bulk_files(256, gb(2));
        assert_eq!(bulk.len(), 16 + 1 + 1);
        let total: u64 = bulk.iter().map(|b| b.bytes).sum();
        assert_eq!(total, gb(2) + BASE_REDO_BYTES + mb(256));
        assert_eq!(bulk[0].role, "extent");
        assert_eq!(bulk[15].index, 15);
        assert!(bulk.iter().any(|b| b.role == "vmss"));
        // UML images have no redo/vmss: extents only.
        let uml = ImageFiles::plan("/w/u", VmmType::UmlLike, 32, gb(2));
        assert_eq!(uml.bulk_files(32, gb(2)).len(), 16);
    }

    #[test]
    fn copy_set_excludes_disk_extents() {
        let store = FileStore::new();
        let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, 32, gb(2));
        img.materialize(&store, 32, gb(2)).unwrap();
        let pairs = img.copy_set("/clones/vm1");
        assert_eq!(pairs.len(), 3, "config + redo + memory state");
        assert_eq!(
            copied_bytes(&pairs, &store),
            CONFIG_BYTES + BASE_REDO_BYTES + mb(32)
        );
        for (src, dst) in &pairs {
            assert!(src.starts_with("/w/g/"));
            assert!(dst.starts_with("/clones/vm1/"));
        }
    }

    #[test]
    fn link_set_covers_every_extent() {
        let img = ImageFiles::plan("/w/g", VmmType::VmwareLike, 32, gb(2));
        let links = img.link_set("/clones/vm1/");
        assert_eq!(links.len(), 16);
        assert!(links
            .iter()
            .all(|(link, target)| link.starts_with("/clones/vm1/") && target.starts_with("/w/g/")));
    }

    #[test]
    fn uml_copy_set_is_just_the_config() {
        let store = FileStore::new();
        let img = ImageFiles::plan("/w/u", VmmType::UmlLike, 32, gb(2));
        img.materialize(&store, 32, gb(2)).unwrap();
        let pairs = img.copy_set("/c");
        assert_eq!(pairs.len(), 1);
        assert_eq!(copied_bytes(&pairs, &store), CONFIG_BYTES);
    }
}
