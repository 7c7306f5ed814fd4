//! Golden image descriptors.

use std::rc::Rc;

use vmplants_classad::ClassAd;
use vmplants_dag::PerformedLog;
use vmplants_virt::{ImageFiles, VmSpec};

/// Identifier of a golden image within a warehouse.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GoldenId(pub String);

impl std::fmt::Display for GoldenId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A cached golden machine: its hardware identity, its files on the
/// warehouse export, and what configuration it already carries.
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenImage {
    /// Warehouse-unique id (doubles as the sub-directory name).
    pub id: GoldenId,
    /// Human-readable name ("In-VIGO workspace base", …).
    pub name: String,
    /// Hardware identity of the machine the image was checkpointed from.
    pub spec: VmSpec,
    /// The image's files on the warehouse export. Shared: every order
    /// cloned from this golden takes the layout by reference count, so
    /// its path strings are never copied per clone.
    pub files: Rc<ImageFiles>,
    /// Configuration actions already performed, in order.
    pub performed: PerformedLog,
}

/// The paper's hardware matching criterion (§3.2): "the golden machine
/// must match the client machine specification in terms of memory,
/// disk, the operating system installed". Memory must be equal (the
/// checkpointed memory state fixes the VM's memory size), the disk
/// geometry must be equal (the virtual disk is shared read-only), the
/// OS must be the same (case-insensitively), and the VMM technology
/// must agree. The warehouse index applies it to the spec it keeps per
/// row, so the indexed and naive lookups share this one definition.
pub(crate) fn spec_matches(golden: &VmSpec, request: &VmSpec) -> bool {
    golden.memory_mb == request.memory_mb
        && golden.disk_gb == request.disk_gb
        && golden.os.eq_ignore_ascii_case(&request.os)
        && golden.vmm == request.vmm
}

impl GoldenImage {
    /// Whether this image meets §3.2's hardware criterion for `request`:
    /// equal memory and disk, the same OS ignoring ASCII case, the same
    /// VMM.
    pub fn hardware_matches(&self, request: &VmSpec) -> bool {
        spec_matches(&self.spec, request)
    }

    /// A classad describing this image (published into information systems
    /// and usable for expression-based queries).
    pub fn to_classad(&self) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.set_value("golden_id", self.id.0.clone());
        ad.set_value("name", self.name.clone());
        ad.set_value("memory_mb", self.spec.memory_mb);
        ad.set_value("disk_gb", self.spec.disk_gb);
        ad.set_value("os", self.spec.os.clone());
        ad.set_value("vmm", self.spec.vmm.to_string());
        ad.set_value("actions_performed", self.performed.len() as i64);
        ad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::files::gb;
    use vmplants_dag::Action;
    use vmplants_virt::VmmType;

    fn image(mem: u64, os: &str, vmm: VmmType) -> GoldenImage {
        let spec = VmSpec {
            memory_mb: mem,
            disk_gb: 4,
            os: os.to_owned(),
            vmm,
        };
        GoldenImage {
            id: GoldenId(format!("g-{mem}")),
            name: "test image".into(),
            files: Rc::new(ImageFiles::plan(
                &format!("/warehouse/g-{mem}"),
                vmm,
                mem,
                gb(2),
            )),
            performed: PerformedLog::from_actions(vec![Action::guest("A", "install-os")]),
            spec,
        }
    }

    #[test]
    fn hardware_match_requires_all_four_axes() {
        let img = image(64, "linux-mandrake-8.1", VmmType::VmwareLike);
        let mut req = VmSpec::mandrake(64);
        assert!(img.hardware_matches(&req));
        req.memory_mb = 32;
        assert!(!img.hardware_matches(&req));
        req.memory_mb = 64;
        req.disk_gb = 8;
        assert!(!img.hardware_matches(&req));
        req.disk_gb = 4;
        req.os = "windows-xp".into();
        assert!(!img.hardware_matches(&req));
        req.os = "LINUX-MANDRAKE-8.1".into(); // case-insensitive
        assert!(img.hardware_matches(&req));
        req.vmm = VmmType::UmlLike;
        assert!(!img.hardware_matches(&req));
    }

    #[test]
    fn classad_reflects_the_image() {
        let img = image(256, "linux-mandrake-8.1", VmmType::VmwareLike);
        let ad = img.to_classad();
        assert_eq!(ad.get_int("memory_mb"), Some(256));
        assert_eq!(ad.get_str("vmm"), Some("vmware".into()));
        assert_eq!(ad.get_int("actions_performed"), Some(1));
        assert_eq!(ad.get_str("golden_id"), Some("g-256".into()));
    }
}
