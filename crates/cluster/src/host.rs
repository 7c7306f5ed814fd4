//! Cluster node model: RAM commit accounting and the memory-pressure
//! slowdown behind Figure 6.

use std::cell::RefCell;
use std::rc::Rc;

use vmplants_simkit::resource::{FairShare, Gate};

use crate::files::FileStore;

/// Static description of a node's hardware.
#[derive(Clone, Debug, PartialEq)]
pub struct HostSpec {
    /// Node name (e.g. `node3`).
    pub name: String,
    /// Physical CPUs.
    pub cpus: u32,
    /// Physical RAM in MB.
    pub ram_mb: u64,
    /// RAM the host OS and the VMM reserve for themselves, in MB.
    pub os_reserved_mb: u64,
    /// Per-VM VMM overhead (page tables, device emulation buffers), MB.
    pub per_vm_overhead_mb: u64,
    /// Local disk capacity in bytes.
    pub disk_bytes: u64,
    /// Local disk streaming bandwidth, bytes/sec.
    pub disk_bw: f64,
}

impl HostSpec {
    /// The §4.2 e1350 node: dual 2.4 GHz P4, 1.5 GB RAM, 18 GB SCSI disk.
    pub fn e1350_node(name: impl Into<String>) -> HostSpec {
        HostSpec {
            name: name.into(),
            cpus: 2,
            ram_mb: 1536,
            os_reserved_mb: 256,
            per_vm_overhead_mb: 24,
            disk_bytes: 18 * 1024 * 1024 * 1024,
            disk_bw: 40.0 * 1024.0 * 1024.0, // early-2000s SCSI streaming
        }
    }
}

struct HostInner {
    spec: HostSpec,
    /// Memory committed to resident VMs (their sizes + per-VM overhead).
    committed_mb: u64,
    /// Currently resident VMs.
    vm_count: usize,
    /// False from a crash until the node powers on again.
    up: bool,
    /// Bumped on every crash. Operations capture it when they start and
    /// re-check before touching accounting, so callbacks that straddle a
    /// crash become safe no-ops instead of corrupting (or panicking on)
    /// the fresh boot's books.
    boot_epoch: u64,
}

/// A cluster node. Cheap `Rc` handle shared by the plant daemon and the
/// production lines.
#[derive(Clone)]
pub struct Host {
    inner: Rc<RefCell<HostInner>>,
    /// The node's name, shared by every handle.
    name: Rc<str>,
    /// The node's local file system.
    pub disk: FileStore,
    /// The node's disk arm as a shared resource.
    pub disk_link: FairShare,
    /// CPU slots (the e1350 nodes are dual-P4): CPU-heavy VMM operations
    /// (resume, boot) hold a slot, so concurrent clones on one node queue.
    pub cpu_gate: Gate,
}

impl Host {
    /// Build a host from its spec.
    pub fn new(spec: HostSpec) -> Host {
        let disk = FileStore::with_capacity(spec.disk_bytes);
        let disk_link = FairShare::new(spec.disk_bw);
        let cpu_gate = Gate::new(format!("{}:cpus", spec.name), spec.cpus.max(1) as usize);
        Host {
            name: spec.name.as_str().into(),
            inner: Rc::new(RefCell::new(HostInner {
                spec,
                committed_mb: 0,
                vm_count: 0,
                up: true,
                boot_epoch: 0,
            })),
            disk,
            disk_link,
            cpu_gate,
        }
    }

    /// Node name.
    pub fn name(&self) -> String {
        self.name.to_string()
    }

    /// Node name, shared rather than copied.
    pub fn shared_name(&self) -> Rc<str> {
        Rc::clone(&self.name)
    }

    /// Hardware spec.
    pub fn spec(&self) -> HostSpec {
        self.inner.borrow().spec.clone()
    }

    /// Account a VM of `mem_mb` becoming resident.
    pub fn register_vm(&self, mem_mb: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.committed_mb += mem_mb + inner.spec.per_vm_overhead_mb;
        inner.vm_count += 1;
    }

    /// Account a VM of `mem_mb` leaving (destroyed or migrated).
    ///
    /// # Panics
    ///
    /// Panics on under-release — a VM unregistered that was never
    /// registered indicates a plant bookkeeping bug.
    pub fn unregister_vm(&self, mem_mb: u64) {
        let mut inner = self.inner.borrow_mut();
        let charge = mem_mb + inner.spec.per_vm_overhead_mb;
        assert!(
            inner.vm_count > 0 && inner.committed_mb >= charge,
            "host {}: unregister without matching register",
            inner.spec.name
        );
        inner.committed_mb -= charge;
        inner.vm_count -= 1;
    }

    /// Number of resident VMs.
    pub fn vm_count(&self) -> usize {
        self.inner.borrow().vm_count
    }

    /// Memory committed to VMs, MB.
    pub fn committed_mb(&self) -> u64 {
        self.inner.borrow().committed_mb
    }

    /// Memory still available for new VMs, MB (saturating).
    pub fn free_mb(&self) -> u64 {
        let inner = self.inner.borrow();
        (inner.spec.ram_mb - inner.spec.os_reserved_mb).saturating_sub(inner.committed_mb)
    }

    /// Commit ratio against usable RAM: 0.0 when idle, > 1.0 when
    /// overcommitted (the host starts paging).
    pub fn mem_utilization(&self) -> f64 {
        let inner = self.inner.borrow();
        let usable = (inner.spec.ram_mb - inner.spec.os_reserved_mb) as f64;
        inner.committed_mb as f64 / usable
    }

    /// Memory-pressure slowdown factor applied to memory-intensive host
    /// operations (resuming a checkpoint, writing a memory image).
    ///
    /// Calibration (DESIGN.md E3): flat at 1.0 below 75 % commit, then
    /// quadratic-free linear growth reaching ≈2.2× at 110 % commit — which
    /// reproduces Figure 6's rise for the 64 MB (16 clones/node) and 256 MB
    /// (5 clones/node) runs while leaving the 32 MB run essentially flat.
    pub fn pressure_factor(&self) -> f64 {
        const KNEE: f64 = 0.75;
        const SLOPE: f64 = 3.5;
        let u = self.mem_utilization();
        1.0 + SLOPE * (u - KNEE).max(0.0)
    }

    /// True when the node is serving.
    pub fn is_up(&self) -> bool {
        self.inner.borrow().up
    }

    /// The current boot incarnation. Capture before a multi-event operation
    /// and compare with [`Host::same_boot`] before touching accounting.
    pub fn boot_epoch(&self) -> u64 {
        self.inner.borrow().boot_epoch
    }

    /// True when the node is up and has not crashed since `epoch` was
    /// captured.
    pub fn same_boot(&self, epoch: u64) -> bool {
        let inner = self.inner.borrow();
        inner.up && inner.boot_epoch == epoch
    }

    /// Unregister guarded by a boot epoch: a no-op when the host crashed
    /// after the VM registered (the crash already zeroed the books).
    pub fn unregister_vm_epoch(&self, mem_mb: u64, epoch: u64) {
        if self.same_boot(epoch) {
            self.unregister_vm(mem_mb);
        }
    }

    /// Power failure: every resident VM vanishes and the commit accounting
    /// resets. The local disk contents survive (they are garbage to the
    /// next boot; the plant wipes them on recovery). Callers that model a
    /// reboot follow up with [`Host::power_on`].
    pub fn crash(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.up = false;
        inner.committed_mb = 0;
        inner.vm_count = 0;
        inner.boot_epoch += 1;
    }

    /// Bring the node back into service.
    pub fn power_on(&self) {
        self.inner.borrow_mut().up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new(HostSpec::e1350_node("node0"))
    }

    #[test]
    fn registration_accounting() {
        let h = host();
        assert_eq!(h.vm_count(), 0);
        assert_eq!(h.free_mb(), 1280);
        h.register_vm(64);
        h.register_vm(64);
        assert_eq!(h.vm_count(), 2);
        assert_eq!(h.committed_mb(), 2 * (64 + 24));
        h.unregister_vm(64);
        assert_eq!(h.vm_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unregister without matching register")]
    fn under_release_panics() {
        host().unregister_vm(64);
    }

    #[test]
    fn pressure_is_flat_until_the_knee() {
        let h = host();
        // 8 VMs of 64MB: committed = 8*88 = 704 of 1280 usable (55%).
        for _ in 0..8 {
            h.register_vm(64);
        }
        assert!((h.pressure_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pressure_grows_past_the_knee() {
        let h = host();
        // 16 VMs of 64 MB: committed = 1408 of 1280 usable (110%).
        for _ in 0..16 {
            h.register_vm(64);
        }
        let u = h.mem_utilization();
        assert!(u > 1.05 && u < 1.15, "u={u}");
        let p = h.pressure_factor();
        assert!(p > 2.0 && p < 2.5, "p={p}");
    }

    #[test]
    fn thirty_two_mb_fleet_stays_cheap() {
        // The paper's 32 MB run (16 clones/node) shows little load effect;
        // 16 * (32+24) = 896 MB of 1280 usable = 70% < knee.
        let h = host();
        for _ in 0..16 {
            h.register_vm(32);
        }
        assert!((h.pressure_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn free_mb_saturates_at_zero() {
        let h = host();
        for _ in 0..20 {
            h.register_vm(128);
        }
        assert_eq!(h.free_mb(), 0);
        assert!(h.mem_utilization() > 1.0);
    }

    #[test]
    fn cpu_gate_matches_core_count() {
        let h = host();
        assert_eq!(h.cpu_gate.capacity(), 2, "dual-P4 node");
        assert_eq!(h.cpu_gate.free(), 2);
    }

    #[test]
    fn crash_evicts_vms_and_bumps_the_epoch() {
        let h = host();
        h.register_vm(64);
        h.register_vm(256);
        let epoch = h.boot_epoch();
        assert!(h.is_up() && h.same_boot(epoch));
        h.crash();
        assert!(!h.is_up());
        assert_eq!(h.vm_count(), 0);
        assert_eq!(h.committed_mb(), 0);
        assert!(!h.same_boot(epoch));
        // Stale unregister from before the crash: must be a no-op, not a
        // panic or an underflow against the next boot's accounting.
        h.unregister_vm_epoch(64, epoch);
        h.power_on();
        assert!(h.is_up());
        assert!(!h.same_boot(epoch), "epoch does not roll back on reboot");
        // Fresh registrations on the new boot work normally.
        h.register_vm(64);
        h.unregister_vm_epoch(64, h.boot_epoch());
        assert_eq!(h.vm_count(), 0);
    }

    #[test]
    fn disk_store_is_bounded_by_spec() {
        let h = host();
        assert_eq!(h.disk.free_bytes(), Some(18 * 1024 * 1024 * 1024));
        assert!((h.disk_link.capacity() - 40.0 * 1024.0 * 1024.0).abs() < 1.0);
    }
}
