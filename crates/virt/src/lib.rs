//! # vmplants-virt — hosted virtual machine monitors (simulated)
//!
//! The paper's Production Lines drive two real VMM stacks: VMware GSX 2.5.1
//! ("classic" hosted VMs resumed from suspended checkpoints, with
//! non-persistent virtual disks and redo logs) and User-Mode Linux (booted
//! from copy-on-write file systems). This crate is the simulated stand-in
//! for both — same state machines, same file mechanics, with durations
//! drawn from a calibrated timing model instead of real hardware (see
//! DESIGN.md §1).
//!
//! What is modelled:
//!
//! * [`image::ImageFiles`] — the on-warehouse layout of a golden machine:
//!   a config file, 16 base-disk extents, a base redo log, and (for
//!   checkpointed VMware-like images) a memory-state file sized by the VM's
//!   memory;
//! * [`vm`] — VM specs and the lifecycle state machine
//!   (Off → Cloning → Resuming/Booting → Running → Configuring → …);
//! * [`hypervisor`] — one [`Hypervisor`] backend for both production
//!   lines: a VMware-like clone symlinks the base disk, copies config +
//!   redo + memory state, then *resumes*; a UML-like clone adds COW
//!   overlays and *boots* (or resumes a checkpointed image's snapshot);
//! * [`guest`] — §4.1's configuration path: scripts burned into ISO images,
//!   attached as virtual CD-ROMs, executed by the in-guest daemon;
//! * [`timing::TimingModel`] — every constant that shapes Figures 4–6, in
//!   one place, with the calibration argument for each;
//! * [`overhead`] — the run-time overhead model used by experiment E9
//!   (the §4.3 discussion of SPEC / LSS overheads under VMware, UML, Xen).

pub mod guest;
pub mod hypervisor;
pub mod image;
pub mod overhead;
pub mod timing;
pub mod vm;

pub use hypervisor::{CloneStats, ExecStats, Hypervisor, VirtError};
pub use image::ImageFiles;
pub use timing::TimingModel;
pub use vm::{VmSpec, VmState, VmmType};
