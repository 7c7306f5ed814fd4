//! Virtual machine specifications and lifecycle.

use std::fmt;

/// Which virtualization technology hosts the VM (§2 of the paper surveys
/// the design space; the prototype implements these two).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VmmType {
    /// A "classic" hosted VMM in the style of VMware GSX: suspended
    /// checkpoints, non-persistent disks with redo logs, fast resume.
    VmwareLike,
    /// A user-mode-Linux-style VMM: copy-on-write file systems, clones
    /// boot rather than resume (§4.1: "the current UML production line
    /// boots the virtual machine after cloning").
    UmlLike,
}

impl fmt::Display for VmmType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmType::VmwareLike => write!(f, "vmware"),
            VmmType::UmlLike => write!(f, "uml"),
        }
    }
}

impl std::str::FromStr for VmmType {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "vmware" => Ok(VmmType::VmwareLike),
            "uml" => Ok(VmmType::UmlLike),
            other => Err(format!("unknown VMM type '{other}'")),
        }
    }
}

/// Hardware-level description of a requested VM (the paper's "hardware
/// specifications … such as the VM's instruction set, memory and disk
/// space", §3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct VmSpec {
    /// Guest memory in MB (the experiments use 32, 64 and 256).
    pub memory_mb: u64,
    /// Virtual disk size in GB (the golden machines use 2 GB disks on a
    /// 4 GB virtual geometry).
    pub disk_gb: u64,
    /// Operating system identity (matched against golden images).
    pub os: String,
    /// The virtualization technology to use.
    pub vmm: VmmType,
}

impl VmSpec {
    /// The experiments' golden-machine shape: Linux Mandrake 8.1 on a
    /// VMware-like VMM with the given memory size.
    pub fn mandrake(memory_mb: u64) -> VmSpec {
        VmSpec {
            memory_mb,
            disk_gb: 4,
            os: "linux-mandrake-8.1".to_owned(),
            vmm: VmmType::VmwareLike,
        }
    }

    /// The UML experiment's shape (32 MB UML VM).
    pub fn uml(memory_mb: u64) -> VmSpec {
        VmSpec {
            vmm: VmmType::UmlLike,
            ..VmSpec::mandrake(memory_mb)
        }
    }
}

/// Lifecycle of a VM instance as tracked by the plant's information system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VmState {
    /// Clone requested; state files being produced.
    Cloning,
    /// VMware-like path: resuming from the copied checkpoint.
    Resuming,
    /// UML-like path: booting from the COW overlay.
    Booting,
    /// Residual configuration actions executing.
    Configuring,
    /// Serving the client.
    Running,
    /// Suspended while its state is published to the warehouse (§3.2's
    /// installer flow); returns to `Running` afterwards.
    Publishing,
    /// Suspended while moving to another plant (§6's migration).
    Migrating,
    /// Destroyed (collected) — terminal.
    Collected,
    /// Production failed — terminal, with a reason.
    Failed(String),
}

impl VmState {
    /// True for terminal states.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, VmState::Collected | VmState::Failed(_))
    }

    /// The state's name. It is the whole display text of every state but
    /// `Failed`, which prints its reason after the name.
    pub fn name(&self) -> &'static str {
        match self {
            VmState::Cloning => "cloning",
            VmState::Resuming => "resuming",
            VmState::Booting => "booting",
            VmState::Configuring => "configuring",
            VmState::Running => "running",
            VmState::Publishing => "publishing",
            VmState::Migrating => "migrating",
            VmState::Collected => "collected",
            VmState::Failed(_) => "failed",
        }
    }

    /// Legal state transitions; the plant asserts on these so bookkeeping
    /// bugs surface immediately.
    pub fn can_transition_to(&self, next: &VmState) -> bool {
        use VmState::*;
        match (self, next) {
            (Cloning, Resuming)
            | (Cloning, Booting)
            | (Resuming, Configuring)
            | (Booting, Configuring)
            | (Configuring, Running)
            | (Running, Publishing)
            | (Publishing, Running)
            | (Running, Migrating)
            | (Migrating, Running)
            | (Running, Collected) => true,
            // Failure can strike any non-terminal state.
            (s, Failed(_)) if !s.is_terminal() => true,
            _ => false,
        }
    }
}

impl fmt::Display for VmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmState::Failed(reason) => write!(f, "{}: {reason}", self.name()),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_experiments() {
        let m = VmSpec::mandrake(64);
        assert_eq!(m.memory_mb, 64);
        assert_eq!(m.vmm, VmmType::VmwareLike);
        assert_eq!(m.os, "linux-mandrake-8.1");
        let u = VmSpec::uml(32);
        assert_eq!(u.vmm, VmmType::UmlLike);
    }

    #[test]
    fn vmm_type_round_trips_through_strings() {
        for t in [VmmType::VmwareLike, VmmType::UmlLike] {
            let s = t.to_string();
            assert_eq!(s.parse::<VmmType>().unwrap(), t);
        }
        assert!("xen".parse::<VmmType>().is_err());
    }

    #[test]
    fn happy_path_transitions() {
        use VmState::*;
        let vmware_path = [Cloning, Resuming, Configuring, Running, Collected];
        for w in vmware_path.windows(2) {
            assert!(w[0].can_transition_to(&w[1]), "{} -> {}", w[0], w[1]);
        }
        let uml_path = [Cloning, Booting, Configuring, Running, Collected];
        for w in uml_path.windows(2) {
            assert!(w[0].can_transition_to(&w[1]), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn illegal_transitions_rejected() {
        use VmState::*;
        assert!(!Cloning.can_transition_to(&Running));
        assert!(!Running.can_transition_to(&Cloning));
        assert!(!Collected.can_transition_to(&Running));
        assert!(!Collected.can_transition_to(&Failed("x".into())));
        assert!(!Failed("x".into()).can_transition_to(&Running));
    }

    #[test]
    fn any_live_state_can_fail() {
        use VmState::*;
        for s in [Cloning, Resuming, Booting, Configuring, Running, Publishing, Migrating] {
            assert!(s.can_transition_to(&Failed("disk full".into())));
        }
    }

    #[test]
    fn publish_and_migrate_round_trip_through_running() {
        use VmState::*;
        assert!(Running.can_transition_to(&Publishing));
        assert!(Publishing.can_transition_to(&Running));
        assert!(Running.can_transition_to(&Migrating));
        assert!(Migrating.can_transition_to(&Running));
        // But not from mid-creation states.
        assert!(!Configuring.can_transition_to(&Publishing));
        assert!(!Cloning.can_transition_to(&Migrating));
        assert!(!Publishing.can_transition_to(&Migrating));
    }

    #[test]
    fn terminality() {
        use VmState::*;
        assert!(Collected.is_terminal());
        assert!(Failed("x".into()).is_terminal());
        assert!(!Running.is_terminal());
    }
}
