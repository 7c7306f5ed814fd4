//! The VM Information System and monitor (Figure 2).
//!
//! "Once a machine is created, the configuration process returns a classad
//! describing the machine, which is then stored into the VM Information
//! System maintained by the VMPlant" (§3.2). The classad here is
//! *authoritative*; VMShop may cache it but can always rebuild its cache
//! from the plants (§3.1).
//!
//! The VM monitor keeps four dynamic attributes in every classad:
//! `uptime_s` (once the VM runs), `host_free_mb`, `host_pressure` and
//! `last_monitor_s`. Nothing in the plant, the shop or bidding reads
//! them; only the classads that leave the plant show them. So the
//! monitor runs no events of its own: a classad leaves the plant only
//! through `InfoSystem::classad`, which first writes the host's state
//! at the moment of the read (`now`, `host`) into them. [`VmRecord`]
//! keeps its classad private, so no caller can read stale monitor
//! values. A write is skipped when the attribute already holds the
//! value, so two reads at one instant copy nothing.
//!
//! The `state` attribute is written the same way: a lifecycle step
//! (`VmRecord::transition`) only records the [`VmState`], and reading
//! the classad writes the state's name into the attribute's slot. The
//! record gives `state` and the three host attributes their slots when
//! it is created, so they keep their place in the ad; `uptime_s` is
//! appended at the first read after the VM starts running.

use std::collections::BTreeMap;
use std::rc::Rc;

use vmplants_classad::{AttrName, ClassAd, Expr, Value};
use vmplants_cluster::host::Host;
use vmplants_dag::PerformedLog;
use vmplants_simkit::SimTime;
use vmplants_virt::{VmSpec, VmState};
use vmplants_vnet::{NetworkLease, ProxyEndpoint};
use vmplants_warehouse::GoldenId;

use crate::order::{PlantError, VmId};

/// The attributes written when a classad is read: the VM monitor's and
/// the lifecycle state.
const WRITTEN_ON_READ: [&str; 5] = [
    "uptime_s",
    "host_free_mb",
    "host_pressure",
    "last_monitor_s",
    "state",
];

/// The `state` attribute's value for `state`. The name of a state
/// without a reason is allocated once per thread and shared by every
/// classad that holds it.
pub(crate) fn state_value(state: &VmState) -> Value {
    thread_local! {
        static NAMES: [Rc<str>; 8] = [
            VmState::Cloning,
            VmState::Resuming,
            VmState::Booting,
            VmState::Configuring,
            VmState::Running,
            VmState::Publishing,
            VmState::Migrating,
            VmState::Collected,
        ]
        .map(|state| Rc::from(state.name()));
    }
    if let VmState::Failed(_) = state {
        return Value::from(state.to_string());
    }
    NAMES.with(|names| {
        let name = names
            .iter()
            .find(|name| ***name == *state.name())
            .expect("every state without a reason is listed");
        Value::Str(Rc::clone(name))
    })
}

/// Whether `text` is what [`state_value`] gives for `state`.
fn names_state(text: &str, state: &VmState) -> bool {
    match state {
        VmState::Failed(reason) => {
            text.strip_prefix(state.name())
                .and_then(|rest| rest.strip_prefix(": "))
                == Some(reason.as_str())
        }
        _ => text == state.name(),
    }
}

/// Everything the plant tracks about one VM instance.
#[derive(Clone, Debug)]
pub struct VmRecord {
    /// The VM's identifier.
    pub id: VmId,
    /// Hardware spec it was created with.
    pub spec: VmSpec,
    /// Lifecycle state. The classad's `state` attribute follows it when
    /// the classad is read.
    pub state: VmState,
    /// The authoritative classad. Its monitor attributes and `state` may
    /// trail the host and the lifecycle step; it is read through
    /// [`InfoSystem::classad`].
    classad: ClassAd,
    /// Directory of the clone's files on the host disk.
    pub clone_dir: String,
    /// The VM's network lease: its host-only network and its client-domain
    /// IP and MAC. The record is the lease's one holder.
    pub lease: NetworkLease,
    /// The client's VNET proxy, as the order named it: a migration bridges
    /// the target's network to it.
    pub proxy: Rc<ProxyEndpoint>,
    /// Which golden image it was cloned from.
    pub golden: GoldenId,
    /// Every configuration action applied to this VM, in order: the
    /// golden's inherited log plus the residual actions executed after
    /// cloning. This is what an installer publishes back to the warehouse
    /// (§3.2) and what migration carries along.
    pub performed: PerformedLog,
    /// Virtual time the creation request was accepted.
    pub created_at: SimTime,
    /// Virtual time the VM reached `Running` ([`InfoSystem::start_running`]).
    running_at: Option<SimTime>,
    /// A collect of this VM is in flight: the record stays `Running`
    /// while the backend destroys the VM, but takes no further publish,
    /// migrate or collect ([`VmRecord::refusal`]).
    collecting: bool,
}

impl VmRecord {
    /// A record for a VM entering production (state `Cloning`) on `host`.
    /// The classad's `state` and host monitor attributes are written
    /// here, appended when `classad` has none, so they have their slots
    /// from now on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: VmId,
        spec: VmSpec,
        classad: ClassAd,
        clone_dir: String,
        lease: NetworkLease,
        proxy: Rc<ProxyEndpoint>,
        golden: GoldenId,
        performed: PerformedLog,
        created_at: SimTime,
        host: &Host,
    ) -> VmRecord {
        let mut record = VmRecord {
            id,
            spec,
            state: VmState::Cloning,
            classad,
            clone_dir,
            lease,
            proxy,
            golden,
            performed,
            created_at,
            running_at: None,
            collecting: false,
        };
        record.write_state();
        record.write_monitor(created_at, host);
        record
    }

    /// Mark the VM as being collected, until its record is removed.
    pub(crate) fn begin_collect(&mut self) {
        self.collecting = true;
    }

    /// Why a publish, migrate or collect (`verb`) of this VM must be
    /// refused, if it must: it is not `Running`, or a collect of it is
    /// already in flight.
    pub(crate) fn refusal(&self, verb: &str) -> Option<PlantError> {
        let why = if self.collecting {
            "that is being collected".to_owned()
        } else if self.state != VmState::Running {
            format!("in state '{}'", self.state)
        } else {
            return None;
        };
        Some(PlantError::InvalidOrder(format!(
            "cannot {verb} a VM {why}"
        )))
    }

    /// Bind a classad attribute (anything but those written on read).
    pub(crate) fn set_value(&mut self, name: impl AsRef<str> + Into<AttrName>, value: impl Into<Value>) {
        debug_assert!(
            !is_written_on_read(name.as_ref()),
            "attribute written on read set directly"
        );
        self.classad.set_value(name, value);
    }

    /// Bind a classad attribute (anything but those written on read) to
    /// the display text of `value`, leaving it alone when it already
    /// holds that text ([`ClassAd::set_display`]).
    pub(crate) fn set_display(&mut self, name: &'static str, value: impl std::fmt::Display) {
        debug_assert!(
            !is_written_on_read(name),
            "attribute written on read set directly"
        );
        self.classad.set_display(name, value);
    }

    /// Read a string attribute that is not written on read (those are
    /// current only through [`InfoSystem::classad`]).
    pub(crate) fn get_str(&self, name: &str) -> Option<String> {
        debug_assert!(
            !is_written_on_read(name),
            "attribute written on read, read without InfoSystem::classad"
        );
        self.classad.get_str(name)
    }

    /// Assert that `self.state -> next` is a legal lifecycle step.
    ///
    /// # Panics
    ///
    /// Panics on an illegal transition — plant bookkeeping bugs must not
    /// pass silently.
    pub(crate) fn check_transition(&self, next: &VmState) {
        assert!(
            self.state.can_transition_to(next),
            "illegal VM state transition {} -> {} for {}",
            self.state,
            next,
            self.id
        );
    }

    /// Advance the lifecycle state, asserting legality
    /// ([`VmRecord::check_transition`]). The classad's `state` follows
    /// on its next read.
    pub(crate) fn transition(&mut self, next: VmState) {
        self.check_transition(&next);
        self.state = next;
    }

    /// Write the lifecycle state into the classad's `state` attribute,
    /// unless it already holds it.
    fn write_state(&mut self) {
        let current = matches!(
            self.classad.get_expr("state"),
            Some(Expr::Lit(Value::Str(text))) if names_state(text, &self.state)
        );
        if !current {
            self.classad.set_value("state", state_value(&self.state));
        }
    }

    /// Write the monitor attributes as of `now` on `host`: `uptime_s`
    /// once the VM runs, then the host's free memory and pressure, and
    /// the time of the reading.
    fn write_monitor(&mut self, now: SimTime, host: &Host) {
        if let Some(started) = self.running_at {
            self.write_changed("uptime_s", now.since_saturating(started).as_secs_f64());
        }
        self.write_changed("host_free_mb", host.free_mb());
        self.write_changed("host_pressure", host.pressure_factor());
        self.write_changed("last_monitor_s", now.as_secs_f64());
    }

    /// Bind `name` to `value` unless it already holds it, so a shared
    /// classad is not copied for nothing.
    fn write_changed(&mut self, name: &'static str, value: impl Into<Value>) {
        let value = value.into();
        if !matches!(self.classad.get_expr(name), Some(Expr::Lit(held)) if *held == value) {
            self.classad.set_value(name, value);
        }
    }
}

fn is_written_on_read(name: &str) -> bool {
    WRITTEN_ON_READ.iter().any(|a| a.eq_ignore_ascii_case(name))
}

/// The per-plant store of VM records.
#[derive(Default)]
pub struct InfoSystem {
    records: BTreeMap<VmId, VmRecord>,
}

impl InfoSystem {
    /// An empty information system.
    pub(crate) fn new() -> InfoSystem {
        InfoSystem::default()
    }

    /// Insert a new record.
    ///
    /// # Panics
    ///
    /// Panics on duplicate VM ids (they are plant-generated and unique by
    /// construction).
    pub(crate) fn insert(&mut self, record: VmRecord) {
        let prior = self.records.insert(record.id.clone(), record);
        assert!(prior.is_none(), "duplicate VM id");
    }

    /// Read a record.
    pub(crate) fn get(&self, id: &VmId) -> Option<&VmRecord> {
        self.records.get(id)
    }

    /// Mutate a record.
    pub(crate) fn get_mut(&mut self, id: &VmId) -> Option<&mut VmRecord> {
        self.records.get_mut(id)
    }

    /// The record's classad as it leaves the plant at `now`: its `state`
    /// written from the lifecycle state and its monitor attributes from
    /// `host`, the plant's host. The one way a classad leaves the plant.
    pub(crate) fn classad(&mut self, id: &VmId, now: SimTime, host: &Host) -> Option<ClassAd> {
        let record = self.records.get_mut(id)?;
        record.write_state();
        record.write_monitor(now, host);
        Some(record.classad.clone())
    }

    /// Remove a record (collect, crash, failed creation, or a migration
    /// carrying it to another plant, whose first read rewrites its state
    /// and monitor attributes).
    pub(crate) fn remove(&mut self, id: &VmId) -> Option<VmRecord> {
        self.records.remove(id)
    }

    /// Move a record to `Running` at `now`; its next read adds `uptime_s`.
    /// Returns the record, or `None` for an unknown id.
    pub(crate) fn start_running(&mut self, id: &VmId, now: SimTime) -> Option<&mut VmRecord> {
        let record = self.records.get_mut(id)?;
        record.transition(VmState::Running);
        record.running_at = Some(now);
        Some(record)
    }

    /// All live records.
    pub(crate) fn records(&self) -> impl Iterator<Item = &VmRecord> {
        self.records.values()
    }

    /// Number of live records.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::host::HostSpec;
    use vmplants_simkit::{SimDuration, SimRng};

    fn host(name: &str) -> Host {
        Host::new(HostSpec::e1350_node(name))
    }

    fn record(id: &str) -> VmRecord {
        VmRecord::new(
            VmId(id.to_owned()),
            VmSpec::mandrake(64),
            ClassAd::new(),
            format!("/clones/{id}"),
            NetworkLease {
                domain: "ufl.edu".into(),
                network: vmplants_vnet::NetworkId(0),
                fresh_network: true,
                ip: std::net::Ipv4Addr::new(128, 227, 56, 10),
                mac: vmplants_vnet::MacAddr([2, 0x56, 0, 0, 0, 1]),
            },
            Rc::new(ProxyEndpoint::new("ufl.edu", "proxy.ufl.edu", 9300)),
            GoldenId("g".into()),
            PerformedLog::new(),
            SimTime::ZERO,
            &host("node0"),
        )
    }

    fn running(sys: &mut InfoSystem, id: &VmId, now: SimTime) {
        for next in [VmState::Resuming, VmState::Configuring] {
            sys.get_mut(id).unwrap().transition(next);
        }
        sys.start_running(id, now).unwrap();
    }

    #[test]
    fn insert_get_remove() {
        let mut sys = InfoSystem::new();
        sys.insert(record("vm-1"));
        sys.insert(record("vm-2"));
        assert_eq!(sys.len(), 2);
        assert!(sys.get(&VmId("vm-1".into())).is_some());
        assert!(sys.remove(&VmId("vm-1".into())).is_some());
        assert!(sys.remove(&VmId("vm-1".into())).is_none());
        assert_eq!(sys.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate VM id")]
    fn duplicate_ids_panic() {
        let mut sys = InfoSystem::new();
        sys.insert(record("vm-1"));
        sys.insert(record("vm-1"));
    }

    #[test]
    fn transitions_update_classad() {
        let mut sys = InfoSystem::new();
        let host = host("node0");
        let id = VmId("vm-1".into());
        sys.insert(record("vm-1"));
        let r = sys.get_mut(&id).unwrap();
        assert_eq!(r.classad.get_str("state"), Some("cloning".into()));
        r.transition(VmState::Resuming);
        r.transition(VmState::Configuring);
        assert_eq!(
            r.classad.get_str("state"),
            Some("cloning".into()),
            "not yet read"
        );
        let ad = sys.classad(&id, SimTime::ZERO, &host).unwrap();
        assert_eq!(ad.get_str("state"), Some("configuring".into()));
        sys.get_mut(&id)
            .unwrap()
            .transition(VmState::Failed("disk full".into()));
        let ad = sys.classad(&id, SimTime::ZERO, &host).unwrap();
        assert_eq!(ad.get_str("state"), Some("failed: disk full".into()));
        assert_eq!(ad.names().filter(|n| *n == "state").count(), 1);
    }

    #[test]
    fn a_read_of_an_unchanged_state_writes_nothing() {
        let mut sys = InfoSystem::new();
        let host = host("node0");
        let id = VmId("vm-1".into());
        let now = SimTime::from_secs(1);
        sys.insert(record("vm-1"));
        running(&mut sys, &id, now);
        let first = sys.classad(&id, now, &host).unwrap();
        // A second read at the same instant answers the same classad.
        let second = sys.classad(&id, now, &host).unwrap();
        assert_eq!(first, second);
        assert_eq!(state_value(&VmState::Running), Value::str("running"));
        assert_eq!(
            state_value(&VmState::Failed("x".into())),
            Value::str("failed: x")
        );
    }

    #[test]
    #[should_panic(expected = "illegal VM state transition")]
    fn illegal_transition_panics() {
        let mut r = record("vm-1");
        r.transition(VmState::Running);
    }

    #[test]
    fn monitor_refresh_writes_dynamic_attributes() {
        let mut sys = InfoSystem::new();
        let id = VmId("vm-1".into());
        sys.insert(record("vm-1"));
        running(&mut sys, &id, SimTime::from_secs(10));
        let host = host("node0");
        host.register_vm(64);
        let ad = sys.classad(&id, SimTime::from_secs(70), &host).unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(60.0));
        assert_eq!(ad.get_int("host_free_mb"), Some(1280 - 88));
        assert!(ad.get_f64("host_pressure").unwrap() >= 1.0);
        // A later read carries the host as it is then.
        host.register_vm(64);
        let ad = sys.classad(&id, SimTime::from_secs(80), &host).unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(70.0));
        assert_eq!(ad.get_int("host_free_mb"), Some(1280 - 2 * 88));
        assert_eq!(ad.get_f64("last_monitor_s"), Some(80.0));
    }

    #[test]
    fn a_read_writes_only_the_record_it_reads() {
        let mut sys = InfoSystem::new();
        let host = host("node0");
        for i in 0..3 {
            sys.insert(record(&format!("vm-{i}")));
            sys.classad(&VmId(format!("vm-{i}")), SimTime::from_secs(10), &host);
        }
        running(&mut sys, &VmId("vm-1".into()), SimTime::from_secs(12));
        let ad = sys
            .classad(&VmId("vm-1".into()), SimTime::from_secs(20), &host)
            .unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(8.0));
        // The records not read still hold their last read.
        let raw = &sys.get(&VmId("vm-0".into())).unwrap().classad;
        assert_eq!(raw.get_f64("last_monitor_s"), Some(10.0));
        let ad = sys
            .classad(&VmId("vm-0".into()), SimTime::from_secs(20), &host)
            .unwrap();
        assert_eq!(ad.get_f64("last_monitor_s"), Some(20.0));
        assert_eq!(ad.get_f64("uptime_s"), None);
    }

    /// One plant: its information system and its host.
    struct Node {
        sys: InfoSystem,
        host: Host,
    }

    impl Node {
        /// Read `id`'s classad at `now` and check it against the host and
        /// the record: the monitor attributes, in their slots after
        /// `state`, and `state` itself.
        fn check(&mut self, id: &VmId, now: SimTime, ctx: &str) {
            let ad = self.sys.classad(id, now, &self.host).expect("record");
            let record = self.sys.get(id).unwrap();
            let free = i64::try_from(self.host.free_mb()).unwrap();
            assert_eq!(ad.get_int("host_free_mb"), Some(free), "{ctx}");
            assert_eq!(
                ad.get_f64("host_pressure"),
                Some(self.host.pressure_factor()),
                "{ctx}"
            );
            assert_eq!(ad.get_f64("last_monitor_s"), Some(now.as_secs_f64()), "{ctx}");
            let uptime = record
                .running_at
                .map(|at| now.since_saturating(at).as_secs_f64());
            assert_eq!(ad.get_f64("uptime_s"), uptime, "{ctx}");
            assert_eq!(ad.get_str("state"), Some(record.state.to_string()), "{ctx}");
            let names: Vec<&str> = ad.names().collect();
            assert!(
                names
                    .windows(4)
                    .any(|w| w == ["state", "host_free_mb", "host_pressure", "last_monitor_s"]),
                "{ctx}: {names:?}"
            );
        }
    }

    #[test]
    fn monitor_reads_carry_the_host_at_the_read() {
        const ATTRS: [&str; 5] = ["clone_s", "config_s", "note", "ip_address", "Note"];
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut plants = ["node0", "node1"].map(|name| Node {
                sys: InfoSystem::new(),
                host: host(name),
            });
            // Live VMs: (id, plant index).
            let mut live: Vec<(VmId, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            for step in 0..600 {
                // Zero steps make reads at the same instant.
                now += SimDuration::from_millis(rng.uniform_u64(0, 4_000));
                let ctx = format!("seed {seed} step {step}");
                let pick = (!live.is_empty()).then(|| live[rng.index(live.len())].clone());
                match rng.index(9) {
                    0 | 1 => {
                        let p = rng.index(2);
                        let id = VmId(format!("vm-{next_id}"));
                        next_id += 1;
                        let mut r = record(&id.0);
                        r.set_value("vmid", id.0.clone());
                        r.created_at = now;
                        plants[p].sys.insert(r);
                        plants[p].host.register_vm(32);
                        live.push((id, p));
                    }
                    2 => {
                        if let Some((id, p)) = pick {
                            let name = ATTRS[rng.index(ATTRS.len())];
                            let value = rng.uniform(0.0, 100.0);
                            plants[p].sys.get_mut(&id).unwrap().set_value(name, value);
                        }
                    }
                    3 => {
                        if let Some((id, p)) = pick {
                            let sys = &mut plants[p].sys;
                            let state = sys.get(&id).unwrap().state.clone();
                            let next = successors(&state);
                            if !next.is_empty() {
                                let next = next[rng.index(next.len())].clone();
                                if state == VmState::Configuring && next == VmState::Running {
                                    sys.start_running(&id, now).unwrap();
                                } else {
                                    sys.get_mut(&id).unwrap().transition(next);
                                }
                            }
                        }
                    }
                    4 | 5 => {
                        let host = &plants[rng.index(2)].host;
                        if rng.chance(0.3) && host.vm_count() > 0 {
                            host.unregister_vm(32);
                        } else if rng.chance(0.3) {
                            host.register_vm(32);
                        }
                    }
                    6 => {
                        if let Some((id, p)) = pick {
                            plants[p].check(&id, now, &ctx);
                        }
                    }
                    7 => {
                        if let Some((id, p)) = pick {
                            plants[p].sys.remove(&id).unwrap();
                            live.retain(|(v, _)| *v != id);
                        }
                    }
                    _ => {
                        // Migration of a running VM: the source removes
                        // the record, the target inserts it and reads it
                        // at resume.
                        let Some((id, p)) = pick else { continue };
                        if plants[p].sys.get(&id).unwrap().state != VmState::Running {
                            continue;
                        }
                        let q = 1 - p;
                        plants[p].sys.get_mut(&id).unwrap().transition(VmState::Migrating);
                        let mut r = plants[p].sys.remove(&id).unwrap();
                        r.set_value("plant", format!("node{q}"));
                        r.set_value("migrated_from", format!("node{p}"));
                        r.transition(VmState::Running);
                        plants[q].sys.insert(r);
                        plants[q].check(&id, now, &ctx);
                        for entry in live.iter_mut().filter(|(v, _)| *v == id) {
                            entry.1 = q;
                        }
                    }
                }
            }
            for (id, p) in live {
                plants[p].check(&id, now, &format!("seed {seed} final"));
            }
        }
    }

    /// One record held twice: `lazy` as the plant keeps it, `eager` with
    /// `state` written at every lifecycle step, as every step did before
    /// the state was written on read.
    struct Twin {
        lazy: InfoSystem,
        eager: InfoSystem,
        host: Host,
    }

    impl Twin {
        /// Move `id` to `next` (through `start_running` when it enters
        /// `Running` from `Configuring`).
        fn step(&mut self, id: &VmId, next: &VmState, now: SimTime) {
            let configuring = self.lazy.get(id).unwrap().state == VmState::Configuring;
            for sys in [&mut self.lazy, &mut self.eager] {
                if configuring && *next == VmState::Running {
                    sys.start_running(id, now).unwrap();
                } else {
                    sys.get_mut(id).unwrap().transition(next.clone());
                }
            }
            let eager = self.eager.get_mut(id).unwrap();
            eager.classad.set_value("state", eager.state.to_string());
        }

        /// Compare what a client would read at `now`: the lazy record
        /// through its accessor, the eager one with only its monitor
        /// attributes brought up to `now`.
        fn check(&mut self, id: &VmId, now: SimTime, ctx: &str) {
            let lazy = self.lazy.classad(id, now, &self.host).expect("lazy record");
            let eager = self.eager.get_mut(id).expect("eager record");
            eager.write_monitor(now, &self.host);
            assert_eq!(lazy.to_string(), eager.classad.to_string(), "{ctx}");
            assert_eq!(lazy, eager.classad, "{ctx}");
        }
    }

    /// Every state `state` may legally move to.
    fn successors(state: &VmState) -> Vec<VmState> {
        [
            VmState::Cloning,
            VmState::Resuming,
            VmState::Booting,
            VmState::Configuring,
            VmState::Running,
            VmState::Publishing,
            VmState::Migrating,
            VmState::Collected,
            VmState::Failed("host crashed".into()),
        ]
        .into_iter()
        .filter(|next| state.can_transition_to(next))
        .collect()
    }

    /// Every legal lifecycle path from `Cloning` of at most `len` steps.
    fn paths(len: usize) -> Vec<Vec<VmState>> {
        let mut all = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..len {
            let mut longer = Vec::new();
            for path in &frontier {
                let last: &VmState = path.last().unwrap_or(&VmState::Cloning);
                for next in successors(last) {
                    let mut path = path.clone();
                    path.push(next);
                    longer.push(path);
                }
            }
            all.extend(longer.iter().cloned());
            frontier = longer;
        }
        all
    }

    #[test]
    fn state_written_on_read_matches_eager_writes_on_every_path() {
        // Nine steps reach every state and every cycle through `Running`
        // more than once.
        let paths = paths(9);
        assert_eq!(paths.len(), 124);
        for path in &paths {
            // Between steps: nothing, a host change, a read, or both.
            for schedule in 0..4u32 {
                let mut twin = Twin {
                    lazy: InfoSystem::new(),
                    eager: InfoSystem::new(),
                    host: host("node0"),
                };
                let id = VmId("vm-0".into());
                let mut r = record(&id.0);
                r.set_value("vmid", id.0.clone());
                twin.lazy.insert(r.clone());
                twin.eager.insert(r);
                twin.host.register_vm(32);
                let mut now = SimTime::ZERO;
                for (step, next) in path.iter().enumerate() {
                    now += SimDuration::from_secs(10);
                    twin.step(&id, next, now);
                    if schedule & 1 != 0 {
                        twin.host.register_vm(32);
                    }
                    if schedule & 2 != 0 {
                        twin.check(&id, now, &format!("{path:?} schedule {schedule} step {step}"));
                    }
                }
                twin.check(
                    &id,
                    now + SimDuration::from_secs(10),
                    &format!("{path:?} schedule {schedule} end"),
                );
            }
        }
    }
}
