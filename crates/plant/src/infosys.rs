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
//! `last_monitor_s`. It does so by sample-and-materialize, so a monitor
//! tick costs the same however many VMs the plant holds:
//!
//! * `InfoSystem::refresh_dynamic` records one sample of the host and
//!   writes only into records that do not carry the attributes yet —
//!   records inserted since the last sample, and `uptime_s` for records
//!   that started running since. Every classad therefore has its
//!   attributes in the order a rewrite of every record on every tick
//!   would have given it.
//! * A classad leaves the plant only through `InfoSystem::classad` or
//!   `InfoSystem::hand_over`, which first bring its attributes up to
//!   the latest sample. [`VmRecord`] keeps its classad private, so no
//!   caller can read stale monitor values.
//!
//! The `state` attribute is written the same way: a lifecycle step
//! (`VmRecord::transition`) only records the [`VmState`], and reading
//! the classad writes the state's name into the attribute's slot, which
//! every record has from its creation on.

use std::collections::{BTreeMap, BTreeSet};
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

/// One monitor reading of the plant's host.
#[derive(Clone, Copy, Debug)]
struct Sample {
    at: SimTime,
    free_mb: u64,
    pressure: f64,
}

/// How far a record's classad follows its plant's monitor samples.
#[derive(Clone, Copy, Debug, Default)]
struct Synced {
    /// Sequence number of the sample the monitor attributes hold, or
    /// `None` before this plant sampled the record.
    seq: Option<u64>,
    /// Whether the classad carries `uptime_s`.
    uptime: bool,
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
    /// trail the latest sample and lifecycle step; it is read through
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
    monitor: Synced,
    /// A collect of this VM is in flight: the record stays `Running`
    /// while the backend destroys the VM, but takes no further publish,
    /// migrate or collect ([`VmRecord::refusal`]).
    collecting: bool,
}

impl VmRecord {
    /// A record for a VM entering production (state `Cloning`). The
    /// classad's `state` attribute is written here, appended when
    /// `classad` has none, so the attribute has its slot from now on.
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
            monitor: Synced::default(),
            collecting: false,
        };
        record.write_state();
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

    /// Write `sample` into the monitor attributes, with `uptime_s` when
    /// `uptime` (which implies the VM is running).
    fn write_sample(&mut self, seq: u64, sample: &Sample, uptime: bool) {
        if let (true, Some(started)) = (uptime, self.running_at) {
            self.classad.set_value(
                "uptime_s",
                sample.at.since_saturating(started).as_secs_f64(),
            );
        }
        self.classad.set_value("host_free_mb", sample.free_mb);
        self.classad.set_value("host_pressure", sample.pressure);
        self.classad
            .set_value("last_monitor_s", sample.at.as_secs_f64());
        self.monitor = Synced {
            seq: Some(seq),
            uptime,
        };
    }
}

fn is_written_on_read(name: &str) -> bool {
    WRITTEN_ON_READ.iter().any(|a| a.eq_ignore_ascii_case(name))
}

/// The per-plant store of VM records.
#[derive(Default)]
pub struct InfoSystem {
    records: BTreeMap<VmId, VmRecord>,
    /// The latest monitor sample and its sequence number.
    latest: Option<(u64, Sample)>,
    /// Records missing attributes the next sample adds: inserted since
    /// the last sample, or started running since.
    unsampled: BTreeSet<VmId>,
}

impl InfoSystem {
    /// An empty information system.
    pub(crate) fn new() -> InfoSystem {
        InfoSystem::default()
    }

    /// Insert a new record. Monitor attributes it carries (a migrated
    /// VM's) stay as they are until this plant's next sample.
    ///
    /// # Panics
    ///
    /// Panics on duplicate VM ids (they are plant-generated and unique by
    /// construction).
    pub(crate) fn insert(&mut self, mut record: VmRecord) {
        record.monitor = Synced::default();
        self.unsampled.insert(record.id.clone());
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

    /// The record's classad, its `state` and monitor attributes brought
    /// up to the lifecycle state and the latest sample: the one way a
    /// classad leaves the plant.
    pub(crate) fn classad(&mut self, id: &VmId) -> Option<ClassAd> {
        let record = self.records.get_mut(id)?;
        record.write_state();
        if let Some((seq, sample)) = &self.latest {
            if record.monitor.seq.is_some_and(|at| at < *seq) {
                let uptime = record.monitor.uptime;
                record.write_sample(*seq, sample, uptime);
            }
        }
        Some(record.classad.clone())
    }

    /// Remove a record whose classad is not read again (collect, crash,
    /// failed creation).
    pub(crate) fn remove(&mut self, id: &VmId) -> Option<VmRecord> {
        self.unsampled.remove(id);
        self.records.remove(id)
    }

    /// Remove a record that carries its classad to another plant
    /// (migration): its `state` and monitor attributes are first brought
    /// up to date.
    pub(crate) fn hand_over(&mut self, id: &VmId) -> Option<VmRecord> {
        self.classad(id)?;
        self.remove(id)
    }

    /// Move a record to `Running` at `now`; the next sample adds its
    /// `uptime_s`. Returns the record, or `None` for an unknown id.
    pub(crate) fn start_running(&mut self, id: &VmId, now: SimTime) -> Option<&mut VmRecord> {
        let record = self.records.get_mut(id)?;
        record.transition(VmState::Running);
        record.running_at = Some(now);
        // A record not sampled yet is already queued.
        if record.monitor.seq.is_some() {
            self.unsampled.insert(id.clone());
        }
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

    /// The VM monitor's pass (Figure 2's "update VM classad"): sample the
    /// host at `now`. Only records that lack monitor attributes are
    /// written; the rest catch up when their classad is read.
    pub(crate) fn refresh_dynamic(&mut self, now: SimTime, host: &Host) {
        let sample = Sample {
            at: now,
            free_mb: host.free_mb(),
            pressure: host.pressure_factor(),
        };
        let seq = self.latest.map_or(1, |(seq, _)| seq + 1);
        self.latest = Some((seq, sample));
        for id in std::mem::take(&mut self.unsampled) {
            if let Some(record) = self.records.get_mut(&id) {
                let uptime = record.running_at.is_some();
                record.write_sample(seq, &sample, uptime);
            }
        }
    }
}

#[cfg(test)]
impl InfoSystem {
    /// The eager monitor pass sample-and-materialize replaced, kept as
    /// the oracle: rewrite every live record's dynamic attributes now.
    fn refresh_eager(&mut self, now: SimTime, host: &Host) {
        let free = host.free_mb();
        let pressure = host.pressure_factor();
        for record in self.records.values_mut() {
            if let Some(started) = record.running_at {
                record
                    .classad
                    .set_value("uptime_s", now.since_saturating(started).as_secs_f64());
            }
            record.classad.set_value("host_free_mb", free);
            record.classad.set_value("host_pressure", pressure);
            record
                .classad
                .set_value("last_monitor_s", now.as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmplants_cluster::host::HostSpec;
    use vmplants_simkit::{SimDuration, SimRng};

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
        let ad = sys.classad(&id).unwrap();
        assert_eq!(ad.get_str("state"), Some("configuring".into()));
        sys.get_mut(&id)
            .unwrap()
            .transition(VmState::Failed("disk full".into()));
        let ad = sys.classad(&id).unwrap();
        assert_eq!(ad.get_str("state"), Some("failed: disk full".into()));
        assert_eq!(ad.names().filter(|n| *n == "state").count(), 1);
    }

    #[test]
    fn a_read_of_an_unchanged_state_writes_nothing() {
        let mut sys = InfoSystem::new();
        let id = VmId("vm-1".into());
        sys.insert(record("vm-1"));
        running(&mut sys, &id, SimTime::from_secs(1));
        let first = sys.classad(&id).unwrap();
        // The record still shares its list with the first reply: a second
        // read with nothing new must not copy it.
        let second = sys.classad(&id).unwrap();
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
        let host = Host::new(HostSpec::e1350_node("node0"));
        host.register_vm(64);
        sys.refresh_dynamic(SimTime::from_secs(70), &host);
        let ad = sys.classad(&id).unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(60.0));
        assert_eq!(ad.get_int("host_free_mb"), Some(1280 - 88));
        assert!(ad.get_f64("host_pressure").unwrap() >= 1.0);
        // A later sample reaches the classad on its next read.
        sys.refresh_dynamic(SimTime::from_secs(80), &host);
        let ad = sys.classad(&id).unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(70.0));
        assert_eq!(ad.get_f64("last_monitor_s"), Some(80.0));
    }

    #[test]
    fn a_sample_writes_only_records_missing_attributes() {
        let mut sys = InfoSystem::new();
        let host = Host::new(HostSpec::e1350_node("node0"));
        for i in 0..3 {
            sys.insert(record(&format!("vm-{i}")));
        }
        sys.refresh_dynamic(SimTime::from_secs(10), &host);
        assert!(sys.unsampled.is_empty());
        running(&mut sys, &VmId("vm-1".into()), SimTime::from_secs(12));
        assert_eq!(
            sys.unsampled.len(),
            1,
            "only the newly running record waits"
        );
        sys.refresh_dynamic(SimTime::from_secs(20), &host);
        // Untouched records still hold the first sample until read.
        let raw = &sys.get(&VmId("vm-0".into())).unwrap().classad;
        assert_eq!(raw.get_f64("last_monitor_s"), Some(10.0));
        let ad = sys.classad(&VmId("vm-0".into())).unwrap();
        assert_eq!(ad.get_f64("last_monitor_s"), Some(20.0));
        assert_eq!(ad.get_f64("uptime_s"), None);
        let ad = sys.classad(&VmId("vm-1".into())).unwrap();
        assert_eq!(ad.get_f64("uptime_s"), Some(8.0));
    }

    /// One plant's information system, driven by the monitor the plant
    /// runs (`lazy`) and by the eager oracle.
    struct Twin {
        lazy: InfoSystem,
        eager: InfoSystem,
        host: Host,
    }

    impl Twin {
        fn new(name: &str) -> Twin {
            Twin {
                lazy: InfoSystem::new(),
                eager: InfoSystem::new(),
                host: Host::new(HostSpec::e1350_node(name)),
            }
        }

        fn each(&mut self, f: impl Fn(&mut InfoSystem)) {
            f(&mut self.lazy);
            f(&mut self.eager);
        }

        fn sample(&mut self, now: SimTime) {
            self.lazy.refresh_dynamic(now, &self.host);
            self.eager.refresh_eager(now, &self.host);
        }

        /// Move `id` to `next` (through `start_running` when it enters
        /// `Running` from `Configuring`). The oracle writes `state` into
        /// its classad at the step, as every step did before the state
        /// was written on read.
        fn step(&mut self, id: &VmId, next: &VmState, now: SimTime) {
            let configuring = self.lazy.get(id).unwrap().state == VmState::Configuring;
            self.each(|sys| {
                if configuring && *next == VmState::Running {
                    sys.start_running(id, now).unwrap();
                } else {
                    sys.get_mut(id).unwrap().transition(next.clone());
                }
            });
            write_state_eagerly(self.eager.get_mut(id).unwrap());
        }

        /// Compare what a client would read: the lazy system through its
        /// accessor, the oracle's classad as the eager pass left it.
        fn check(&mut self, id: &VmId, ctx: &str) {
            let lazy = self.lazy.classad(id).expect("lazy record");
            let eager = self.eager.get(id).expect("eager record").classad.clone();
            assert_eq!(lazy.to_string(), eager.to_string(), "{ctx}");
            assert_eq!(lazy, eager, "{ctx}");
        }
    }

    #[test]
    fn lazy_monitor_matches_the_eager_oracle() {
        const ATTRS: [&str; 5] = ["clone_s", "config_s", "note", "ip_address", "Note"];
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut plants = [Twin::new("node0"), Twin::new("node1")];
            // Live VMs: (id, plant index).
            let mut live: Vec<(VmId, usize)> = Vec::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0;
            for step in 0..600 {
                // Zero steps make samples at the same instant.
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
                        plants[p].each(|sys| sys.insert(r.clone()));
                        plants[p].host.register_vm(32);
                        live.push((id, p));
                    }
                    2 => {
                        if let Some((id, p)) = pick {
                            let name = ATTRS[rng.index(ATTRS.len())];
                            let value = rng.uniform(0.0, 100.0);
                            plants[p].each(|sys| sys.get_mut(&id).unwrap().set_value(name, value));
                        }
                    }
                    3 => {
                        if let Some((id, p)) = pick {
                            let state = plants[p].lazy.get(&id).unwrap().state.clone();
                            let next = successors(&state);
                            if !next.is_empty() {
                                let next = &next[rng.index(next.len())];
                                plants[p].step(&id, next, now);
                            }
                        }
                    }
                    4 | 5 => {
                        let p = rng.index(2);
                        if rng.chance(0.3) && plants[p].host.vm_count() > 0 {
                            plants[p].host.unregister_vm(32);
                        } else if rng.chance(0.3) {
                            plants[p].host.register_vm(32);
                        }
                        plants[p].sample(now);
                    }
                    6 => {
                        if let Some((id, p)) = pick {
                            plants[p].check(&id, &ctx);
                        }
                    }
                    7 => {
                        if let Some((id, p)) = pick {
                            plants[p].each(|sys| {
                                sys.remove(&id).unwrap();
                            });
                            live.retain(|(v, _)| *v != id);
                        }
                    }
                    _ => {
                        // Migration hand-over of a running VM: the source
                        // brings the record up to date and removes it; the
                        // target keeps the carried values until its own
                        // next sample.
                        let Some((id, p)) = pick else { continue };
                        if plants[p].lazy.get(&id).unwrap().state != VmState::Running {
                            continue;
                        }
                        let q = 1 - p;
                        plants[p].step(&id, &VmState::Migrating, now);
                        let mut lazy = plants[p].lazy.hand_over(&id).unwrap();
                        let mut eager = plants[p].eager.remove(&id).unwrap();
                        for r in [&mut lazy, &mut eager] {
                            r.set_value("plant", format!("node{q}"));
                            r.set_value("migrated_from", format!("node{p}"));
                            r.transition(VmState::Running);
                        }
                        write_state_eagerly(&mut eager);
                        plants[q].lazy.insert(lazy);
                        plants[q].eager.insert(eager);
                        plants[q].check(&id, &ctx);
                        for entry in live.iter_mut().filter(|(v, _)| *v == id) {
                            entry.1 = q;
                        }
                    }
                }
            }
            for (id, p) in live {
                plants[p].check(&id, &format!("seed {seed} final"));
            }
        }
    }

    /// What every lifecycle step did before `state` was written on read.
    fn write_state_eagerly(record: &mut VmRecord) {
        record.classad.set_value("state", record.state.to_string());
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
            // Between steps: nothing, a monitor sample, a read, or both.
            for schedule in 0..4u32 {
                let mut twin = Twin::new("node0");
                let id = VmId("vm-0".into());
                let mut r = record(&id.0);
                r.set_value("vmid", id.0.clone());
                twin.each(|sys| sys.insert(r.clone()));
                twin.host.register_vm(32);
                let mut now = SimTime::ZERO;
                for (step, next) in path.iter().enumerate() {
                    now += SimDuration::from_secs(10);
                    twin.step(&id, next, now);
                    if schedule & 1 != 0 {
                        twin.sample(now);
                    }
                    if schedule & 2 != 0 {
                        twin.check(&id, &format!("{path:?} schedule {schedule} step {step}"));
                    }
                }
                twin.sample(now + SimDuration::from_secs(10));
                twin.check(&id, &format!("{path:?} schedule {schedule} end"));
            }
        }
    }
}
