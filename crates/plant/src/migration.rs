//! Migration of active VMs across plants — §6 lists it as the natural next
//! mechanism ("migration of active VMs across plants"), and the cloning
//! substrate already provides everything needed: suspend, state transfer,
//! link re-creation against the shared warehouse, resume.
//!
//! The moved VM keeps its identity: VMID, client-domain IP and MAC, classad
//! history, and performed-action log all travel with it. Only the
//! plant-local resources change hands — host memory, clone files, and the
//! host-only network attachment (re-leased on the target under the same
//! domain, preserving the §3.3 exclusivity invariant).

use std::rc::Rc;

use vmplants_simkit::resource::FairShare;
use vmplants_simkit::{Engine, SimDuration};
use vmplants_virt::image::{BASE_REDO_BYTES, CONFIG_BYTES};
use vmplants_virt::VmState;
use vmplants_vnet::NetworkLease;

use crate::daemon::{DoneAd, Plant};
use crate::order::{PlantError, VmId};

/// Inter-node (GbE) transfer bandwidth used when no explicit LAN resource
/// is supplied: the e1350's gigabit switch, ~110 MB/s effective.
const DEFAULT_LAN_BW: f64 = 110.0 * 1024.0 * 1024.0;

/// Move a running VM from `source` to `target`.
///
/// `lan` optionally names a shared fair-share LAN resource so concurrent
/// migrations contend realistically; without it, a dedicated-GbE transfer
/// time is used.
pub fn migrate(
    engine: &mut Engine,
    source: &Plant,
    target: &Plant,
    id: &VmId,
    lan: Option<FairShare>,
    done: DoneAd,
) {
    let id = id.clone();
    // Phase 1: validate on both ends and suspend at the source.
    if !source.is_alive() || !target.is_alive() {
        return fail(engine, done, PlantError::PlantDown);
    }
    if source.name() == target.name() {
        return fail(
            engine,
            done,
            PlantError::InvalidOrder("source and target plant are the same".into()),
        );
    }
    let (suspend, transfer_bytes, spec, domain) = {
        let mut state = source.inner.borrow_mut();
        let (spec, domain) = match state.info.get(&id) {
            None => {
                drop(state);
                return fail(engine, done, PlantError::UnknownVm(id));
            }
            Some(r) => match r.refusal("migrate") {
                Some(err) => {
                    drop(state);
                    return fail(engine, done, err);
                }
                None => (
                    r.spec.clone(),
                    r.get_str("client_domain").unwrap_or_default(),
                ),
            },
        };
        let host = state.host.clone();
        let pressure = host.pressure_factor();
        let suspend = state
            .timing
            .sample_suspend(&mut state.rng.borrow_mut(), spec.memory_mb, pressure);
        state
            .info
            .get_mut(&id)
            .expect("checked above")
            .transition(VmState::Migrating);
        let transfer_bytes = spec.memory_mb * 1024 * 1024 + BASE_REDO_BYTES + CONFIG_BYTES;
        (suspend, transfer_bytes, spec, domain)
    };

    // The target leases its network attachment up front, so a full pool
    // rejects the migration before the VM is disturbed further.
    let lease = {
        let mut tstate = target.inner.borrow_mut();
        let (network, fresh) = match tstate.pool.attach(&domain) {
            Ok(x) => x,
            Err(e) => {
                drop(tstate);
                // Roll the source back to Running.
                let mut sstate = source.inner.borrow_mut();
                if let Some(r) = sstate.info.get_mut(&id) {
                    r.transition(VmState::Running);
                }
                drop(sstate);
                return fail(engine, done, PlantError::NetworkExhausted(e));
            }
        };
        let old_lease = {
            let sstate = source.inner.borrow();
            sstate.info.get(&id).and_then(|r| r.lease.clone())
        };
        let Some(old_lease) = old_lease else {
            // Record gone or lease-less (a crash can drain either): undo
            // the target attachment and roll the source back.
            let _ = tstate.pool.detach(network);
            drop(tstate);
            let mut sstate = source.inner.borrow_mut();
            if let Some(r) = sstate.info.get_mut(&id) {
                r.transition(VmState::Running);
            }
            drop(sstate);
            return fail(engine, done, PlantError::PlantDown);
        };
        let proxy = vmplants_vnet::ProxyEndpoint::new(
            domain.clone(),
            format!("proxy.{domain}"),
            9300,
        );
        if fresh {
            let reach = vmplants_vnet::bridge::Reachability::Direct {
                port: tstate.config.vnet_port,
            };
            if let Err(e) = tstate.bridge.connect(network, &domain, proxy, reach) {
                let _ = tstate.pool.detach(network);
                drop(tstate);
                let mut sstate = source.inner.borrow_mut();
                if let Some(r) = sstate.info.get_mut(&id) {
                    r.transition(VmState::Running);
                }
                drop(sstate);
                return fail(engine, done, PlantError::Network(e.to_string()));
            }
        }
        NetworkLease {
            plant: tstate.config.name.clone(),
            network,
            fresh_network: fresh,
            // The VM keeps its addresses.
            ip: old_lease.ip,
            mac: old_lease.mac,
        }
    };

    let source = source.clone();
    let target = target.clone();
    let source_epoch = source.inner.borrow().epoch;
    engine.schedule(suspend, move |engine| {
        // Phase 2: transfer the mutable state node-to-node.
        let after_transfer = move |engine: &mut Engine| {
            finish_migration(engine, &source, &target, id, spec, lease, source_epoch, done);
        };
        match lan {
            Some(lan) => {
                lan.submit(engine, transfer_bytes as f64, after_transfer);
            }
            None => {
                let d = SimDuration::from_secs_f64(transfer_bytes as f64 / DEFAULT_LAN_BW);
                engine.schedule(d, after_transfer);
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn finish_migration(
    engine: &mut Engine,
    source: &Plant,
    target: &Plant,
    id: VmId,
    spec: vmplants_virt::VmSpec,
    lease: NetworkLease,
    source_epoch: u64,
    done: DoneAd,
) {
    // A source crash during suspend/transfer already reclaimed the VM; a
    // dead target cannot receive it. Roll back what survives and report
    // the plant down instead of panicking on the vanished record.
    let source_crashed = source.inner.borrow().epoch != source_epoch;
    if source_crashed || !target.is_alive() {
        {
            let mut tstate = target.inner.borrow_mut();
            if tstate.pool.detach(lease.network) == Ok(true) {
                let _ = tstate.bridge.disconnect(lease.network);
            }
        }
        if !source_crashed {
            // Target died mid-transfer: the VM is still intact at the
            // source; resume it there.
            let mut sstate = source.inner.borrow_mut();
            if let Some(r) = sstate.info.get_mut(&id) {
                r.transition(VmState::Running);
            }
        }
        return fail(engine, done, PlantError::PlantDown);
    }

    // Phase 3: take the record out of the source, release source
    // resources.
    let taken = {
        let mut sstate = source.inner.borrow_mut();
        let record = sstate.info.hand_over(&id);
        if let Some(record) = &record {
            sstate.host.unregister_vm(spec.memory_mb);
            sstate
                .host
                .disk
                .remove_tree(&format!("{}/", record.clone_dir));
            if let Some(old) = &record.lease {
                if sstate.pool.detach(old.network) == Ok(true) {
                    let _ = sstate.bridge.disconnect(old.network);
                }
            }
            // The domain-level IP is NOT released: it moves with the VM.
        }
        record
    };
    let Some(mut record) = taken else {
        let mut tstate = target.inner.borrow_mut();
        if tstate.pool.detach(lease.network) == Ok(true) {
            let _ = tstate.bridge.disconnect(lease.network);
        }
        drop(tstate);
        return fail(engine, done, PlantError::UnknownVm(id));
    };

    // Phase 4: materialize on the target — links against the shared
    // warehouse golden, state files, registration — and resume.
    let resume = {
        let tstate = target.inner.borrow_mut();
        tstate.host.register_vm(spec.memory_mb);
        let clone_dir = format!("/clones/{}", record.id.0);
        let image = tstate
            .warehouse
            .borrow()
            .get(&record.golden)
            .map(|g| Rc::clone(&g.files));
        if let Some(image) = image {
            for (link, dst) in image.link_set(&clone_dir) {
                tstate.host.disk.link(link, dst);
            }
        }
        let _ = tstate.host.disk.put(
            format!("{clone_dir}/machine.vmx"),
            CONFIG_BYTES,
            vmplants_cluster::files::FileKind::VmConfig,
        );
        let _ = tstate.host.disk.put(
            format!("{clone_dir}/migrated.vmss"),
            spec.memory_mb * 1024 * 1024,
            vmplants_cluster::files::FileKind::MemoryState,
        );
        let _ = tstate.host.disk.put(
            format!("{clone_dir}/base.redo"),
            BASE_REDO_BYTES,
            vmplants_cluster::files::FileKind::RedoLog,
        );
        record.clone_dir = clone_dir;
        record.lease = Some(lease.clone());
        record.set_value("plant", tstate.config.name.clone());
        record.set_value("host", tstate.host.name());
        record.set_value("network", lease.network.to_string());
        record.set_value("migrated_from", source.name());
        let pressure = tstate.host.pressure_factor();
        let mut rng = tstate.rng.borrow_mut();
        let resume = tstate
            .timing
            .sample_resume(&mut rng, spec.memory_mb, pressure);
        drop(rng);
        resume
    };
    let target = target.clone();
    let target_epoch = target.inner.borrow().epoch;
    engine.schedule(resume, move |engine| {
        let result = {
            let mut tstate = target.inner.borrow_mut();
            if tstate.epoch != target_epoch {
                // The target crashed during resume: its disk (and the
                // transferred state with it) is gone.
                if tstate.pool.detach(lease.network) == Ok(true) {
                    let _ = tstate.bridge.disconnect(lease.network);
                }
                Err(PlantError::PlantDown)
            } else {
                record.transition(VmState::Running);
                let id = record.id.clone();
                tstate.info.insert(record);
                Ok(tstate.info.classad(&id).expect("record just inserted"))
            }
        };
        done(engine, result);
    });
}

fn fail(engine: &mut Engine, done: DoneAd, err: PlantError) {
    engine.schedule(SimDuration::ZERO, move |engine| done(engine, Err(err)));
}
