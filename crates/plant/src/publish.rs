//! Publishing a configured VM back to the warehouse (§3.2).
//!
//! "The VM Warehouse stores 'golden' images of not only pre-built images
//! … but also images that are set up and customized for an application by
//! providing VM installers with the capability of publishing a VM image
//! to the Warehouse, for subsequent instantiations through VMPlant."
//!
//! The flow: suspend the running VM (writing its memory state), upload
//! its mutable state over the NFS pipe, register the new golden image —
//! carrying the VM's full performed-action log, so future DAG matching
//! sees exactly what the image contains — then resume the VM.

use vmplants_simkit::Engine;
use vmplants_virt::image::{BASE_REDO_BYTES, CONFIG_BYTES};
use vmplants_virt::VmState;
use vmplants_warehouse::{GoldenId, PublishError};

use crate::daemon::Plant;
use crate::order::{PlantError, VmId};

/// Completion callback for a publish operation.
pub type DoneGolden = Box<dyn FnOnce(&mut Engine, Result<GoldenId, PlantError>)>;

/// Errors specific to publishing, folded into [`PlantError::Network`]-style
/// strings would lose structure; extend [`PlantError`] instead via
/// `InvalidOrder` for precondition failures and a dedicated conversion for
/// warehouse rejections.
impl From<PublishError> for PlantError {
    fn from(e: PublishError) -> Self {
        PlantError::InvalidOrder(e.to_string())
    }
}

impl Plant {
    /// Publish the current state of a running VM as a new golden image.
    ///
    /// On success the VM is running again and the warehouse holds a new
    /// image whose performed log equals the VM's full configuration
    /// history — so the three matching tests treat it exactly as
    /// configured.
    pub fn publish_vm(
        &self,
        engine: &mut Engine,
        id: &VmId,
        golden_id: impl Into<String>,
        golden_name: impl Into<String>,
        done: DoneGolden,
    ) {
        let id = id.clone();
        let golden_id = GoldenId(golden_id.into());
        let golden_name = golden_name.into();

        // Phase 1: validate and suspend.
        let (suspend, upload_bytes, nfs, spec) = {
            let mut state = self.inner.borrow_mut();
            if !state.alive {
                return fail(engine, done, PlantError::PlantDown);
            }
            // Reject duplicates *before* suspending the VM.
            if state.warehouse.borrow().get(&golden_id).is_some() {
                return fail(
                    engine,
                    done,
                    PublishError::DuplicateId(golden_id).into(),
                );
            }
            let host = state.host.clone();
            let spec = match state.info.get(&id) {
                Some(r) => match r.refusal("publish") {
                    Some(err) => return fail(engine, done, err),
                    None => r.spec.clone(),
                },
                None => return fail(engine, done, PlantError::UnknownVm(id)),
            };
            state
                .info
                .get_mut(&id)
                .expect("checked above")
                .transition(VmState::Publishing);
            let pressure = host.pressure_factor();
            let suspend = state
                .timing
                .sample_suspend(&mut state.rng.borrow_mut(), spec.memory_mb, pressure);
            let upload_bytes = spec.memory_mb * 1024 * 1024 + BASE_REDO_BYTES + CONFIG_BYTES;
            (suspend, upload_bytes, state.nfs.clone(), spec)
        };

        let plant = self.clone();
        engine.schedule(suspend, move |engine| {
            // Phase 2: upload the mutable state over the warehouse pipe.
            let pipe = nfs.pipe.clone();
            let plant2 = plant.clone();
            pipe.submit(engine, upload_bytes as f64, move |engine| {
                // Phase 3: register the image and resume the VM.
                let result = {
                    let state = plant2.inner.borrow();
                    let performed = match state.info.get(&id) {
                        Some(r) => r.performed.clone(),
                        None => {
                            drop(state);
                            return done(engine, Err(PlantError::UnknownVm(id)));
                        }
                    };
                    drop(state);
                    let state = plant2.inner.borrow();
                    let res = state.warehouse.borrow_mut().publish(
                        &state.nfs,
                        golden_id.0.clone(),
                        golden_name.clone(),
                        spec.clone(),
                        performed,
                    )
                    .map(|img| img.id.clone())
                    .map_err(PlantError::from);
                    res
                };
                let resume = {
                    let state = plant2.inner.borrow();
                    let pressure = state.host.pressure_factor();
                    let mut rng = state.rng.borrow_mut();
                    let resume =
                        state
                            .timing
                            .sample_resume(&mut rng, spec.memory_mb, pressure);
                    drop(rng);
                    resume
                };
                engine.schedule(resume, move |engine| {
                    {
                        let mut state = plant2.inner.borrow_mut();
                        if let Some(record) = state.info.get_mut(&id) {
                            record.transition(VmState::Running);
                            if let Ok(gid) = &result {
                                record.set_value("published_as", gid.0.clone());
                            }
                        }
                    }
                    done(engine, result);
                });
            });
        });
    }
}

fn fail(engine: &mut Engine, done: DoneGolden, err: PlantError) {
    engine.schedule(vmplants_simkit::SimDuration::ZERO, move |engine| {
        done(engine, Err(err))
    });
}
