//! # vmplants-simkit — discrete-event simulation kernel
//!
//! A small, deterministic discrete-event simulation (DES) kernel used by the
//! VMPlants reproduction to model the physical substrate the SC 2004 paper
//! ran on (an 8-node cluster, an NFS file server, Ethernet links, hosted
//! virtual machine monitors).
//!
//! The kernel is single-threaded and fully deterministic for a given RNG
//! seed, which is what makes the figure-regeneration harnesses in
//! `vmplants-bench` reproducible. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a millisecond-resolution virtual clock.
//! * [`Engine`] — the event loop: schedule closures at future virtual times,
//!   cancel them, and run until quiescence or a horizon.
//! * [`resource::FairShare`] — a processor-sharing resource (used for
//!   bandwidth-shared network links and disk arms): concurrent jobs each
//!   receive `capacity / n` service, and completions are re-predicted
//!   whenever membership changes.
//! * [`resource::Gate`] — a counted resource (semaphore) with a FIFO wait
//!   queue, used for bounded concurrency (e.g. NFS server request slots).
//! * [`rng::SimRng`] — a seeded RNG with the handful of distributions the
//!   timing models need (uniform, normal, lognormal, exponential).
//! * [`fault::FaultPlan`] / [`fault::FaultInjector`] — deterministic fault
//!   injection: declarative scenarios (host crash/reboot, NFS outage and
//!   degradation, message loss) materialized into a fixed, seeded event
//!   list before the run, so chaos experiments replay byte-for-byte.
//! * [`transport::Transport`] — a seeded unreliable message fabric
//!   (per-hop delay, loss, duplication, reordering, asymmetric
//!   partition) whose send-time decisions are traced for byte-identical
//!   replay.
//! * [`stats`] — online summaries, fixed-bin histograms and labelled series
//!   matching the way the paper reports its results (normalized frequency
//!   of occurrence per bin; per-sequence-number series).
//! * [`obs`] — deterministic observability: sim-time span/event tracing
//!   with JSONL and Chrome `trace_event` exporters, a unified metrics
//!   registry (counters, gauges, fixed-bucket histograms), and a
//!   critical-path analyzer whose phase durations sum exactly to a span's
//!   end-to-end latency.
//!
//! ## Example
//!
//! ```
//! use vmplants_simkit::{Engine, SimDuration};
//! use std::rc::Rc;
//! use std::cell::Cell;
//!
//! let mut engine = Engine::new();
//! let hits = Rc::new(Cell::new(0u32));
//! for i in 0..4 {
//!     let hits = Rc::clone(&hits);
//!     engine.schedule(SimDuration::from_secs(i), move |_| {
//!         hits.set(hits.get() + 1);
//!     });
//! }
//! engine.run();
//! assert_eq!(hits.get(), 4);
//! assert_eq!(engine.now().as_secs_f64(), 3.0);
//! ```

pub mod engine;
pub mod fault;
pub mod obs;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod transport;

pub use engine::{Engine, EventId};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanError, FaultRule};
pub use obs::{
    Counter, CriticalPath, FlightRecorder, FlightSpan, FlightTrace, Gauge, HistogramMetric, Obs,
    SamplerConfig, SamplerStats, SpanId, TrackId,
};
pub use rng::SimRng;
pub use stats::{SketchMetric, WindowSeries, SKETCH_ALPHA};
pub use time::{SimDuration, SimTime};
pub use transport::{LinkTuning, TraceLabel, Transport, TransportStats};
