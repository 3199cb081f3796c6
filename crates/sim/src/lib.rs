//! Deterministic discrete-event simulator for cause-effect graphs.
//!
//! Reproduces the run-time behaviour of §II of the DATE 2023 time-disparity
//! paper: periodic tasks with release offsets, per-ECU non-preemptive
//! fixed-priority dispatching, implicit communication (read at start, write
//! at finish), register and FIFO channels, and full provenance tracking so
//! the paper's **Sim** series (observed maximum time disparity) and
//! per-chain backward times can be measured.
//!
//! * [`engine`] — the simulator itself ([`engine::Simulator`]).
//! * [`exec`] — execution-time models (worst/best/uniform/alternating).
//! * [`fault`] — adversarial fault injection (jitter, overruns, token
//!   loss, ECU stalls) with model-preserving/violating classification.
//! * [`token`] — data tokens and provenance (source-stamp intervals).
//! * [`trace`] — recorded job lifecycles and read-links.
//! * [`metrics`] — streamed observations and trace-based reconstruction.
//!
//! # Examples
//!
//! ```
//! use disparity_model::prelude::*;
//! use disparity_sim::prelude::*;
//!
//! let mut b = SystemBuilder::new();
//! let ecu = b.add_ecu("e");
//! let ms = Duration::from_millis;
//! let cam = b.add_task(TaskSpec::periodic("cam", ms(33)));
//! let imu = b.add_task(TaskSpec::periodic("imu", ms(5)));
//! let fuse = b.add_task(TaskSpec::periodic("fuse", ms(33)).execution(ms(2), ms(6)).on_ecu(ecu));
//! b.connect(cam, fuse);
//! b.connect(imu, fuse);
//! let g = b.build()?;
//!
//! let mut sim = Simulator::new(&g, SimConfig { horizon: ms(5_000), ..Default::default() });
//! sim.monitor_chain(Chain::new(&g, vec![cam, fuse])?);
//! let out = sim.run()?;
//! assert!(out.metrics.max_disparity(fuse).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod endtoend;
pub mod engine;
pub mod error;
pub mod exec;
pub mod fault;
pub mod metrics;
pub mod token;
pub mod trace;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::endtoend::{data_age_from_trace, max_data_age, max_reaction_time};
    pub use crate::engine::{CommunicationSemantics, SimConfig, SimOutcome, Simulator};
    pub use crate::error::SimError;
    pub use crate::exec::ExecutionTimeModel;
    pub use crate::fault::{
        ExecFault, FaultPlan, FaultSummary, ReleaseJitter, StallPlan, TokenLoss,
    };
    pub use crate::metrics::{
        backward_extrema_from_trace, backward_time_from_trace, try_backward_extrema_from_trace,
        try_backward_time_from_trace, ChainObservation, DisparityObservation, ObservedMetrics,
    };
    pub use crate::token::{JobRef, SourceStamp, Token};
    pub use crate::trace::{JobRecord, ReadRecord, Trace};
}
