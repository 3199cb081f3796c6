//! Non-preemptive fixed-priority schedulability analysis.
//!
//! The DATE 2023 time-disparity paper schedules the tasks of each ECU (and
//! each CAN-like bus) with a **non-preemptive fixed-priority** policy and
//! assumes every task is schedulable (`R(τ) ≤ T(τ)`). This crate provides:
//!
//! * [`wcrt`] — level-i busy-period worst-case response-time analysis,
//!   including the worst-case *start delay* `R − W` that Lemma 4 of the
//!   paper implicitly uses;
//! * [`schedulability`] — per-task `R ≤ T` verdicts;
//! * [`utilization`] — per-ECU load accounting.
//!
//! # Examples
//!
//! ```
//! use disparity_model::prelude::*;
//! use disparity_sched::prelude::*;
//!
//! let mut b = SystemBuilder::new();
//! let ecu = b.add_ecu("ecu0");
//! let ms = Duration::from_millis;
//! let ctrl = b.add_task(TaskSpec::periodic("ctrl", ms(10)).wcet(ms(2)).on_ecu(ecu));
//! let log = b.add_task(TaskSpec::periodic("log", ms(100)).wcet(ms(5)).on_ecu(ecu));
//! let g = b.build()?;
//! let report = analyze(&g)?;
//! assert!(report.all_schedulable());
//! assert_eq!(report.response_times().wcrt(ctrl), ms(7)); // blocked once by log
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod schedulability;
pub mod utilization;
pub mod wcrt;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::error::SchedError;
    pub use crate::schedulability::{analyze, SchedulabilityReport, TaskVerdict};
    pub use crate::utilization::{all_utilizations, ecu_utilization, peak_utilization};
    pub use crate::wcrt::{response_times, ResponseTimes, TaskResponse};
}
