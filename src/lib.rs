//! # time-disparity
//!
//! A reproduction of *"Analysis and Optimization of Worst-Case Time
//! Disparity in Cause-Effect Chains"* (DATE 2023) as a Rust workspace.
//!
//! In automotive cause-effect graphs, a fusion task consumes data that
//! originated at several sensors; the **time disparity** of an output is
//! the maximum difference among the timestamps of the raw sensor data it
//! was computed from. This crate re-exports the workspace members:
//!
//! * [`model`] — the system model: tasks `(W, B, T)`, ECUs/buses, FIFO
//!   channels, cause-effect graphs and chains;
//! * [`sched`] — non-preemptive fixed-priority response-time analysis;
//! * [`core`] — the paper's analysis (backward-time bounds, P-diff/S-diff
//!   disparity bounds) and the buffer-size optimization (Algorithm 1);
//! * [`sim`] — a deterministic discrete-event simulator with provenance
//!   tracking (the paper's "Sim" series);
//! * [`workload`] — WATERS-2015-style synthetic workload generation.
//!
//! # Quickstart
//!
//! ```
//! use time_disparity::model::prelude::*;
//! use time_disparity::core::prelude::*;
//!
//! // camera --> preproc --> fuse <-- lidar
//! let mut b = SystemBuilder::new();
//! let ecu = b.add_ecu("ecu0");
//! let ms = Duration::from_millis;
//! let camera = b.add_task(TaskSpec::periodic("camera", ms(33)));
//! let lidar = b.add_task(TaskSpec::periodic("lidar", ms(100)));
//! let pre = b.add_task(TaskSpec::periodic("pre", ms(33)).execution(ms(2), ms(5)).on_ecu(ecu));
//! let fuse = b.add_task(TaskSpec::periodic("fuse", ms(100)).execution(ms(4), ms(9)).on_ecu(ecu));
//! b.connect(camera, pre);
//! b.connect(pre, fuse);
//! b.connect(lidar, fuse);
//! let graph = b.build()?;
//!
//! // Bound the worst-case time disparity of the fusion task …
//! let report = analyze_task(&graph, fuse, AnalysisConfig::default())?;
//! // … and shrink it by sizing a sensor-output buffer (Algorithm 1).
//! let optimized = optimize_task(&graph, fuse, AnalysisConfig::default(), 4)?;
//! assert!(optimized.final_bound() <= report.bound);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/experiments` for the reproduction of every figure in the paper.

#![warn(missing_docs)]

pub use disparity_core as core;
pub use disparity_model as model;
pub use disparity_sched as sched;
pub use disparity_sim as sim;
pub use disparity_workload as workload;
