//! `e2e`: one end-to-end benchmark for serving, editing, optimizing and
//! simulating, with a per-layer breakdown.
//!
//! The three service workloads spawn the release `serve` binary
//! (`--workers 2`) and drive it over loopback TCP with NDJSON from this
//! one process (at most two threads, two connections, `TCP_NODELAY`, one
//! `write` per request line). The simulator workload runs in-process on
//! one thread. Every answer is compared byte for byte with a local
//! oracle computed before timing starts.
//!
//! A `--trace 1` run replays the same seeded inputs in-process, timing
//! the calls into each layer's public functions from here, and writes a
//! Chrome trace plus a per-layer self-time summary.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read the trace.

#![warn(missing_docs)]

pub mod child;
pub mod client;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod run;
pub mod simsweep;
pub mod stats;
pub mod trace;
pub mod workload;
