//! The four workloads, their fixed parameters, and the run scale.

use std::time::Duration;

/// One traffic mix (or, for `sim_sweep`, one in-process job mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `disparity` requests over a pool of distinct `[8,6,4,2,1]` funnel
    /// specs, far larger than the service's 32-entry cache: every request
    /// misses and runs the whole cold pipeline.
    ColdFusion,
    /// An interactive designer: cache-hit re-queries of 8 small seated
    /// bases interleaved with single-field `patch` edits (delta rebase,
    /// derived-entry insert, every fifth patch a memo hit).
    DesignSession,
    /// `optimize` requests on `[16,8,4,4]` multi-sink funnels: search and
    /// delta-scored nodes dominate the server's CPU, and 30–80 KB answers
    /// exercise the write path.
    OptimizePlans,
    /// In-process simulator sweep with sentinel checks; the service does
    /// no work.
    SimSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdFusion,
        Workload::DesignSession,
        Workload::OptimizePlans,
        Workload::SimSweep,
    ];

    /// The name used on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFusion => "cold_fusion",
            Workload::DesignSession => "design_session",
            Workload::OptimizePlans => "optimize_plans",
            Workload::SimSweep => "sim_sweep",
        }
    }

    /// Looks a workload up by [`Self::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate in requests per second, fixed here (never
    /// derived at run time) so every commit is measured at the same
    /// offered load. The rates keep `serve` at 7–30 % of its CPU on a
    /// 2-vCPU host; what caps them is admission control: `serve` answers
    /// `overloaded` once 64 requests queue, which counts as a failure,
    /// and at these rates the queue absorbs a host stall of 64 ms or
    /// more, or a host twice as slow.
    #[must_use]
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::ColdFusion => 800.0,
            Workload::DesignSession => 1000.0,
            Workload::OptimizePlans => 60.0,
            Workload::SimSweep => 0.0,
        }
    }

    /// Whether the workload drives the `serve` binary (all but the sim).
    #[must_use]
    pub fn is_service(self) -> bool {
        self != Workload::SimSweep
    }
}

/// How long a run measures and how large its input pools are.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The measured time of one run (`--seconds`).
    pub seconds: f64,
    /// Tiny pools and a twentieth of the open-loop rate, for smoke tests
    /// (too few samples for the tail percentile).
    pub quick: bool,
}

impl Scale {
    /// Untimed warm-up, open-loop and closed-loop phase lengths of a
    /// service workload: 2 : 12 : 8 of the run's seconds.
    #[must_use]
    pub fn service_phases(self) -> [Duration; 3] {
        [2.0, 12.0, 8.0].map(|share| Duration::from_secs_f64(self.seconds * share / 22.0))
    }

    /// The open-loop arrival rate: the workload's fixed rate, or a
    /// twentieth of it in quick mode (which may run unoptimized).
    #[must_use]
    pub fn open_rate(self, workload: Workload) -> f64 {
        workload.open_rate() / if self.quick { 20.0 } else { 1.0 }
    }

    /// Distinct funnel specs in the `cold_fusion` pool.
    #[must_use]
    pub fn cold_specs(self) -> usize {
        if self.quick {
            48
        } else {
            2048
        }
    }

    /// Fresh single-field edits in the `design_session` pool (over all
    /// eight bases).
    #[must_use]
    pub fn design_edits(self) -> usize {
        if self.quick {
            64
        } else {
            4096
        }
    }

    /// Funnel specs in the `optimize_plans` pool; each is asked for
    /// budgets 1–4, each with its own seeded tie-break seed.
    #[must_use]
    pub fn optimize_specs(self) -> usize {
        if self.quick {
            2
        } else {
            64
        }
    }

    /// Systems in the `sim_sweep` pool (half random n=35, half n=20 with
    /// every channel at capacity 16).
    #[must_use]
    pub fn sim_systems(self) -> usize {
        if self.quick {
            4
        } else {
            1024
        }
    }
}
