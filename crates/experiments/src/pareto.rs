//! Budget/disparity Pareto sweep of the global buffer-plan optimizer.
//!
//! A fig6-style companion to the paper's §IV optimization story: for a
//! fixed population of seeded fusion workloads, sweep the total slot
//! budget handed to [`disparity_opt`] and report, per budget point, the
//! mean total disparity bound before/after the plan, the buffer memory
//! the plans actually consumed, and the optimizer's search-effort
//! accounting (delta-scored vs cold-scored states). The resulting table
//! is the Pareto frontier of bound reduction versus buffer bytes.
//!
//! Every budget point optimizes the *same* systems (seeds derive from
//! the attempt index alone, never the budget), so points are comparable
//! and the sweep is deterministic for any worker count.

use disparity_core::delta::AnalyzedSystem;
use disparity_core::disparity::AnalysisConfig;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::spec::SystemSpec;
use disparity_opt::{optimize_analyzed, BackendChoice, BufferBudget, GlobalPlan, PlanRequest};
use disparity_rng::SplitMix64;
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};

use crate::par::{attempt_seed, run_indexed};
use crate::stats::mean;
use crate::table::{fmt_ms, fmt_pct, Table};

/// Parameters of the Pareto sweep.
#[derive(Debug, Clone)]
pub struct ParetoConfig {
    /// Slot budgets to sweep (the X axis). Zero belongs in the list: it
    /// anchors the frontier at the unoptimized system.
    pub budgets: Vec<usize>,
    /// Fusion workloads optimized per budget point.
    pub systems: usize,
    /// Per-sample payload size used to convert slots into bytes.
    pub bytes_per_sample: usize,
    /// Base RNG seed (also the plan seed handed to the optimizer).
    pub seed: u64,
    /// Search backend for every point.
    pub backend: BackendChoice,
    /// Admit plans that introduce new D007 (over-buffered) findings.
    ///
    /// Defaults to `true`, unlike the service's `optimize` op: a funnel
    /// source channel feeds every pair its branch participates in, so a
    /// shift aligning one pair's windows almost always overshoots some
    /// other pair's, and with the guard on the optimizer refuses nearly
    /// every assignment. The sweep measures the unconstrained
    /// bound-vs-memory frontier; cleanliness is an admission concern.
    pub allow_overbuffering: bool,
}

impl Default for ParetoConfig {
    fn default() -> Self {
        ParetoConfig {
            budgets: vec![0, 1, 2, 4, 8],
            systems: 5,
            bytes_per_sample: 64,
            seed: 0x9A7E70,
            backend: BackendChoice::Auto,
            allow_overbuffering: true,
        }
    }
}

/// One aggregated budget point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct ParetoRow {
    /// The slot budget offered to the optimizer.
    pub budget_slots: usize,
    /// Mean extra slots the returned plans actually consumed.
    pub mean_slots_used: f64,
    /// [`Self::mean_slots_used`] in bytes at the configured payload size.
    pub mean_buffer_bytes: f64,
    /// Mean total disparity bound across fusion tasks, before (ms).
    pub base_total_ms: f64,
    /// Mean total disparity bound with the plan applied (ms).
    pub opt_total_ms: f64,
    /// `(base − opt)/base`, `None` when the base total is zero.
    pub reduction: Option<f64>,
    /// Search states scored through the incremental engine, summed.
    pub delta_scored: u64,
    /// Search states scored through the cold pipeline, summed.
    pub cold_scored: u64,
    /// Systems that contributed to the point.
    pub systems: usize,
}

impl ParetoRow {
    /// Whether the point's attempt budget exhausted without producing a
    /// single analyzable system.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.systems == 0
    }
}

/// Runs the sweep: one thread per budget point, systems seeded from the
/// attempt index alone so every point optimizes the same population.
#[must_use]
pub fn run(config: &ParetoConfig) -> Vec<ParetoRow> {
    let points = config.budgets.len();
    run_indexed(points, points, |point| {
        sweep_point(config, config.budgets[point])
    })
}

/// One optimized system's contribution to a point.
struct Sample {
    base_total_ms: f64,
    opt_total_ms: f64,
    slots_used: usize,
    delta_scored: u64,
    cold_scored: u64,
}

fn sweep_point(config: &ParetoConfig, budget: usize) -> ParetoRow {
    let mut span = disparity_obs::span("pareto.point");
    span.attr("budget_slots", budget);
    let attempts_budget = config.systems * 20;
    let mut samples: Vec<Sample> = Vec::with_capacity(config.systems);
    let mut attempt = 0usize;
    while samples.len() < config.systems && attempt < attempts_budget {
        // Seeds never involve the budget: every point sees the same
        // system population, so the frontier's points are comparable.
        if let Some(s) = sweep_attempt(config, budget, attempt) {
            samples.push(s);
        }
        attempt += 1;
    }
    span.attr("systems", samples.len());
    span.attr("attempts", attempt);
    if samples.is_empty() {
        disparity_obs::counter_add("pareto.point_exhausted", 1);
        return ParetoRow {
            budget_slots: budget,
            mean_slots_used: 0.0,
            mean_buffer_bytes: 0.0,
            base_total_ms: 0.0,
            opt_total_ms: 0.0,
            reduction: None,
            delta_scored: 0,
            cold_scored: 0,
            systems: 0,
        };
    }
    let collect = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let base_total_ms = mean(&collect(|s| s.base_total_ms)).unwrap_or(0.0);
    let opt_total_ms = mean(&collect(|s| s.opt_total_ms)).unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let mean_slots_used = mean(&collect(|s| s.slots_used as f64)).unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let mean_buffer_bytes = mean_slots_used * config.bytes_per_sample as f64;
    ParetoRow {
        budget_slots: budget,
        mean_slots_used,
        mean_buffer_bytes,
        base_total_ms,
        opt_total_ms,
        reduction: if base_total_ms > 0.0 {
            Some((base_total_ms - opt_total_ms) / base_total_ms)
        } else {
            None
        },
        delta_scored: samples.iter().map(|s| s.delta_scored).sum(),
        cold_scored: samples.iter().map(|s| s.cold_scored).sum(),
        systems: samples.len(),
    }
}

/// Generate, analyze and optimize one seeded fusion workload.
fn sweep_attempt(config: &ParetoConfig, budget: usize, attempt: usize) -> Option<Sample> {
    let mut rng = SplitMix64::new(attempt_seed(config.seed, 0, attempt));
    let graph = schedulable_funnel_system(&FunnelConfig::default(), &mut rng, 64).ok()?;
    let plan = optimize_graph(&graph, budget, config).ok()??;
    let base_total: i128 = plan
        .predictions
        .iter()
        .map(|p| i128::from(p.before.as_nanos()))
        .sum();
    let opt_total: i128 = plan
        .predictions
        .iter()
        .map(|p| i128::from(p.after.as_nanos()))
        .sum();
    #[allow(clippy::cast_precision_loss)]
    Some(Sample {
        base_total_ms: base_total as f64 / 1e6,
        opt_total_ms: opt_total as f64 / 1e6,
        slots_used: plan.slots_used,
        delta_scored: plan.stats.delta_scored,
        cold_scored: plan.stats.cold_scored,
    })
}

/// Optimizes one graph; `Ok(None)` when the base system is outside the
/// analyzable class (it then proves nothing about the frontier).
fn optimize_graph(
    graph: &CauseEffectGraph,
    budget: usize,
    config: &ParetoConfig,
) -> Result<Option<GlobalPlan>, disparity_opt::OptError> {
    let spec = SystemSpec::from_graph(graph);
    let Ok(base) = AnalyzedSystem::analyze(&spec, AnalysisConfig::default()) else {
        return Ok(None);
    };
    let mut request = PlanRequest::with_budget(BufferBudget::slots(budget));
    request.seed = config.seed;
    request.forbid_new_findings = !config.allow_overbuffering;
    optimize_analyzed(&base, &request, config.backend).map(Some)
}

/// Renders the frontier. Empty points (attempt budget exhausted) are
/// skipped.
#[must_use]
pub fn table(rows: &[ParetoRow]) -> Table {
    let mut t = Table::new([
        "budget_slots",
        "slots_used",
        "buffer_bytes",
        "base_total_ms",
        "opt_total_ms",
        "reduction",
        "delta_scored",
        "cold_scored",
        "systems",
    ]);
    for r in rows.iter().filter(|r| !r.is_empty()) {
        t.push_row([
            r.budget_slots.to_string(),
            format!("{:.2}", r.mean_slots_used),
            format!("{:.0}", r.mean_buffer_bytes),
            fmt_ms(r.base_total_ms),
            fmt_ms(r.opt_total_ms),
            fmt_pct(r.reduction),
            r.delta_scored.to_string(),
            r.cold_scored.to_string(),
            r.systems.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ParetoConfig {
        ParetoConfig {
            budgets: vec![0, 3],
            systems: 2,
            ..Default::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let cfg = quick_config();
        let a = run(&cfg);
        let b = run(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.budget_slots, y.budget_slots);
            assert_eq!(x.base_total_ms, y.base_total_ms);
            assert_eq!(x.opt_total_ms, y.opt_total_ms);
            assert_eq!(x.mean_slots_used, y.mean_slots_used);
        }
    }

    #[test]
    fn frontier_anchors_at_zero_and_never_regresses() {
        let rows = run(&quick_config());
        assert_eq!(rows.len(), 2);
        let zero = &rows[0];
        let budgeted = &rows[1];
        assert!(zero.systems > 0 && budgeted.systems > 0);
        // Both points optimized the same population.
        assert_eq!(zero.base_total_ms, budgeted.base_total_ms);
        // Budget 0 is the unoptimized anchor ...
        assert_eq!(zero.mean_slots_used, 0.0);
        assert_eq!(zero.opt_total_ms, zero.base_total_ms);
        // ... and more budget never worsens the total bound.
        assert!(budgeted.opt_total_ms <= zero.opt_total_ms + 1e-9);
        assert!(budgeted.opt_total_ms <= budgeted.base_total_ms + 1e-9);
    }
}
