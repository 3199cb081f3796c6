//! Reproduction of Fig. 6(c) and 6(d): the effect of Algorithm 1's buffer
//! design on two merged chains.
//!
//! Protocol (paper §V): two independent chains of `len` tasks each are
//! merged at a single sink; the X axis sweeps `len ∈ [5, 30]`. Compared
//! series:
//!
//! * **S-diff** — Theorem 2 bound on the unbuffered system;
//! * **S-diff-B** — Theorem 3 bound after Algorithm 1's buffer;
//! * **Sim** — observed maximum disparity, unbuffered;
//! * **Sim-B** — observed maximum disparity with the designed buffer
//!   (measured after a warm-up so the FIFO has filled — Lemma 6 holds "in
//!   the long term").
//!
//! Fig. 6(c) plots absolute values, Fig. 6(d) the incremental ratios of
//! each bound against its own simulation.

use disparity_core::buffering::design_buffer;
use disparity_core::pairwise::theorem2_bound;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::Duration;
use disparity_sched::schedulability::analyze;
use disparity_sim::engine::{SimConfig, Simulator};
use disparity_sim::exec::ExecutionTimeModel;
use disparity_workload::chains::schedulable_two_chain_system;
use disparity_workload::offsets::randomize_offsets;
use disparity_rng::rngs::StdRng;
use disparity_rng::Rng as _;

use crate::par::{attempt_seed, attempt_workers, run_indexed};
use crate::stats::{incremental_ratio, mean};
use crate::table::{fmt_ms, fmt_pct, Table};

/// Parameters of the Fig. 6(c)/(d) sweep.
#[derive(Debug, Clone)]
pub struct Fig6cdConfig {
    /// X-axis values (tasks per chain). Paper: `[5, 30]`.
    pub chain_lengths: Vec<usize>,
    /// Systems generated per point.
    pub systems_per_point: usize,
    /// Offset randomizations simulated per system.
    pub offsets_per_system: usize,
    /// Simulated horizon per run.
    pub sim_horizon: Duration,
    /// Number of processor ECUs.
    pub n_ecus: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Fig6cdConfig {
    fn default() -> Self {
        Fig6cdConfig {
            chain_lengths: vec![5, 10, 15, 20, 25, 30],
            systems_per_point: 10,
            offsets_per_system: 10,
            sim_horizon: Duration::from_secs(10),
            n_ecus: 4,
            seed: 0xF16C,
        }
    }
}

/// One aggregated point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6cdRow {
    /// Tasks per chain.
    pub chain_len: usize,
    /// Mean Theorem 2 bound, unbuffered (ms).
    pub s_diff_ms: f64,
    /// Mean Theorem 3 bound with the designed buffer (ms).
    pub s_diff_b_ms: f64,
    /// Mean observed maximum disparity, unbuffered (ms).
    pub sim_ms: f64,
    /// Mean observed maximum disparity, buffered (ms).
    pub sim_b_ms: f64,
    /// `(S-diff − Sim)/Sim`.
    pub ratio_unopt: Option<f64>,
    /// `(S-diff-B − Sim-B)/Sim-B`.
    pub ratio_opt: Option<f64>,
    /// Systems that contributed.
    pub systems: usize,
}

impl Fig6cdRow {
    /// Whether the point's attempt budget exhausted without producing a
    /// single system (see [`Fig6abRow::is_empty`](crate::fig6ab::Fig6abRow::is_empty)).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.systems == 0
    }
}

/// Runs the sweep and returns one row per chain length. Parallelism is
/// two-level — one thread per point, plus a per-system worker pool inside
/// each point with seeds derived per attempt — and stays deterministic for
/// any worker count (results reduce in attempt order).
#[must_use]
pub fn run(config: &Fig6cdConfig) -> Vec<Fig6cdRow> {
    let points = config.chain_lengths.len();
    run_indexed(points, points, |point| {
        sweep_point(config, point, config.chain_lengths[point])
    })
}

fn sweep_point(config: &Fig6cdConfig, point: usize, chain_len: usize) -> Fig6cdRow {
    let mut span = disparity_obs::span("fig6cd.point");
    span.attr("chain_len", chain_len);
    let budget = config.systems_per_point * 20;
    let workers = attempt_workers();
    let mut samples: Vec<Sample> = Vec::with_capacity(config.systems_per_point);
    let mut attempts = 0usize;
    while samples.len() < config.systems_per_point && attempts < budget {
        // Wave size = systems still needed; boundaries depend only on
        // per-attempt outcomes, keeping the row machine-independent.
        let wave = (config.systems_per_point - samples.len()).min(budget - attempts);
        let results = run_indexed(wave, workers, |i| {
            sweep_attempt(config, point, chain_len, attempts + i)
        });
        attempts += wave;
        samples.extend(results.into_iter().flatten());
    }
    span.attr("systems", samples.len());
    span.attr("attempts", attempts);
    if samples.is_empty() {
        disparity_obs::counter_add("fig6cd.point_exhausted", 1);
        return Fig6cdRow {
            chain_len,
            s_diff_ms: 0.0,
            s_diff_b_ms: 0.0,
            sim_ms: 0.0,
            sim_b_ms: 0.0,
            ratio_unopt: None,
            ratio_opt: None,
            systems: 0,
        };
    }
    let collect = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let s_diff_ms = mean(&collect(|s| s.s_ms)).unwrap_or(0.0);
    let s_diff_b_ms = mean(&collect(|s| s.sb_ms)).unwrap_or(0.0);
    let sim_ms = mean(&collect(|s| s.sim_ms)).unwrap_or(0.0);
    let sim_b_ms = mean(&collect(|s| s.sim_b_ms)).unwrap_or(0.0);
    Fig6cdRow {
        chain_len,
        s_diff_ms,
        s_diff_b_ms,
        sim_ms,
        sim_b_ms,
        ratio_unopt: incremental_ratio(s_diff_ms, sim_ms),
        ratio_opt: incremental_ratio(s_diff_b_ms, sim_b_ms),
        systems: samples.len(),
    }
}

/// Regenerates one representative two-chain system per sweep point for
/// the `--deny-lints` diagnostic gate.
///
/// Probes replay the sweep's own `(seed, point, attempt)` derivation on
/// fresh RNGs (see [`crate::fig6ab::probe_graphs`]); running the gate
/// cannot change the sweep's output.
#[must_use]
pub fn probe_graphs(config: &Fig6cdConfig) -> Vec<(String, CauseEffectGraph)> {
    let mut probes = Vec::new();
    for (point, &chain_len) in config.chain_lengths.iter().enumerate() {
        for attempt in 0..config.systems_per_point * 20 {
            let mut rng = StdRng::seed_from_u64(attempt_seed(config.seed, point, attempt));
            if let Ok(sys) = schedulable_two_chain_system(chain_len, config.n_ecus, &mut rng, 50) {
                probes.push((format!("fig6cd-len{chain_len}"), sys.graph));
                break;
            }
        }
    }
    probes
}

/// One attempt's measurements.
struct Sample {
    s_ms: f64,
    sb_ms: f64,
    sim_ms: f64,
    sim_b_ms: f64,
}

/// One attempt: generate, analyze, buffer-design and simulate a single
/// two-chain system with an RNG seeded from the attempt index alone.
fn sweep_attempt(
    config: &Fig6cdConfig,
    point: usize,
    chain_len: usize,
    attempt: usize,
) -> Option<Sample> {
    let mut rng = StdRng::seed_from_u64(attempt_seed(config.seed, point, attempt));
    let generated = {
        let _span = disparity_obs::span!("fig6cd.generate", chain_len = chain_len);
        schedulable_two_chain_system(chain_len, config.n_ecus, &mut rng, 50)
    };
    let sys = generated.ok()?;
    let _analyze_span = disparity_obs::span!("fig6cd.analyze", chain_len = chain_len);
    let report = analyze(&sys.graph).ok()?;
    let rt = report.into_response_times();
    let s_diff = theorem2_bound(&sys.graph, &sys.lambda, &sys.nu, &rt).ok()?;
    let plan = design_buffer(&sys.graph, &sys.lambda, &sys.nu, &rt).ok()?;
    drop(_analyze_span);
    let mut buffered = sys.graph.clone();
    plan.apply(&mut buffered).ok()?;
    // Warm-up long enough for the FIFO to fill plus slack.
    let warmup = (plan.shift * 2 + Duration::from_millis(400)).min(config.sim_horizon / 2);
    let sink = sys.sink();
    let _simulate_span = disparity_obs::span!("fig6cd.simulate", chain_len = chain_len);
    let sim = simulate_max(
        &sys.graph,
        sink,
        config.offsets_per_system,
        config.sim_horizon,
        warmup,
        &mut rng,
    );
    let sim_b = simulate_max(
        &buffered,
        sink,
        config.offsets_per_system,
        config.sim_horizon,
        warmup,
        &mut rng,
    );
    drop(_simulate_span);
    Some(Sample {
        s_ms: s_diff.as_millis_f64(),
        sb_ms: plan.bound_after.as_millis_f64(),
        sim_ms: sim,
        sim_b_ms: sim_b,
    })
}

fn simulate_max(
    graph: &CauseEffectGraph,
    sink: TaskId,
    runs: usize,
    horizon: Duration,
    warmup: Duration,
    rng: &mut StdRng,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..runs {
        let instance = randomize_offsets(graph, rng);
        let sim = Simulator::new(
            &instance,
            SimConfig {
                horizon,
                exec_model: ExecutionTimeModel::Uniform,
                seed: rng.gen(),
                warmup,
                record_trace: false,
                semantics: disparity_sim::engine::CommunicationSemantics::Implicit,
                fault: disparity_sim::fault::FaultPlan::none(),
            },
        );
        let Ok(outcome) = sim.run() else {
            disparity_obs::counter_add("fig6cd.sim_rejected", 1);
            continue;
        };
        if let Some(d) = outcome.metrics.max_disparity(sink) {
            best = best.max(d.as_millis_f64());
        }
    }
    best
}

/// Renders the Fig. 6(c) view (absolute values). Empty rows (points whose
/// attempt budget exhausted) are skipped.
#[must_use]
pub fn table_c(rows: &[Fig6cdRow]) -> Table {
    let mut t = Table::new([
        "chain_len",
        "S-diff_ms",
        "S-diff-B_ms",
        "Sim_ms",
        "Sim-B_ms",
        "systems",
    ]);
    for r in rows.iter().filter(|r| !r.is_empty()) {
        t.push_row([
            r.chain_len.to_string(),
            fmt_ms(r.s_diff_ms),
            fmt_ms(r.s_diff_b_ms),
            fmt_ms(r.sim_ms),
            fmt_ms(r.sim_b_ms),
            r.systems.to_string(),
        ]);
    }
    t
}

/// Renders the Fig. 6(d) view (incremental ratios). Empty rows are
/// skipped, matching [`table_c`].
#[must_use]
pub fn table_d(rows: &[Fig6cdRow]) -> Table {
    let mut t = Table::new(["chain_len", "S-diff_ratio", "S-diff-B_ratio"]);
    for r in rows.iter().filter(|r| !r.is_empty()) {
        t.push_row([
            r.chain_len.to_string(),
            fmt_pct(r.ratio_unopt),
            fmt_pct(r.ratio_opt),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-attempt seeding keeps the sweep deterministic even with the
    /// attempts fanned out over a worker pool.
    #[test]
    fn sweep_is_deterministic_across_runs() {
        let cfg = Fig6cdConfig {
            chain_lengths: vec![5],
            systems_per_point: 2,
            offsets_per_system: 1,
            sim_horizon: Duration::from_millis(1_500),
            ..Default::default()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.chain_len, y.chain_len);
            assert_eq!(x.s_diff_ms, y.s_diff_ms);
            assert_eq!(x.s_diff_b_ms, y.s_diff_b_ms);
            assert_eq!(x.sim_ms, y.sim_ms);
            assert_eq!(x.sim_b_ms, y.sim_b_ms);
        }
    }

    #[test]
    fn sweep_shows_optimization_effect() {
        let rows = run(&Fig6cdConfig {
            chain_lengths: vec![5],
            systems_per_point: 2,
            offsets_per_system: 2,
            sim_horizon: Duration::from_millis(3_000),
            ..Default::default()
        });
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.systems > 0);
        // The optimized bound never exceeds the unoptimized one.
        assert!(r.s_diff_b_ms <= r.s_diff_ms + 1e-9);
        // Safety of each bound against its own simulation.
        assert!(
            r.s_diff_ms + 1e-9 >= r.sim_ms,
            "S-diff {} < Sim {}",
            r.s_diff_ms,
            r.sim_ms
        );
        assert!(
            r.s_diff_b_ms + 1e-9 >= r.sim_b_ms,
            "S-diff-B {} < Sim-B {}",
            r.s_diff_b_ms,
            r.sim_b_ms
        );
    }
}
