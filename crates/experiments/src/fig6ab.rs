//! Reproduction of Fig. 6(a) and 6(b): P-diff / S-diff bounds vs. the
//! simulated maximum time disparity on random single-sink DAGs.
//!
//! Protocol (paper §V): for each task count `n` on the X axis, generate
//! `graphs_per_point` random graphs; analyze the sink with Theorem 1
//! (**P-diff**) and Theorem 2 (**S-diff**); simulate each graph
//! `offsets_per_graph` times with fresh random offsets and record the
//! maximum observed disparity (**Sim**); average everything per point.
//! Fig. 6(a) plots the absolute values, Fig. 6(b) the incremental ratios
//! `(bound − Sim)/Sim`.

use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_core::pairwise::Method;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::Duration;
use disparity_sched::schedulability::analyze;
use disparity_sim::engine::{SimConfig, Simulator};
use disparity_sim::exec::ExecutionTimeModel;
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};
use disparity_workload::offsets::randomize_offsets;
use disparity_rng::rngs::StdRng;

use crate::par::{attempt_seed, attempt_workers, run_indexed};
use crate::stats::{incremental_ratio, mean};
use crate::table::{fmt_ms, fmt_pct, Table};

/// Parameters of the Fig. 6(a)/(b) sweep.
#[derive(Debug, Clone)]
pub struct Fig6abConfig {
    /// X-axis values (number of tasks per graph). Paper: `[5, 35]`.
    pub task_counts: Vec<usize>,
    /// Graphs generated per point. Paper: 10.
    pub graphs_per_point: usize,
    /// Offset randomizations simulated per graph. Paper: 10.
    pub offsets_per_graph: usize,
    /// Simulated horizon per run. Paper: 10 minutes; default kept shorter
    /// (observed maxima only grow with the horizon, so bounds stay safe).
    pub sim_horizon: Duration,
    /// Number of processor ECUs.
    pub n_ecus: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Chain-enumeration budget per sink.
    pub chain_limit: usize,
    /// Edges drawn per task (`m = ⌊edge_factor · n⌋`). The paper uses
    /// NetworkX's *dense* G(n, m) generator without stating `m`; denser
    /// graphs have more interleaved chain pairs, which is where Theorem 2
    /// separates from Theorem 1.
    pub edge_factor: f64,
    /// Source budget handed to the generator (see
    /// [`GraphGenConfig::max_sources`]).
    pub max_sources: Option<usize>,
    /// Per-ECU utilization target (see
    /// [`GraphGenConfig::target_utilization`]).
    pub target_utilization: Option<f64>,
}

impl Default for Fig6abConfig {
    fn default() -> Self {
        Fig6abConfig {
            task_counts: vec![5, 10, 15, 20, 25, 30, 35],
            graphs_per_point: 10,
            offsets_per_graph: 10,
            sim_horizon: Duration::from_secs(10),
            n_ecus: 4,
            seed: 0xD15B,
            chain_limit: 4096,
            edge_factor: 2.5,
            max_sources: Some(3),
            target_utilization: Some(0.45),
        }
    }
}

/// One aggregated point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6abRow {
    /// Number of tasks.
    pub n_tasks: usize,
    /// Mean Theorem 1 bound (ms).
    pub p_diff_ms: f64,
    /// Mean Theorem 2 bound (ms).
    pub s_diff_ms: f64,
    /// Mean simulated maximum disparity (ms).
    pub sim_ms: f64,
    /// `(P-diff − Sim)/Sim` on the means.
    pub p_ratio: Option<f64>,
    /// `(S-diff − Sim)/Sim` on the means.
    pub s_ratio: Option<f64>,
    /// Mean over all chain *pairs* of the Theorem 1 bound (ms). The
    /// per-pair view is where Theorem 2's advantage is visible: the
    /// per-task maximum is usually attained by a structureless pair on
    /// which both theorems provably coincide.
    pub p_pair_mean_ms: f64,
    /// Mean over all chain *pairs* of the Theorem 2 bound (ms).
    pub s_pair_mean_ms: f64,
    /// Graphs that actually contributed (analysis within limits).
    pub graphs: usize,
}

impl Fig6abRow {
    /// Whether the point's attempt budget exhausted without producing a
    /// single graph. An empty row carries no data — its means are
    /// placeholders, not measurements — and is excluded from the rendered
    /// tables.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graphs == 0
    }
}

/// Runs the sweep on G(n, m) graphs (the paper's generator family) and
/// returns one row per task count.
///
/// Graphs whose sink exceeds the chain-enumeration budget are redrawn (the
/// paper's generator implicitly avoids path explosions the same way: by
/// drawing another random graph).
#[must_use]
pub fn run(config: &Fig6abConfig) -> Vec<Fig6abRow> {
    run_with(config, |n_tasks, cfg, rng| {
        schedulable_random_system(
            GraphGenConfig {
                n_tasks,
                n_ecus: cfg.n_ecus,
                n_edges: Some((n_tasks as f64 * cfg.edge_factor) as usize),
                max_sources: cfg.max_sources,
                target_utilization: cfg.target_utilization,
            },
            rng,
            50,
        )
        .ok()
    })
}

/// Runs the sweep on *funnel* graphs (layered pipelines).
///
/// On funnels every chain pair shares a suffix, so the fork-join bound's
/// per-task advantage over the independent bound — which G(n, m) graphs
/// wash out — becomes visible (see EXPERIMENTS.md).
#[must_use]
pub fn run_funnel(config: &Fig6abConfig) -> Vec<Fig6abRow> {
    run_with(config, |n_tasks, cfg, rng| {
        let mut funnel_cfg = FunnelConfig::with_approximate_size(n_tasks);
        funnel_cfg.n_ecus = cfg.n_ecus;
        funnel_cfg.target_utilization = cfg.target_utilization;
        schedulable_funnel_system(&funnel_cfg, rng, 50).ok()
    })
}

/// Regenerates one representative G(n, m) graph per sweep point for the
/// `--deny-lints` diagnostic gate.
///
/// Probes replay the sweep's own `(seed, point, attempt)` derivation on
/// fresh RNGs, so they see exactly the graphs the sweep will analyze while
/// leaving every sweep RNG untouched — running the gate cannot change the
/// sweep's output.
#[must_use]
pub fn probe_graphs(config: &Fig6abConfig) -> Vec<(String, CauseEffectGraph)> {
    probe_with(config, "fig6ab", |n_tasks, cfg, rng| {
        schedulable_random_system(
            GraphGenConfig {
                n_tasks,
                n_ecus: cfg.n_ecus,
                n_edges: Some((n_tasks as f64 * cfg.edge_factor) as usize),
                max_sources: cfg.max_sources,
                target_utilization: cfg.target_utilization,
            },
            rng,
            50,
        )
        .ok()
    })
}

/// [`probe_graphs`] for the funnel variant of the sweep.
#[must_use]
pub fn probe_funnel_graphs(config: &Fig6abConfig) -> Vec<(String, CauseEffectGraph)> {
    probe_with(config, "funnel", |n_tasks, cfg, rng| {
        let mut funnel_cfg = FunnelConfig::with_approximate_size(n_tasks);
        funnel_cfg.n_ecus = cfg.n_ecus;
        funnel_cfg.target_utilization = cfg.target_utilization;
        schedulable_funnel_system(&funnel_cfg, rng, 50).ok()
    })
}

fn probe_with<F>(config: &Fig6abConfig, family: &str, generate: F) -> Vec<(String, CauseEffectGraph)>
where
    F: Fn(usize, &Fig6abConfig, &mut StdRng) -> Option<CauseEffectGraph>,
{
    let mut probes = Vec::new();
    for (point, &n_tasks) in config.task_counts.iter().enumerate() {
        for attempt in 0..config.graphs_per_point * 20 {
            let mut rng = StdRng::seed_from_u64(attempt_seed(config.seed, point, attempt));
            if let Some(graph) = generate(n_tasks, config, &mut rng) {
                probes.push((format!("{family}-n{n_tasks}"), graph));
                break;
            }
        }
    }
    probes
}

/// Shared sweep driver over an arbitrary graph generator.
///
/// Parallelism is two-level: one thread per X-axis point, and inside each
/// point the graph *attempts* fan out over a worker pool at per-graph
/// granularity. Every attempt derives its own RNG seed from
/// `(seed, point, attempt)` (see [`attempt_seed`]), and results are
/// reduced in attempt-index order, so rows are deterministic per
/// configuration regardless of worker count or scheduling.
fn run_with<F>(config: &Fig6abConfig, generate: F) -> Vec<Fig6abRow>
where
    F: Fn(usize, &Fig6abConfig, &mut StdRng) -> Option<disparity_model::graph::CauseEffectGraph>
        + Sync,
{
    let points = config.task_counts.len();
    run_indexed(points, points, |point| {
        sweep_point(config, point, config.task_counts[point], &generate)
    })
}

fn sweep_point<F>(config: &Fig6abConfig, point: usize, n_tasks: usize, generate: &F) -> Fig6abRow
where
    F: Fn(usize, &Fig6abConfig, &mut StdRng) -> Option<disparity_model::graph::CauseEffectGraph>
        + Sync,
{
    let mut span = disparity_obs::span("fig6ab.point");
    span.attr("n_tasks", n_tasks);
    let budget = config.graphs_per_point * 20;
    let workers = attempt_workers();
    let mut samples: Vec<Sample> = Vec::with_capacity(config.graphs_per_point);
    let mut attempts = 0usize;
    while samples.len() < config.graphs_per_point && attempts < budget {
        // Wave size = graphs still needed: the wave boundaries depend only
        // on per-attempt outcomes (seeded by index), never on how many
        // workers happen to be available, so the attempt sequence — and
        // with it the row — is identical on every machine.
        let wave = (config.graphs_per_point - samples.len()).min(budget - attempts);
        let results = run_indexed(wave, workers, |i| {
            sweep_attempt(config, point, n_tasks, attempts + i, generate)
        });
        attempts += wave;
        samples.extend(results.into_iter().flatten());
    }
    span.attr("graphs", samples.len());
    span.attr("attempts", attempts);
    if samples.is_empty() {
        // Budget exhausted with nothing produced: emit an explicitly
        // empty row instead of all-zero "measurements".
        disparity_obs::counter_add("fig6ab.point_exhausted", 1);
        return Fig6abRow {
            n_tasks,
            p_diff_ms: 0.0,
            s_diff_ms: 0.0,
            sim_ms: 0.0,
            p_ratio: None,
            s_ratio: None,
            p_pair_mean_ms: 0.0,
            s_pair_mean_ms: 0.0,
            graphs: 0,
        };
    }
    let collect = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let p_diff_ms = mean(&collect(|s| s.p_ms)).unwrap_or(0.0);
    let s_diff_ms = mean(&collect(|s| s.s_ms)).unwrap_or(0.0);
    let sim_ms = mean(&collect(|s| s.sim_ms)).unwrap_or(0.0);
    Fig6abRow {
        n_tasks,
        p_diff_ms,
        s_diff_ms,
        sim_ms,
        p_ratio: incremental_ratio(p_diff_ms, sim_ms),
        s_ratio: incremental_ratio(s_diff_ms, sim_ms),
        p_pair_mean_ms: mean(&collect(|s| s.p_pair_mean_ms)).unwrap_or(0.0),
        s_pair_mean_ms: mean(&collect(|s| s.s_pair_mean_ms)).unwrap_or(0.0),
        graphs: samples.len(),
    }
}

/// One attempt: generate, analyze and simulate a single graph with an RNG
/// seeded from the attempt index alone.
fn sweep_attempt<F>(
    config: &Fig6abConfig,
    point: usize,
    n_tasks: usize,
    attempt: usize,
    generate: &F,
) -> Option<Sample>
where
    F: Fn(usize, &Fig6abConfig, &mut StdRng) -> Option<disparity_model::graph::CauseEffectGraph>,
{
    let mut rng = StdRng::seed_from_u64(attempt_seed(config.seed, point, attempt));
    let generated = {
        let _span = disparity_obs::span!("fig6ab.generate", n_tasks = n_tasks);
        generate(n_tasks, config, &mut rng)
    };
    let graph = generated?;
    let Some(&sink) = graph.sinks().first() else {
        // A generator can hand back a sinkless graph (e.g. one whose only
        // terminal is also a source); count it and redraw rather than
        // indexing into an empty Vec.
        disparity_obs::counter_add("fig6ab.sink_missing", 1);
        return None;
    };
    let bounds = {
        let _span = disparity_obs::span!("fig6ab.analyze", n_tasks = n_tasks);
        analyze_sink(&graph, sink, config.chain_limit)
    }?;
    let sim_ms = {
        let _span = disparity_obs::span!("fig6ab.simulate", n_tasks = n_tasks);
        simulate_max_disparity(
            &graph,
            sink,
            config.offsets_per_graph,
            config.sim_horizon,
            &mut rng,
        )
    };
    Some(Sample {
        p_ms: bounds.p_ms,
        s_ms: bounds.s_ms,
        p_pair_mean_ms: bounds.p_pair_mean_ms,
        s_pair_mean_ms: bounds.s_pair_mean_ms,
        sim_ms,
    })
}

/// One attempt's measurements.
struct Sample {
    p_ms: f64,
    s_ms: f64,
    p_pair_mean_ms: f64,
    s_pair_mean_ms: f64,
    sim_ms: f64,
}

/// Per-graph analysis results.
struct SinkBounds {
    p_ms: f64,
    s_ms: f64,
    p_pair_mean_ms: f64,
    s_pair_mean_ms: f64,
}

/// Theorem 1 and Theorem 2 bounds (in ms) of the sink, or `None` on chain
/// explosion.
fn analyze_sink(graph: &CauseEffectGraph, sink: TaskId, chain_limit: usize) -> Option<SinkBounds> {
    let report = analyze(graph).ok()?;
    if !report.all_schedulable() {
        return None;
    }
    let rt = report.into_response_times();
    // One engine for both methods: the hop-bound cache warmed by the
    // P-diff pass is reused wholesale by the S-diff pass. The pair loop
    // stays serial — the sweep already parallelizes per attempt.
    let engine = AnalysisEngine::new(graph, &rt).with_workers(1);
    let p = engine
        .worst_case_disparity(
            sink,
            AnalysisConfig {
                method: Method::Independent,
                chain_limit,
            },
        )
        .ok()?;
    let s = engine
        .worst_case_disparity(
            sink,
            AnalysisConfig {
                method: Method::ForkJoin,
                chain_limit,
            },
        )
        .ok()?;
    let pair_mean = |r: &disparity_core::disparity::DisparityReport| {
        let vals: Vec<f64> = r.pairs.iter().map(|p| p.bound.as_millis_f64()).collect();
        mean(&vals).unwrap_or(0.0)
    };
    Some(SinkBounds {
        p_ms: p.bound.as_millis_f64(),
        s_ms: s.bound.as_millis_f64(),
        p_pair_mean_ms: pair_mean(&p),
        s_pair_mean_ms: pair_mean(&s),
    })
}

/// Maximum observed disparity (ms) over several offset-randomized runs.
fn simulate_max_disparity(
    graph: &CauseEffectGraph,
    sink: TaskId,
    runs: usize,
    horizon: Duration,
    rng: &mut StdRng,
) -> f64 {
    let mut best = 0.0f64;
    for run in 0..runs {
        let instance = randomize_offsets(graph, rng);
        let sim = Simulator::new(
            &instance,
            SimConfig {
                horizon,
                exec_model: ExecutionTimeModel::Uniform,
                seed: rng_seed(rng, run),
                warmup: Duration::ZERO,
                record_trace: false,
                semantics: disparity_sim::engine::CommunicationSemantics::Implicit,
                fault: disparity_sim::fault::FaultPlan::none(),
            },
        );
        let Ok(outcome) = sim.run() else {
            disparity_obs::counter_add("fig6ab.sim_rejected", 1);
            continue;
        };
        if let Some(d) = outcome.metrics.max_disparity(sink) {
            best = best.max(d.as_millis_f64());
        }
    }
    best
}

fn rng_seed(rng: &mut StdRng, salt: usize) -> u64 {
    use disparity_rng::Rng as _;
    rng.gen::<u64>() ^ (salt as u64)
}

/// Renders the Fig. 6(a) view (absolute values). Empty rows (points whose
/// attempt budget exhausted) carry no data and are skipped.
#[must_use]
pub fn table_a(rows: &[Fig6abRow]) -> Table {
    let mut t = Table::new([
        "n_tasks",
        "P-diff_ms",
        "S-diff_ms",
        "Sim_ms",
        "P-pair-mean_ms",
        "S-pair-mean_ms",
        "graphs",
    ]);
    for r in rows.iter().filter(|r| !r.is_empty()) {
        t.push_row([
            r.n_tasks.to_string(),
            fmt_ms(r.p_diff_ms),
            fmt_ms(r.s_diff_ms),
            fmt_ms(r.sim_ms),
            fmt_ms(r.p_pair_mean_ms),
            fmt_ms(r.s_pair_mean_ms),
            r.graphs.to_string(),
        ]);
    }
    t
}

/// Renders the Fig. 6(b) view (incremental ratios vs. Sim). Empty rows
/// are skipped, matching [`table_a`].
#[must_use]
pub fn table_b(rows: &[Fig6abRow]) -> Table {
    let mut t = Table::new(["n_tasks", "P-diff_ratio", "S-diff_ratio"]);
    for r in rows.iter().filter(|r| !r.is_empty()) {
        t.push_row([
            r.n_tasks.to_string(),
            fmt_pct(r.p_ratio),
            fmt_pct(r.s_ratio),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig6abConfig {
        Fig6abConfig {
            task_counts: vec![5, 8],
            graphs_per_point: 2,
            offsets_per_graph: 2,
            sim_horizon: Duration::from_millis(2_000),
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_safe_bounds() {
        let rows = run(&tiny_config());
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.graphs > 0, "every point should produce graphs");
            // Safety: the mean bounds must dominate the mean observation.
            assert!(
                r.p_diff_ms + 1e-9 >= r.sim_ms,
                "P-diff {} < Sim {}",
                r.p_diff_ms,
                r.sim_ms
            );
            assert!(
                r.s_diff_ms + 1e-9 >= r.sim_ms,
                "S-diff {} < Sim {}",
                r.s_diff_ms,
                r.sim_ms
            );
        }
    }

    #[test]
    fn tables_have_one_row_per_point() {
        let rows = run(&tiny_config());
        assert_eq!(table_a(&rows).len(), rows.len());
        assert_eq!(table_b(&rows).len(), rows.len());
    }

    /// The sweep is parallel over points but must stay deterministic per
    /// configuration (each point derives its own seed).
    #[test]
    fn sweep_is_deterministic_across_runs() {
        let cfg = tiny_config();
        let a = run(&cfg);
        let b = run(&cfg);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.n_tasks, y.n_tasks);
            assert_eq!(x.p_diff_ms, y.p_diff_ms);
            assert_eq!(x.s_diff_ms, y.s_diff_ms);
            assert_eq!(x.sim_ms, y.sim_ms);
        }
    }

    /// A generator that never produces marks the point as empty instead of
    /// emitting a silent all-zero row, and the tables drop it.
    #[test]
    fn exhausted_point_yields_empty_row_excluded_from_tables() {
        let cfg = Fig6abConfig {
            task_counts: vec![5],
            graphs_per_point: 2,
            ..Default::default()
        };
        let rows = run_with(&cfg, |_, _, _| None);
        assert_eq!(rows.len(), 1, "one row per point, even when empty");
        let r = &rows[0];
        assert!(r.is_empty());
        assert_eq!(r.graphs, 0);
        assert_eq!(r.p_ratio, None);
        assert_eq!(r.s_ratio, None);
        assert_eq!(table_a(&rows).len(), 0, "empty rows are not rendered");
        assert_eq!(table_b(&rows).len(), 0);
    }

    #[test]
    fn funnel_sweep_runs_and_separates_bounds() {
        let rows = run_funnel(&Fig6abConfig {
            task_counts: vec![12],
            graphs_per_point: 3,
            offsets_per_graph: 2,
            sim_horizon: Duration::from_millis(1500),
            ..Default::default()
        });
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.graphs > 0);
        assert!(r.s_diff_ms < r.p_diff_ms, "funnels separate S from P");
        assert!(r.s_diff_ms + 1e-9 >= r.sim_ms, "S-diff stays safe");
    }
}
