//! Fault-injection soundness soak.
//!
//! Sweeps seeds × fault plans × WATERS-style workloads, replaying every
//! run's observations through the soundness sentinel
//! ([`disparity_core::sentinel`]):
//!
//! * **Model-preserving** plans (nothing injected, or execution-time
//!   perturbations re-clamped into `[B, W]`) are hard soundness oracles:
//!   any bound violation is a real bug and fails the soak.
//! * **Model-violating** plans (release jitter, beyond-WCET overruns,
//!   token loss, ECU stalls) must come back *flagged*; their bounds are
//!   not judged.
//! * Deliberately **unschedulable** systems exercise the graceful
//!   degradation path: the sentinel falls back to the Dürr-style baseline
//!   and the soak logs a warning instead of enforcing the exact bounds
//!   (deadline misses void the WCRT analysis the bounds build on).
//!
//! The [`run_soak`] entry point powers both the `soak` binary and the
//! regression tests; violations are reported as self-contained JSON
//! artifacts with a minimized reproduction (seed, fault plan, graph
//! spec).

use disparity_core::buffering::design_buffer;
use disparity_core::sentinel::{self, ChainEvidence, RunEvidence, TaskEvidence};
use disparity_model::builder::SystemBuilder;
use disparity_model::chain::Chain;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::{Priority, TaskId};
use disparity_model::json::Value;
use disparity_model::task::TaskSpec;
use disparity_model::time::Duration;
use disparity_rng::rngs::StdRng;
use disparity_sim::engine::{CommunicationSemantics, SimConfig, Simulator};
use disparity_sim::exec::ExecutionTimeModel;
use disparity_sim::fault::{ExecFault, FaultPlan, ReleaseJitter, StallPlan, TokenLoss};
use disparity_workload::chains::schedulable_two_chain_system;
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

/// Parameters of one soak sweep.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Random WATERS DAGs drawn via `graphgen`.
    pub random_systems: usize,
    /// Seeds simulated per (system, fault plan) combination.
    pub seeds_per_combo: usize,
    /// Simulated horizon per run.
    pub horizon: Duration,
    /// Warm-up excluded from the metrics (lets FIFOs fill).
    pub warmup: Duration,
    /// Base seed; everything else derives deterministically from it.
    pub base_seed: u64,
    /// Monitored chains per system (upper cap).
    pub max_monitored_chains: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            random_systems: 3,
            seeds_per_combo: 3,
            horizon: Duration::from_secs(3),
            warmup: Duration::from_millis(200),
            base_seed: 0x50AC,
            max_monitored_chains: 4,
        }
    }
}

impl SoakConfig {
    /// A cheap configuration for CI smoke runs and tests.
    #[must_use]
    pub fn quick() -> Self {
        SoakConfig {
            random_systems: 1,
            seeds_per_combo: 1,
            horizon: Duration::from_millis(800),
            warmup: Duration::from_millis(100),
            ..SoakConfig::default()
        }
    }

    /// Number of seed × fault-plan × system combinations this
    /// configuration will execute.
    #[must_use]
    pub fn combos(&self) -> usize {
        // random systems + two-chain + its buffered twin + the
        // unschedulable degradation probe.
        (self.random_systems + 3) * fault_catalog().len() * self.seeds_per_combo
    }
}

/// The named fault plans every system is swept through.
///
/// The catalog spans both fault classes: the first three plans are
/// model-preserving (true soundness oracles), the rest must be flagged.
#[must_use]
pub fn fault_catalog() -> Vec<(&'static str, FaultPlan)> {
    let ms = Duration::from_millis;
    vec![
        ("none", FaultPlan::none()),
        (
            "exec-overload",
            FaultPlan {
                exec: ExecFault::Scale { permille: 2_000 },
                ..FaultPlan::default()
            },
        ),
        (
            "exec-underrun",
            FaultPlan {
                exec: ExecFault::Scale { permille: 400 },
                ..FaultPlan::default()
            },
        ),
        (
            "release-jitter",
            FaultPlan {
                release_jitter: Some(ReleaseJitter {
                    max: ms(2),
                    permille: 500,
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "token-loss",
            FaultPlan {
                token_loss: Some(TokenLoss { permille: 100 }),
                ..FaultPlan::default()
            },
        ),
        (
            "ecu-stall",
            FaultPlan {
                stall: Some(StallPlan {
                    interval: ms(20),
                    duration: ms(2),
                }),
                ..FaultPlan::default()
            },
        ),
        (
            "wcet-overrun",
            FaultPlan {
                exec: ExecFault::OverrunBeyondWcet {
                    permille: 200,
                    max_excess: ms(2),
                },
                ..FaultPlan::default()
            },
        ),
        (
            "combined",
            FaultPlan {
                release_jitter: Some(ReleaseJitter {
                    max: ms(1),
                    permille: 200,
                }),
                exec: ExecFault::OverrunBeyondWcet {
                    permille: 100,
                    max_excess: ms(1),
                },
                token_loss: Some(TokenLoss { permille: 50 }),
                stall: Some(StallPlan {
                    interval: ms(50),
                    duration: ms(3),
                }),
            },
        ),
    ]
}

/// What a soak sweep did and found.
#[derive(Debug, Default)]
pub struct SoakSummary {
    /// Seed × plan × system combinations executed.
    pub runs: usize,
    /// Individual sentinel checks evaluated.
    pub checks: usize,
    /// Runs in which model-violating faults fired and were flagged.
    pub flagged: usize,
    /// Runs judged against the Dürr baseline (unschedulable system).
    pub degraded: usize,
    /// Runs skipped because simulation or analysis errored.
    pub skipped: usize,
    /// Warnings from degraded runs whose baseline check failed (deadline
    /// misses void the WCRT analysis, so these do not fail the soak).
    pub degraded_warnings: usize,
    /// Hard violations: JSON artifacts from enforced, non-degraded runs.
    pub violations: Vec<Value>,
}

impl SoakSummary {
    /// Whether the sweep found any hard soundness violation.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One system under soak: the graph, the chains to watch and the fusion
/// task whose disparity is judged.
#[derive(Debug, Clone)]
struct SoakSystem {
    name: String,
    graph: CauseEffectGraph,
    chains: Vec<Chain>,
    focus: TaskId,
}

/// Regenerates the soak sweep's systems for the `--deny-lints` diagnostic
/// gate.
///
/// The builder reseeds its own RNG from `base_seed`, so this sees exactly
/// the graphs [`run_soak`] will exercise without touching any sweep state.
/// The deliberately unschedulable degradation probe — a negative control,
/// *supposed* to miss deadlines — is excluded so `--deny-lints` gates the
/// sweep's real systems only.
#[must_use]
pub fn probe_graphs(config: &SoakConfig) -> Vec<(String, CauseEffectGraph)> {
    build_systems(config, &mut |_| {})
        .into_iter()
        .filter(|sys| sys.name != "degradation-probe")
        .map(|sys| (sys.name, sys.graph))
        .collect()
}

fn build_systems(config: &SoakConfig, log: &mut dyn FnMut(String)) -> Vec<SoakSystem> {
    let mut rng = StdRng::seed_from_u64(config.base_seed);
    let mut systems = Vec::new();
    for i in 0..config.random_systems {
        let gen = GraphGenConfig {
            n_tasks: 10 + 2 * i,
            n_ecus: 3,
            max_sources: Some(3),
            target_utilization: Some(0.5),
            ..GraphGenConfig::default()
        };
        match schedulable_random_system(gen, &mut rng, 50) {
            Ok(graph) => {
                let Some(&sink) = graph.sinks().first() else {
                    disparity_obs::counter_add("soak.sink_missing", 1);
                    log(format!("warning: skipping random system {i}: no sink"));
                    continue;
                };
                let mut chains = match graph.chains_to(sink, 4096) {
                    Ok(chains) => chains,
                    Err(_) => {
                        disparity_obs::counter_add("soak.chain_budget_exceeded", 1);
                        log(format!(
                            "warning: skipping random system {i}: chain budget exceeded"
                        ));
                        continue;
                    }
                };
                chains.truncate(config.max_monitored_chains);
                systems.push(SoakSystem {
                    name: format!("waters-dag-{}", gen.n_tasks),
                    graph,
                    chains,
                    focus: sink,
                });
            }
            Err(e) => log(format!("warning: skipping random system {i}: {e}")),
        }
    }
    match schedulable_two_chain_system(5, 3, &mut rng, 50) {
        Ok(sys) => {
            let focus = sys.sink();
            let chains = vec![sys.lambda.clone(), sys.nu.clone()];
            // The buffered twin exercises S-diff-B (Theorem 3): the
            // sentinel's S-diff check over the rewritten capacities.
            match disparity_sched::schedulability::analyze(&sys.graph) {
                Ok(report) if report.all_schedulable() => {
                    let rt = report.into_response_times();
                    if let Ok(plan) = design_buffer(&sys.graph, &sys.lambda, &sys.nu, &rt) {
                        let mut buffered = sys.graph.clone();
                        if plan.apply(&mut buffered).is_ok() {
                            systems.push(SoakSystem {
                                name: "two-chain-buffered".to_string(),
                                graph: buffered,
                                chains: chains.clone(),
                                focus,
                            });
                        }
                    }
                }
                _ => {}
            }
            systems.push(SoakSystem {
                name: "two-chain".to_string(),
                graph: sys.graph,
                chains,
                focus,
            });
        }
        Err(e) => log(format!("warning: skipping two-chain system: {e}")),
    }
    systems.push(degradation_probe());
    systems
}

/// A deliberately unschedulable (yet utilization < 1) system: the
/// low-priority consumer misses its deadline, forcing the sentinel onto
/// the Dürr-style baseline.
fn degradation_probe() -> SoakSystem {
    let ms = Duration::from_millis;
    let mut b = SystemBuilder::new();
    let e = b.add_ecu("e");
    let s = b.add_task(TaskSpec::periodic("s", ms(10)));
    let a = b.add_task(
        TaskSpec::periodic("a", ms(10))
            .execution(ms(4), ms(4))
            .on_ecu(e)
            .priority(Priority::new(0)),
    );
    let t = b.add_task(
        TaskSpec::periodic("t", ms(12))
            .execution(ms(7), ms(7))
            .on_ecu(e)
            .priority(Priority::new(1)),
    );
    b.connect(s, a);
    b.connect(a, t);
    let Ok(graph) = b.build() else {
        unreachable!("probe system is well-formed")
    };
    let Ok(chain) = Chain::new(&graph, vec![s, a, t]) else {
        unreachable!("probe chain is a path")
    };
    SoakSystem {
        name: "degradation-probe".to_string(),
        graph,
        chains: vec![chain],
        focus: t,
    }
}

/// Upper bound on the fill transient of buffered FIFOs. Lemma 6's
/// `(n−1)·T` shift holds only once a FIFO is full, which takes up to
/// `capacity` productions of its producer — plus one period each for the
/// release offset and the response time (`R ≤ T` on schedulable sets).
/// Samples taken earlier can legitimately undercut the shifted BCBT, so
/// the warm-up must cover this window.
fn buffer_fill_transient(graph: &CauseEffectGraph) -> Duration {
    let mut extra = Duration::ZERO;
    for ch in graph.channels() {
        if ch.capacity() > 1 {
            let t = graph.task(ch.src()).period();
            extra += t * (ch.capacity() as i64 + 2);
        }
    }
    extra
}

/// Simulates one (system, plan, seed) combination and returns the
/// sentinel's verdict plus the run's evidence artifact inputs.
fn run_one(
    system: &SoakSystem,
    plan: FaultPlan,
    seed: u64,
    config: &SoakConfig,
) -> Result<(sentinel::SentinelReport, Value), String> {
    // Stretch both warm-up and horizon by the buffered-fill transient so
    // every run still observes the configured steady-state window.
    let transient = buffer_fill_transient(&system.graph);
    let mut sim = Simulator::new(
        &system.graph,
        SimConfig {
            horizon: config.horizon + transient,
            exec_model: ExecutionTimeModel::Uniform,
            seed,
            warmup: config.warmup + transient,
            record_trace: false,
            semantics: CommunicationSemantics::Implicit,
            fault: plan,
        },
    );
    sim.monitor_chains(system.chains.iter().cloned());
    let out = sim.run().map_err(|e| format!("simulation failed: {e}"))?;
    let chains = system
        .chains
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let o = out.metrics.chain(i);
            ChainEvidence {
                chain: c.clone(),
                min_backward: o.min_backward,
                max_backward: o.max_backward,
                samples: o.samples,
            }
        })
        .collect();
    let tasks = vec![TaskEvidence {
        task: system.focus,
        max_disparity: out.metrics.max_disparity(system.focus),
        max_response: Some(out.metrics.max_response(system.focus)),
    }];
    let evidence = RunEvidence {
        graph: &system.graph,
        seed,
        fault_plan: format!("{plan:?}"),
        model_preserving: plan.is_model_preserving(),
        faults_fired: out.faults.any_model_violation(),
        chains,
        tasks,
    };
    let report = sentinel::check_run(&evidence).map_err(|e| format!("sentinel failed: {e}"))?;
    let artifact = sentinel::artifact(&evidence, &report);
    Ok((report, artifact))
}

/// Wall-clock gap between progress heartbeats on long sweeps.
const HEARTBEAT_PERIOD: std::time::Duration = std::time::Duration::from_secs(2);

/// One `progress:` heartbeat line: combos done, violations, elapsed time.
fn progress_line(summary: &SoakSummary, total: usize, started: std::time::Instant) -> String {
    format!(
        "progress: {}/{} combos, {} violations, {:.1}s elapsed",
        summary.runs,
        total,
        summary.violations.len(),
        started.elapsed().as_secs_f64()
    )
}

/// Runs the full sweep. `log` receives progress and warning lines (the
/// binary routes them to stderr; tests capture them).
///
/// Long sweeps emit a `progress:` heartbeat through `log` at least every
/// `HEARTBEAT_PERIOD` (2 s), and one final heartbeat is always flushed before
/// returning — including sweeps that end early because every system was
/// skipped.
pub fn run_soak(config: &SoakConfig, log: &mut dyn FnMut(String)) -> SoakSummary {
    let systems = build_systems(config, log);
    let catalog = fault_catalog();
    let mut summary = SoakSummary::default();
    let total = config.combos();
    let started = std::time::Instant::now();
    let mut last_beat = started;
    for system in &systems {
        for (plan_name, plan) in &catalog {
            for s in 0..config.seeds_per_combo {
                let seed = config
                    .base_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((summary.runs as u64) << 17)
                    .wrapping_add(s as u64);
                summary.runs += 1;
                let _span = disparity_obs::span!(
                    "soak.run",
                    system = system.name.as_str(),
                    plan = *plan_name,
                    seed = seed,
                );
                disparity_obs::counter_add("soak.runs", 1);
                if last_beat.elapsed() >= HEARTBEAT_PERIOD {
                    last_beat = std::time::Instant::now();
                    log(progress_line(&summary, total, started));
                }
                match run_one(system, *plan, seed, config) {
                    Ok((report, artifact)) => {
                        summary.checks += report.checks;
                        if !report.enforced {
                            summary.flagged += 1;
                        }
                        if report.degraded {
                            summary.degraded += 1;
                            if summary.degraded == 1 {
                                log(format!(
                                    "warning: {} is unschedulable; falling back to the \
                                     Dürr-style baseline bound",
                                    system.name
                                ));
                            }
                        }
                        if report.is_sound() {
                            continue;
                        }
                        if report.degraded {
                            summary.degraded_warnings += 1;
                            log(format!(
                                "warning: baseline check failed on degraded run \
                                 ({} / {plan_name} / seed {seed}); not fatal",
                                system.name
                            ));
                        } else {
                            log(format!(
                                "VIOLATION: {} / {plan_name} / seed {seed}",
                                system.name
                            ));
                            summary.violations.push(artifact);
                        }
                    }
                    Err(e) => {
                        summary.skipped += 1;
                        log(format!(
                            "warning: skipped {} / {plan_name} / seed {seed}: {e}",
                            system.name
                        ));
                    }
                }
            }
        }
    }
    log(progress_line(&summary, total, started));
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use disparity_core::backward::backward_bounds;
    use disparity_core::sentinel::{check_run, CheckKind};
    use disparity_sched::schedulability::analyze;

    #[test]
    fn buffered_fill_transient_does_not_trip_the_sentinel() {
        // Base seed 999 once generated a buffered two-chain twin whose
        // FIFO fill outlasted the fixed quick-profile warm-up: fault-free
        // runs reported spurious BCBT violations from startup samples
        // taken before Lemma 6's shift applies. The warm-up now stretches
        // by the fill transient; this seed must stay sound.
        let config = SoakConfig {
            base_seed: 999,
            ..SoakConfig::quick()
        };
        let summary = run_soak(&config, &mut |_| {});
        assert!(summary.is_sound(), "{:?}", summary.violations);
    }

    #[test]
    fn quick_soak_finds_no_violations() {
        let config = SoakConfig::quick();
        let mut lines = Vec::new();
        let summary = run_soak(&config, &mut |l| lines.push(l));
        assert!(summary.is_sound(), "{:?}", summary.violations);
        assert_eq!(summary.runs, config.combos());
        assert!(summary.checks > summary.runs, "sentinel actually ran");
        assert!(summary.flagged > 0, "model-violating plans were flagged");
        assert!(summary.degraded > 0, "degradation probe was judged");
        assert!(
            lines.iter().any(|l| l.contains("Dürr-style baseline")),
            "degradation warns: {lines:?}"
        );
        let beat = lines
            .iter()
            .find(|l| l.starts_with("progress: "))
            .expect("final heartbeat is always flushed");
        assert!(
            beat.contains(&format!("{}/{} combos", summary.runs, config.combos())),
            "heartbeat reports completion: {beat}"
        );
        assert!(beat.contains("0 violations"), "heartbeat: {beat}");
        assert!(beat.contains("s elapsed"), "heartbeat: {beat}");
    }

    #[test]
    fn soak_is_deterministic() {
        let config = SoakConfig::quick();
        let a = run_soak(&config, &mut |_| {});
        let b = run_soak(&config, &mut |_| {});
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    /// End-to-end mutation test: evidence from a *real* simulation run is
    /// sound, and the same evidence pushed one nanosecond past the true
    /// WCBT is caught exactly once, against exactly that bound.
    #[test]
    fn sentinel_detects_a_broken_bound_on_real_evidence() {
        let config = SoakConfig::quick();
        let probe = build_systems(&config, &mut |_| {})
            .into_iter()
            .find(|s| s.name == "two-chain")
            .expect("two-chain system generated");
        let mut sim = Simulator::new(
            &probe.graph,
            SimConfig {
                horizon: config.horizon,
                warmup: config.warmup,
                seed: 42,
                exec_model: ExecutionTimeModel::Uniform,
                ..Default::default()
            },
        );
        sim.monitor_chains(probe.chains.iter().cloned());
        let out = sim.run().unwrap();
        let o = out.metrics.chain(0);
        let mut evidence = RunEvidence {
            graph: &probe.graph,
            seed: 42,
            fault_plan: format!("{:?}", FaultPlan::none()),
            model_preserving: true,
            faults_fired: false,
            chains: vec![ChainEvidence {
                chain: probe.chains[0].clone(),
                min_backward: o.min_backward,
                max_backward: o.max_backward,
                samples: o.samples,
            }],
            tasks: Vec::new(),
        };
        assert!(o.samples > 0, "simulation produced backward samples");
        let honest = check_run(&evidence).unwrap();
        assert!(honest.is_sound(), "{:?}", honest.violations);
        let rt = analyze(&probe.graph).unwrap().into_response_times();
        let wcbt = backward_bounds(&probe.graph, &probe.chains[0], &rt).wcbt;
        assert!(o.max_backward.unwrap() <= wcbt);
        evidence.chains[0].max_backward = Some(wcbt + Duration::from_nanos(1));
        let verdict = check_run(&evidence).unwrap();
        assert_eq!(verdict.violations.len(), 1);
        assert_eq!(verdict.violations[0].kind, CheckKind::Wcbt);
        assert_eq!(verdict.violations[0].bound, wcbt);
    }
}
