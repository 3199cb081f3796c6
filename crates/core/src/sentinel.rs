//! Soundness sentinel: replays observed run statistics against the
//! paper's analytical bounds.
//!
//! The sentinel is the oracle behind the fault-injection soak harness.
//! Given the *evidence* of one simulation run — the graph, the seed, the
//! fault plan that was injected, and the observed extrema — it decides
//! which guarantees apply and checks each of them:
//!
//! * **Model-preserving runs** (no model-violating fault fired, see
//!   `disparity-sim`'s fault classification): every analytical bound must
//!   hold. The sentinel checks the observed backward times of every
//!   monitored chain against WCBT/BCBT (Lemmas 4–5), observed response
//!   times against the WCRT analysis, and observed disparities against
//!   **P-diff** (Theorem 1) and **S-diff** (Theorem 2). Checking a
//!   buffered graph exercises **S-diff-B** (Theorem 3), which is exactly
//!   S-diff over the rewritten channel capacities.
//! * **Model-violating runs** (jitter, beyond-WCET overruns, token loss
//!   or ECU stalls actually fired): the bounds can legitimately fail, so
//!   the run must be *flagged*, never silently analyzed. The sentinel
//!   checks only flag integrity and runs no bound checks.
//! * **Degraded runs**: when the task set is not schedulable under the
//!   paper's standing assumption `R(τ) ≤ T(τ)`, the Lemma 4 hop bounds
//!   are not applicable; the sentinel falls back to the scheduler-agnostic
//!   Dürr-style baseline `Σ (T + R)` and reports itself as degraded.
//!
//! Every bound comes from one serial [`AnalysisEngine`] over the run's
//! graph — the same memoized path that serves analysis answers — so an
//! observation above a served number is exactly what the sentinel
//! reports. The uncached direct path stays the engine's test oracle.
//!
//! Every violation carries the observed value, the bound it broke and a
//! human-readable message; [`artifact`] renders the full report plus a
//! minimized reproduction (seed, fault plan, graph spec) as JSON.

use disparity_model::chain::Chain;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::json::{self, Value};
use disparity_model::spec::SystemSpec;
use disparity_model::time::Duration;
use disparity_sched::schedulability::analyze;

use crate::baseline::try_baseline_wcbt;
use crate::disparity::AnalysisConfig;
use crate::engine::AnalysisEngine;
use crate::error::AnalysisError;
use crate::prelude::Method;

/// Observed backward-time extrema of one monitored chain.
#[derive(Debug, Clone)]
pub struct ChainEvidence {
    /// The monitored chain (a path of the run's graph).
    pub chain: Chain,
    /// Smallest observed backward time, if any sample was taken.
    pub min_backward: Option<Duration>,
    /// Largest observed backward time, if any sample was taken.
    pub max_backward: Option<Duration>,
    /// Number of complete backward chains observed.
    pub samples: u64,
}

/// Observed per-task extrema.
#[derive(Debug, Clone, Copy)]
pub struct TaskEvidence {
    /// The observed task.
    pub task: TaskId,
    /// Largest observed time disparity, if any job traced ≥ 2 sources.
    pub max_disparity: Option<Duration>,
    /// Largest observed response time, if the task ran on an ECU.
    pub max_response: Option<Duration>,
}

/// Everything the sentinel needs to judge one run.
///
/// The fault plan travels as its `Debug` representation: fault plans are
/// plain `Copy + Eq` data, so the string is an exact reproduction recipe
/// without coupling this crate to the simulator.
#[derive(Debug, Clone)]
pub struct RunEvidence<'g> {
    /// The simulated graph.
    pub graph: &'g CauseEffectGraph,
    /// The simulation seed (runs are deterministic per seed).
    pub seed: u64,
    /// `Debug` rendering of the injected fault plan.
    pub fault_plan: String,
    /// Whether the *plan* keeps every job inside the declared model.
    pub model_preserving: bool,
    /// Whether any model-violating fault actually *fired* during the run.
    pub faults_fired: bool,
    /// Observed backward times per monitored chain.
    pub chains: Vec<ChainEvidence>,
    /// Observed disparities and response times per task of interest.
    pub tasks: Vec<TaskEvidence>,
}

/// Which guarantee a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Observed backward time above the Lemma 4 upper bound.
    Wcbt,
    /// Observed backward time below the Lemma 5 lower bound.
    Bcbt,
    /// Observed disparity above the Theorem 1 bound.
    PDiff,
    /// Observed disparity above the Theorem 2 bound (Theorem 3 when the
    /// checked graph carries designed buffers).
    SDiff,
    /// Observed response time above the WCRT analysis.
    Response,
    /// A run whose plan was declared model-preserving reported fired
    /// model-violating faults (bookkeeping corruption).
    FlagIntegrity,
}

impl CheckKind {
    fn name(self) -> &'static str {
        match self {
            CheckKind::Wcbt => "wcbt",
            CheckKind::Bcbt => "bcbt",
            CheckKind::PDiff => "p-diff",
            CheckKind::SDiff => "s-diff",
            CheckKind::Response => "response",
            CheckKind::FlagIntegrity => "flag-integrity",
        }
    }
}

/// One broken guarantee.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The guarantee that failed.
    pub kind: CheckKind,
    /// What was checked (chain or task rendering).
    pub subject: String,
    /// The observed value that broke the bound.
    pub observed: Duration,
    /// The bound it broke.
    pub bound: Duration,
    /// Human-readable description.
    pub message: String,
}

/// The sentinel's verdict over one run.
#[derive(Debug, Clone)]
pub struct SentinelReport {
    /// Whether bound checks ran at all (false for flagged model-violating
    /// runs, whose bounds may legitimately fail).
    pub enforced: bool,
    /// Whether the Dürr-style baseline replaced the Lemma 4 bounds
    /// because the task set is unschedulable.
    pub degraded: bool,
    /// Number of individual checks evaluated.
    pub checks: usize,
    /// Every broken guarantee, in evaluation order.
    pub violations: Vec<Violation>,
}

impl SentinelReport {
    /// Whether every evaluated check held.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.violations.is_empty()
    }

    /// Counts one bound check. A failed check becomes a violation; its
    /// subject and message are rendered only then.
    fn check(
        &mut self,
        kind: CheckKind,
        label: &str,
        observed: Duration,
        bound: Duration,
        subject: impl FnOnce() -> String,
    ) {
        // BCBT is the only lower bound; every other check is an upper one.
        let slack = if kind == CheckKind::Bcbt {
            observed - bound
        } else {
            bound - observed
        };
        self.checks += 1;
        observe_slack(slack);
        if slack >= Duration::ZERO {
            return;
        }
        let (quantity, verb) = match kind {
            CheckKind::Response => ("response time", "exceeds"),
            CheckKind::PDiff | CheckKind::SDiff => ("disparity", "exceeds"),
            CheckKind::Bcbt => ("backward time", "undercuts"),
            CheckKind::Wcbt | CheckKind::FlagIntegrity => ("backward time", "exceeds"),
        };
        self.violations.push(Violation {
            kind,
            subject: subject(),
            observed,
            bound,
            message: format!("observed {quantity} {observed} {verb} {label} {bound}"),
        });
    }
}

/// Judges one run: classifies it, picks the applicable bounds and checks
/// every observation against them.
///
/// # Errors
///
/// * [`AnalysisError::Sched`] when response times cannot be computed at
///   all (utilization ≥ 1 divergence) — without them not even the
///   baseline applies.
/// * [`AnalysisError::Model`] when a chain in the evidence is not a path
///   of the graph, or a checked task's chains exceed the enumeration
///   budget.
pub fn check_run(evidence: &RunEvidence<'_>) -> Result<SentinelReport, AnalysisError> {
    let _span = disparity_obs::span!(
        "sentinel.check_run",
        chains = evidence.chains.len(),
        tasks = evidence.tasks.len(),
    );
    let graph = evidence.graph;
    let sched = analyze(graph)?;
    let degraded = !sched.all_schedulable();
    let rt = sched.into_response_times();
    // Model-violating faults fired: the bounds may legitimately fail, so
    // the only sound move is to flag the run and check nothing else.
    let enforced = evidence.model_preserving || !evidence.faults_fired;
    let mut report = SentinelReport {
        enforced,
        degraded,
        checks: 0,
        violations: Vec::new(),
    };

    // Flag integrity is checked on every run: a plan declared
    // model-preserving must never report fired model violations.
    report.checks += 1;
    if evidence.model_preserving && evidence.faults_fired {
        report.violations.push(Violation {
            kind: CheckKind::FlagIntegrity,
            subject: "run".to_string(),
            observed: Duration::ZERO,
            bound: Duration::ZERO,
            message: "model-preserving plan reported fired model violations".to_string(),
        });
    }
    if !enforced {
        record_verdict(&report);
        return Ok(report);
    }

    let engine = AnalysisEngine::new(graph, &rt).with_workers(1);
    for ev in &evidence.chains {
        let subject = || ev.chain.to_string();
        if degraded {
            // Lemmas 4–5 presume R(τ) ≤ T(τ): only the baseline applies.
            let upper = try_baseline_wcbt(graph, &ev.chain, &rt)?;
            if let Some(hi) = ev.max_backward {
                report.check(CheckKind::Wcbt, "baseline WCBT", hi, upper, subject);
            }
            continue;
        }
        let bounds = engine.backward_bounds(&ev.chain)?;
        if let Some(hi) = ev.max_backward {
            report.check(CheckKind::Wcbt, "WCBT", hi, bounds.wcbt, subject);
        }
        if let Some(lo) = ev.min_backward {
            report.check(CheckKind::Bcbt, "BCBT", lo, bounds.bcbt, subject);
        }
    }

    if !degraded {
        // The WCRT analysis and Theorems 1–3 presume schedulability.
        for ev in &evidence.tasks {
            let subject = || ev.task.to_string();
            if let Some(r) = ev.max_response {
                report.check(CheckKind::Response, "WCRT", r, rt.wcrt(ev.task), subject);
            }
            let Some(observed) = ev.max_disparity else {
                continue;
            };
            for (kind, label, method) in [
                (CheckKind::PDiff, "P-diff", Method::Independent),
                (CheckKind::SDiff, "S-diff", Method::ForkJoin),
            ] {
                let config = AnalysisConfig {
                    method,
                    chain_limit: DISPARITY_CHAIN_LIMIT,
                };
                let analysis = engine.worst_case_disparity(ev.task, config)?;
                if analysis.chains.len() < 2 {
                    break; // No pair of sources can disagree.
                }
                report.check(kind, label, observed, analysis.bound, subject);
            }
        }
    }

    record_verdict(&report);
    Ok(report)
}

/// Chain-enumeration budget for the disparity checks; generous for the
/// WATERS-style workloads the soak harness generates.
const DISPARITY_CHAIN_LIMIT: usize = 4096;

/// Feeds the sentinel's verdict counters: runs judged, checks evaluated,
/// violations found, plus flagged (bound checks skipped after fired
/// model-violating faults) and degraded (baseline fallback) runs.
fn record_verdict(report: &SentinelReport) {
    if !disparity_obs::is_enabled() {
        return;
    }
    disparity_obs::counter_add("sentinel.runs", 1);
    disparity_obs::counter_add("sentinel.checks", report.checks as u64);
    disparity_obs::counter_add("sentinel.violations", report.violations.len() as u64);
    if !report.enforced {
        disparity_obs::counter_add("sentinel.flagged", 1);
    }
    if report.degraded {
        disparity_obs::counter_add("sentinel.degraded", 1);
    }
}

/// Records the observed-vs-bound slack (`bound − observed`, negative on a
/// violation) of one passed-or-failed bound check.
fn observe_slack(slack: Duration) {
    if disparity_obs::is_enabled() {
        disparity_obs::observe("sentinel.slack_ns", slack.as_nanos());
    }
}

/// Renders a sentinel verdict plus its minimized reproduction (seed,
/// fault plan, full graph spec) as a structured JSON value.
///
/// The artifact is self-contained: feeding the graph spec back through
/// `SystemSpec::from_json_str` and re-running the recorded seed under the
/// recorded fault plan reproduces the run exactly.
#[must_use]
pub fn artifact(evidence: &RunEvidence<'_>, report: &SentinelReport) -> Value {
    let violations: Vec<Value> = report
        .violations
        .iter()
        .map(|v| {
            json::object(vec![
                ("kind", Value::from(v.kind.name())),
                ("subject", Value::from(v.subject.clone())),
                ("observed_ns", Value::from(v.observed.as_nanos())),
                ("bound_ns", Value::from(v.bound.as_nanos())),
                ("message", Value::from(v.message.clone())),
            ])
        })
        .collect();
    let chains: Vec<Value> = evidence
        .chains
        .iter()
        .map(|c| {
            json::object(vec![
                ("chain", Value::from(c.chain.to_string())),
                (
                    "min_backward_ns",
                    c.min_backward.map_or(Value::Null, |d| Value::from(d.as_nanos())),
                ),
                (
                    "max_backward_ns",
                    c.max_backward.map_or(Value::Null, |d| Value::from(d.as_nanos())),
                ),
                ("samples", Value::from(i64::try_from(c.samples).unwrap_or(i64::MAX))),
            ])
        })
        .collect();
    json::object(vec![
        (
            "verdict",
            Value::from(if report.is_sound() { "sound" } else { "violation" }),
        ),
        ("enforced", Value::from(report.enforced)),
        ("degraded", Value::from(report.degraded)),
        ("checks", Value::from(report.checks)),
        ("violations", Value::Array(violations)),
        ("observed_chains", Value::Array(chains)),
        (
            "repro",
            json::object(vec![
                ("seed", Value::from(i64::try_from(evidence.seed).unwrap_or(i64::MAX))),
                ("fault_plan", Value::from(evidence.fault_plan.clone())),
                ("graph", SystemSpec::from_graph(evidence.graph).to_json()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use disparity_model::builder::SystemBuilder;
    use disparity_model::ids::Priority;
    use disparity_model::task::TaskSpec;

    fn ms(v: i64) -> Duration {
        Duration::from_millis(v)
    }

    /// Two sensors fused by one task; returns the graph, the fuse task
    /// and the two source→fuse chains.
    fn fusion() -> (CauseEffectGraph, TaskId, Vec<Chain>) {
        let mut b = SystemBuilder::new();
        let e = b.add_ecu("e");
        let s1 = b.add_task(TaskSpec::periodic("s1", ms(10)));
        let s2 = b.add_task(TaskSpec::periodic("s2", ms(30)));
        let fuse = b.add_task(
            TaskSpec::periodic("fuse", ms(30))
                .execution(ms(1), ms(2))
                .on_ecu(e),
        );
        b.connect(s1, fuse);
        b.connect(s2, fuse);
        let g = b.build().unwrap();
        let chains = vec![
            Chain::new(&g, vec![s1, fuse]).unwrap(),
            Chain::new(&g, vec![s2, fuse]).unwrap(),
        ];
        (g, fuse, chains)
    }

    fn clean_evidence<'g>(
        graph: &'g CauseEffectGraph,
        fuse: TaskId,
        chains: &[Chain],
    ) -> RunEvidence<'g> {
        // Observations comfortably inside the analytical bounds.
        RunEvidence {
            graph,
            seed: 7,
            fault_plan: "FaultPlan::none()".to_string(),
            model_preserving: true,
            faults_fired: false,
            chains: chains
                .iter()
                .map(|c| ChainEvidence {
                    chain: c.clone(),
                    min_backward: Some(ms(1)),
                    max_backward: Some(ms(5)),
                    samples: 16,
                })
                .collect(),
            tasks: vec![TaskEvidence {
                task: fuse,
                max_disparity: Some(ms(20)),
                max_response: Some(ms(2)),
            }],
        }
    }

    #[test]
    fn clean_run_is_sound() {
        let (g, fuse, chains) = fusion();
        let ev = clean_evidence(&g, fuse, &chains);
        let report = check_run(&ev).unwrap();
        assert!(report.is_sound(), "{:?}", report.violations);
        assert!(report.enforced);
        assert!(!report.degraded);
        // flag + 2×(wcbt+bcbt) + response + p-diff + s-diff
        assert_eq!(report.checks, 1 + 4 + 1 + 2);
    }

    #[test]
    fn corrupted_wcbt_is_detected_exactly_once() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        // One chain, no BCBT or task evidence: a WCBT breach can surface
        // in exactly one place.
        ev.chains.truncate(1);
        ev.chains[0].min_backward = None;
        ev.tasks.clear();
        let rt = analyze(&g).unwrap().into_response_times();
        let wcbt = crate::backward::backward_bounds(&g, &chains[0], &rt).wcbt;
        ev.chains[0].max_backward = Some(wcbt);
        assert!(check_run(&ev).unwrap().is_sound(), "the bound itself holds");
        // Corrupted evidence: one nanosecond past the bound.
        ev.chains[0].max_backward = Some(wcbt + Duration::from_nanos(1));
        let verdict = check_run(&ev).unwrap();
        assert_eq!(verdict.violations.len(), 1);
        let v = &verdict.violations[0];
        assert_eq!((v.kind, v.bound), (CheckKind::Wcbt, wcbt));
        assert_eq!(v.subject, chains[0].to_string());
    }

    #[test]
    fn disparity_past_both_theorems_violates_each() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        ev.chains.clear();
        let rt = analyze(&g).unwrap().into_response_times();
        let oracle = |method| {
            let config = AnalysisConfig {
                method,
                chain_limit: DISPARITY_CHAIN_LIMIT,
            };
            crate::disparity::worst_case_disparity_direct(&g, fuse, &rt, config)
                .unwrap()
                .bound
        };
        let (p, s) = (oracle(Method::Independent), oracle(Method::ForkJoin));
        ev.tasks = vec![TaskEvidence {
            task: fuse,
            max_disparity: Some(p.max(s) + Duration::from_nanos(1)),
            max_response: None,
        }];
        let verdict = check_run(&ev).unwrap();
        let got: Vec<(CheckKind, Duration)> =
            verdict.violations.iter().map(|v| (v.kind, v.bound)).collect();
        assert_eq!(got, vec![(CheckKind::PDiff, p), (CheckKind::SDiff, s)]);
    }

    #[test]
    fn foreign_chain_is_a_model_error() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        // The foreign chain's ids name s1 → s2 in the fusion graph, which
        // is not an edge there: both are sources.
        let mut b = SystemBuilder::new();
        let a = b.add_task(TaskSpec::periodic("a", ms(10)));
        let c = b.add_task(TaskSpec::periodic("c", ms(10)));
        b.connect(a, c);
        let other = b.build().unwrap();
        ev.chains[0].chain = Chain::new(&other, vec![a, c]).unwrap();
        assert!(matches!(check_run(&ev), Err(AnalysisError::Model(_))));
    }

    #[test]
    fn violating_runs_are_flagged_not_analyzed() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        ev.model_preserving = false;
        ev.faults_fired = true;
        // Even absurd observations are not judged once faults fired.
        ev.chains[0].max_backward = Some(ms(100_000));
        let report = check_run(&ev).unwrap();
        assert!(!report.enforced);
        assert!(report.is_sound());
        assert_eq!(report.checks, 1, "only flag integrity ran");
    }

    #[test]
    fn inconsistent_flags_are_a_violation() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        ev.model_preserving = true;
        ev.faults_fired = true;
        let report = check_run(&ev).unwrap();
        assert!(!report.is_sound());
        assert_eq!(report.violations[0].kind, CheckKind::FlagIntegrity);
    }

    #[test]
    fn unschedulable_system_degrades_to_baseline() {
        // One ECU, U < 1 but the low-priority task misses its deadline.
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
        let g = b.build().unwrap();
        let sched = analyze(&g).unwrap();
        assert!(!sched.all_schedulable(), "setup must be unschedulable");
        let chain = Chain::new(&g, vec![g.find_task("s").unwrap(), a, t]).unwrap();
        let ev = RunEvidence {
            graph: &g,
            seed: 1,
            fault_plan: String::new(),
            model_preserving: true,
            faults_fired: false,
            chains: vec![ChainEvidence {
                chain,
                min_backward: Some(ms(-40)),
                max_backward: Some(ms(30)),
                samples: 4,
            }],
            tasks: vec![TaskEvidence {
                task: t,
                max_disparity: None,
                max_response: Some(ms(15)),
            }],
        };
        let report = check_run(&ev).unwrap();
        assert!(report.degraded);
        // Only flag integrity + the baseline WCBT check ran: BCBT,
        // response and disparity checks presume schedulability.
        assert_eq!(report.checks, 2);
        assert!(report.is_sound(), "{:?}", report.violations);
    }

    #[test]
    fn artifact_round_trips_the_graph_spec() {
        let (g, fuse, chains) = fusion();
        let mut ev = clean_evidence(&g, fuse, &chains);
        ev.chains[0].max_backward = Some(ms(100_000));
        let report = check_run(&ev).unwrap();
        assert!(!report.is_sound());
        let art = artifact(&ev, &report);
        assert_eq!(art.get("verdict").and_then(Value::as_str), Some("violation"));
        let repro = art.get("repro").unwrap();
        assert_eq!(repro.get("seed").and_then(Value::as_i64), Some(7));
        let spec_json = repro.get("graph").unwrap().to_pretty();
        let rebuilt = SystemSpec::from_json_str(&spec_json).unwrap().build().unwrap();
        assert_eq!(rebuilt.task_count(), g.task_count());
        // And the violation entry names the broken guarantee.
        let v = &art.get("violations").unwrap().as_array().unwrap()[0];
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("wcbt"));
    }
}
