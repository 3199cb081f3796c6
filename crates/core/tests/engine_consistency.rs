//! Property tests: the memoized [`AnalysisEngine`] is observationally
//! identical to the direct per-pair theorem evaluation.
//!
//! The engine reimplements Theorems 1 and 2 on top of prefix tables and a
//! per-edge hop-bound cache, so nothing but these cross-checks guarantees
//! that the fast path and the textbook path stay in lock-step. Every
//! comparison here is an exact `Duration` equality: all arithmetic is
//! integer nanoseconds, so the two paths must agree bit-for-bit, not
//! merely within a tolerance.

use disparity_core::backward::{backward_bounds, BackwardBounds};
use disparity_core::disparity::{
    worst_case_disparity, worst_case_disparity_direct, AnalysisConfig, DisparityReport,
};
use disparity_core::engine::AnalysisEngine;
use disparity_core::pairwise::{pairwise_bound, theorem1_bound, theorem2_bound, Method};
use disparity_core::sentinel::{self, ChainEvidence, CheckKind, RunEvidence, TaskEvidence};
use disparity_model::graph::CauseEffectGraph;
use disparity_model::time::Duration;
use disparity_rng::rngs::StdRng;
use disparity_sched::schedulability::analyze;
use disparity_sched::wcrt::ResponseTimes;
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

const METHODS: [Method; 3] = [Method::Independent, Method::ForkJoin, Method::Combined];
const CHAIN_LIMIT: usize = 4096;

fn waters_graph(n_tasks: usize, seed: u64) -> Option<CauseEffectGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedulable_random_system(
        GraphGenConfig {
            n_tasks,
            n_ecus: 4,
            n_edges: Some((n_tasks as f64 * 2.5) as usize),
            max_sources: Some(3),
            target_utilization: Some(0.45),
        },
        &mut rng,
        100,
    )
    .ok()
}

fn funnel_graph(n_tasks: usize, seed: u64) -> Option<CauseEffectGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    schedulable_funnel_system(&FunnelConfig::with_approximate_size(n_tasks), &mut rng, 100).ok()
}

fn assert_reports_identical(a: &DisparityReport, b: &DisparityReport, what: &str) {
    assert_eq!(a.task, b.task, "{what}: task");
    assert_eq!(a.method, b.method, "{what}: method");
    assert_eq!(a.bound, b.bound, "{what}: bound");
    assert_eq!(a.chains, b.chains, "{what}: chain set");
    assert_eq!(a.pairs.len(), b.pairs.len(), "{what}: pair count");
    for (pa, pb) in a.pairs.iter().zip(&b.pairs) {
        assert_eq!(
            (pa.lambda, pa.nu, pa.analyzed_at, pa.bound),
            (pb.lambda, pb.nu, pb.analyzed_at, pb.bound),
            "{what}: pair ({}, {})",
            pa.lambda,
            pa.nu,
        );
    }
}

/// Cross-checks every pairwise bound of the engine's report against a raw
/// `theorem1_bound` / `theorem2_bound` / `pairwise_bound` call, then the
/// whole report against the direct (uncached) analysis path.
fn check_graph(graph: &CauseEffectGraph, rt: &ResponseTimes, what: &str) {
    let Some(&sink) = graph.sinks().first() else {
        panic!("{what}: generated graph has no sink");
    };
    let chains = graph.chains_to(sink, CHAIN_LIMIT).expect("chain budget");

    for method in METHODS {
        let config = AnalysisConfig {
            method,
            chain_limit: CHAIN_LIMIT,
        };
        let engine = AnalysisEngine::new(graph, rt).with_workers(1);
        let report = engine
            .worst_case_disparity(sink, config)
            .expect("engine analysis");
        let direct = worst_case_disparity_direct(graph, sink, rt, config)
            .expect("direct analysis");
        assert_reports_identical(&report, &direct, &format!("{what}/{method:?} vs direct"));

        // The free function must route through the same engine logic.
        let via_free = worst_case_disparity(graph, sink, rt, config).expect("free function");
        assert_reports_identical(&report, &via_free, &format!("{what}/{method:?} vs free fn"));

        // Parallel reduction must be bit-identical to serial regardless of
        // whether the pair count crosses the spawn threshold.
        let par = AnalysisEngine::new(graph, rt)
            .with_workers(4)
            .worst_case_disparity(sink, config)
            .expect("parallel engine analysis");
        assert_reports_identical(&report, &par, &format!("{what}/{method:?} serial vs par"));

        // Per-pair: the engine's tabulated bounds must equal the textbook
        // theorem evaluated on the same (truncated) chains.
        for pair in &report.pairs {
            let lam = &chains[pair.lambda];
            let nu = &chains[pair.nu];
            let expected = match method {
                Method::Independent => theorem1_bound(graph, lam, nu, rt).unwrap(),
                Method::ForkJoin => {
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    theorem2_bound(graph, &l, &n, rt).unwrap()
                }
                Method::Combined => {
                    let p = theorem1_bound(graph, lam, nu, rt).unwrap();
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    p.min(theorem2_bound(graph, &l, &n, rt).unwrap())
                }
            };
            assert_eq!(
                pair.bound, expected,
                "{what}/{method:?}: engine pair ({}, {}) disagrees with raw theorem",
                pair.lambda, pair.nu,
            );
            // And `pairwise_bound` (the public dispatcher) agrees too. The
            // analysis loop truncates to the last joint task before the
            // S-diff theorem, so ForkJoin (and the S-diff half of
            // Combined) takes the pre-truncated chains here.
            let dispatched = match method {
                Method::Independent => pairwise_bound(graph, lam, nu, rt, method).unwrap(),
                Method::ForkJoin => {
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    pairwise_bound(graph, &l, &n, rt, method).unwrap()
                }
                Method::Combined => {
                    let p = pairwise_bound(graph, lam, nu, rt, Method::Independent).unwrap();
                    let (l, n) = lam.truncate_to_last_joint(nu).expect("common suffix");
                    p.min(pairwise_bound(graph, &l, &n, rt, Method::ForkJoin).unwrap())
                }
            };
            assert_eq!(
                pair.bound, dispatched,
                "{what}/{method:?}: engine pair ({}, {}) disagrees with pairwise_bound",
                pair.lambda, pair.nu,
            );
        }
    }
}

#[test]
fn engine_matches_direct_theorems_on_random_waters_graphs() {
    let mut checked = 0usize;
    for n_tasks in [12, 18] {
        for seed in 1..=5u64 {
            let Some(graph) = waters_graph(n_tasks, seed) else {
                continue; // Unschedulable draw: nothing to compare.
            };
            let rt = analyze(&graph).expect("schedulable").into_response_times();
            check_graph(&graph, &rt, &format!("waters(n={n_tasks}, seed={seed})"));
            checked += 1;
        }
    }
    assert!(checked >= 5, "too few schedulable WATERS draws ({checked})");
}

#[test]
fn engine_matches_direct_theorems_on_funnel_graphs() {
    let mut checked = 0usize;
    for n_tasks in [9, 15] {
        for seed in 1..=4u64 {
            let Some(graph) = funnel_graph(n_tasks, seed) else {
                continue;
            };
            let rt = analyze(&graph).expect("schedulable").into_response_times();
            check_graph(&graph, &rt, &format!("funnel(n={n_tasks}, seed={seed})"));
            checked += 1;
        }
    }
    assert!(checked >= 4, "too few schedulable funnel draws ({checked})");
}

/// The sentinel judges evidence against exactly the oracle's bounds. On
/// seeded WATERS and funnel systems, each once with register channels
/// and once with every channel a FIFO, evidence sitting on every
/// direct-path bound (`backward_bounds`, `worst_case_disparity_direct`
/// and the WCRT) passes, and evidence one nanosecond past one bound
/// yields exactly the violations of the bounds it passed.
#[test]
fn sentinel_judges_evidence_at_the_oracle_bounds() {
    let mut systems = Vec::new();
    for seed in 1..=3u64 {
        systems.extend(waters_graph(12, seed).map(|g| (g, format!("waters(seed={seed})"))));
        systems.extend(funnel_graph(9, seed).map(|g| (g, format!("funnel(seed={seed})"))));
    }
    let mut judged = 0usize;
    let mut with_disparity = 0usize;
    for (graph, what) in systems {
        let mut fifo = graph.clone();
        let ids: Vec<_> = fifo.channels().iter().map(|c| c.id()).collect();
        for id in ids {
            fifo.set_channel_capacity(id, 3).expect("capacity");
        }
        for (g, variant) in [(&graph, "registers"), (&fifo, "fifo(3)")] {
            if judge_at_oracle_bounds(g, &format!("{what}/{variant}")) {
                with_disparity += 1;
            }
            judged += 1;
        }
    }
    assert!(judged >= 8, "too few schedulable draws ({judged})");
    assert!(
        with_disparity >= 4,
        "too few fusion sinks ({with_disparity})"
    );
}

/// One system of [`sentinel_judges_evidence_at_the_oracle_bounds`];
/// returns whether the sink's disparity checks ran.
fn judge_at_oracle_bounds(graph: &CauseEffectGraph, what: &str) -> bool {
    let sched = analyze(graph).expect("response times");
    assert!(
        sched.all_schedulable(),
        "{what}: generated system is schedulable"
    );
    let rt = sched.into_response_times();
    let sink = *graph.sinks().first().expect("generated graph has a sink");
    let all_chains = graph.chains_to(sink, CHAIN_LIMIT).expect("chain budget");
    let fusion = all_chains.len() >= 2;
    let chains = &all_chains[..all_chains.len().min(8)];
    let bounds: Vec<BackwardBounds> = chains
        .iter()
        .map(|c| backward_bounds(graph, c, &rt))
        .collect();
    let oracle = |method| {
        let config = AnalysisConfig {
            method,
            chain_limit: CHAIN_LIMIT,
        };
        worst_case_disparity_direct(graph, sink, &rt, config)
            .expect("direct analysis")
            .bound
    };
    let (p_diff, s_diff) = (oracle(Method::Independent), oracle(Method::ForkJoin));
    let wcrt = rt.wcrt(sink);

    let at_bounds = RunEvidence {
        graph,
        seed: 0,
        fault_plan: "none".to_string(),
        model_preserving: true,
        faults_fired: false,
        chains: chains
            .iter()
            .zip(&bounds)
            .map(|(c, b)| ChainEvidence {
                chain: c.clone(),
                min_backward: Some(b.bcbt),
                max_backward: Some(b.wcbt),
                samples: 1,
            })
            .collect(),
        tasks: vec![TaskEvidence {
            task: sink,
            max_disparity: Some(p_diff.min(s_diff)),
            max_response: Some(wcrt),
        }],
    };
    let report = sentinel::check_run(&at_bounds).expect("sentinel");
    assert!(
        report.is_sound(),
        "{what}: evidence on the bounds: {:?}",
        report.violations
    );
    let disparity_checks = if fusion { 2 } else { 0 };
    assert_eq!(
        report.checks,
        1 + 2 * chains.len() + 1 + disparity_checks,
        "{what}: checks"
    );

    let ns = Duration::from_nanos(1);
    let judge = |ev: &RunEvidence<'_>, expected: &[(CheckKind, Duration, Duration)]| {
        let verdict = sentinel::check_run(ev).expect("sentinel");
        let got: Vec<_> = verdict
            .violations
            .iter()
            .map(|v| (v.kind, v.observed, v.bound))
            .collect();
        assert_eq!(got, expected, "{what}: (kind, observed, bound)");
    };
    for (i, b) in bounds.iter().enumerate() {
        let mut ev = at_bounds.clone();
        ev.chains[i].max_backward = Some(b.wcbt + ns);
        judge(&ev, &[(CheckKind::Wcbt, b.wcbt + ns, b.wcbt)]);
        let mut ev = at_bounds.clone();
        ev.chains[i].min_backward = Some(b.bcbt - ns);
        judge(&ev, &[(CheckKind::Bcbt, b.bcbt - ns, b.bcbt)]);
    }
    let mut ev = at_bounds.clone();
    ev.tasks[0].max_response = Some(wcrt + ns);
    judge(&ev, &[(CheckKind::Response, wcrt + ns, wcrt)]);
    if fusion {
        // One observation meets both theorems: one past the tighter bound
        // breaks it alone, one past the looser breaks both when they differ.
        for bound in [p_diff, s_diff] {
            let observed = bound + ns;
            let mut ev = at_bounds.clone();
            ev.tasks[0].max_disparity = Some(observed);
            let expected: Vec<_> = [(CheckKind::PDiff, p_diff), (CheckKind::SDiff, s_diff)]
                .into_iter()
                .filter(|&(_, b)| b < observed)
                .map(|(kind, b)| (kind, observed, b))
                .collect();
            judge(&ev, &expected);
        }
    }
    fusion
}
