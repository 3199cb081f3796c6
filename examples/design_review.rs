//! A design review of a fusion system: structure, rate-mismatch lints,
//! schedulability, the disparity bound, and the soundness sentinel's
//! bound-vs-observation check on a simulated run.
//!
//! Run with: `cargo run --example design_review`

use time_disparity::core::prelude::*;
use time_disparity::core::sentinel::{check_run, ChainEvidence, RunEvidence, TaskEvidence};
use time_disparity::model::lints::lint_graph;
use time_disparity::model::metrics::profile;
use time_disparity::model::prelude::*;
use time_disparity::sched::prelude::*;
use time_disparity::sim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = Duration::from_millis;

    // A deliberately imperfect design: mismatched rates, a badly phased
    // sensor, one ECU close to its blocking limit.
    let mut b = SystemBuilder::new();
    let ecu = b.add_ecu("ecu0");
    let camera = b.add_task(TaskSpec::periodic("camera", ms(10)));
    let radar = b.add_task(TaskSpec::periodic("radar", ms(30)).offset(ms(13)));
    let filter = b.add_task(
        TaskSpec::periodic("filter", ms(10))
            .execution(ms(1), ms(2))
            .on_ecu(ecu),
    );
    let fuse = b.add_task(
        TaskSpec::periodic("fuse", ms(30))
            .execution(ms(2), ms(5))
            .on_ecu(ecu),
    );
    b.connect(camera, filter);
    b.connect(filter, fuse);
    b.connect(radar, fuse);
    let graph = b.build()?;

    // --- 1. structure ------------------------------------------------------
    let p = profile(&graph);
    println!("== structure ==");
    println!(
        "{} tasks, {} channels, {} sources, depth {}, {} chains into the sink\n",
        p.tasks, p.channels, p.sources, p.depth, p.max_chain_count
    );

    // --- 2. rate-mismatch lints --------------------------------------------
    println!("== design lints ==");
    let lints = lint_graph(&graph);
    if lints.is_empty() {
        println!("(none)");
    }
    for lint in &lints {
        println!("warning: {lint}");
    }

    // --- 3. schedulability ----------------------------------------------------
    println!("\n== schedulability ==");
    let report = analyze(&graph)?;
    assert!(report.all_schedulable());
    for task in graph.tasks() {
        if task.is_zero_cost() {
            continue;
        }
        println!(
            "{:<8} R = {}",
            task.name(),
            report.response_times().wcrt(task.id())
        );
    }

    // --- 4. disparity bounds -------------------------------------------------
    println!("\n== worst-case time disparity at `fuse` ==");
    let analysis = analyze_task(&graph, fuse, AnalysisConfig::default())?;
    println!("S-diff bound: {}", analysis.bound);

    // --- 5. verification ------------------------------------------------------
    println!("\n== verification against a simulated run ==");
    let chains = graph.chains_to(fuse, 64)?;
    let mut sim = Simulator::new(
        &graph,
        SimConfig {
            horizon: Duration::from_secs(10),
            ..Default::default()
        },
    );
    sim.monitor_chains(chains.iter().cloned());
    let outcome = sim.run()?;
    let m = &outcome.metrics;
    let evidence = RunEvidence {
        graph: &graph,
        seed: SimConfig::default().seed,
        fault_plan: format!("{:?}", FaultPlan::none()),
        model_preserving: true,
        faults_fired: outcome.faults.any_model_violation(),
        chains: chains
            .iter()
            .enumerate()
            .map(|(i, chain)| ChainEvidence {
                chain: chain.clone(),
                min_backward: m.chain(i).min_backward,
                max_backward: m.chain(i).max_backward,
                samples: m.chain(i).samples,
            })
            .collect(),
        tasks: graph
            .tasks()
            .iter()
            .map(|t| TaskEvidence {
                task: t.id(),
                max_disparity: m.max_disparity(t.id()),
                max_response: t.ecu().map(|_| m.max_response(t.id())),
            })
            .collect(),
    };
    let verdict = check_run(&evidence)?;
    println!(
        "{} checks, {} violation(s)",
        verdict.checks,
        verdict.violations.len()
    );
    for v in &verdict.violations {
        println!("  {}", v.message);
    }
    assert!(verdict.is_sound());
    Ok(())
}
