//! The `sim_sweep` workload: 1 s simulator horizons checked by the
//! soundness sentinel, in-process on one thread.

use disparity_core::sentinel::{check_run, ChainEvidence, RunEvidence, TaskEvidence};
use disparity_model::chain::Chain;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::Duration;
use disparity_sim::engine::{CommunicationSemantics, SimConfig, Simulator};
use disparity_sim::exec::ExecutionTimeModel;
use disparity_sim::fault::FaultPlan;
use disparity_workload::graphgen::{schedulable_random_system, GraphGenConfig};

use crate::inputs::stream;
use crate::trace::Recorder;

/// Sink chains monitored per run (the first ones enumerated).
const MONITORED_CHAINS: usize = 32;

/// FIFO capacity of every channel in the buffered half of the pool.
const BUFFERED_CAPACITY: usize = 16;

/// One system of the sweep.
#[derive(Debug, Clone)]
pub struct SimSystem {
    graph: CauseEffectGraph,
    sink: TaskId,
    chains: Vec<Chain>,
    buffered: bool,
}

/// What one op observed.
#[derive(Debug, Clone, Copy)]
pub struct SimOp {
    /// Sentinel checks evaluated.
    pub checks: usize,
    /// Sentinel violations (must be zero).
    pub violations: usize,
    /// Samples the run produced: complete backward chains on the
    /// monitored chains plus the sink's disparity samples.
    pub samples: u64,
}

/// The seeded pool: even entries are random n=35 systems with register
/// channels, odd entries n=20 systems with every channel a FIFO of
/// capacity 16 (the simulator's FIFO path).
///
/// # Errors
///
/// When the generator finds no schedulable system.
pub fn sim_systems(seed: u64, count: usize) -> Result<Vec<SimSystem>, String> {
    let mut rng = stream(seed, 4);
    (0..count)
        .map(|k| {
            let buffered = k % 2 == 1;
            let config = GraphGenConfig {
                n_tasks: if buffered { 20 } else { 35 },
                max_sources: Some(3),
                target_utilization: Some(0.4),
                ..GraphGenConfig::default()
            };
            let mut graph = schedulable_random_system(config, &mut rng, 200)
                .map_err(|e| format!("sim system {k}: {e}"))?;
            if buffered {
                let ids: Vec<_> = graph.channels().iter().map(|c| c.id()).collect();
                for id in ids {
                    graph
                        .set_channel_capacity(id, BUFFERED_CAPACITY)
                        .map_err(|e| format!("sim system {k}: {e}"))?;
                }
            }
            let sink = *graph
                .sinks()
                .first()
                .ok_or(format!("sim system {k}: no sink"))?;
            let mut chains = graph
                .chains_to(sink, 4096)
                .map_err(|e| format!("sim system {k}: {e}"))?;
            chains.truncate(MONITORED_CHAINS);
            Ok(SimSystem {
                graph,
                sink,
                chains,
                buffered,
            })
        })
        .collect()
}

/// One op: a 1 s horizon of `system` under `sim_seed`, then the sentinel
/// on the run's evidence.
///
/// A 1 s window is shorter than the fill transient of capacity-16 FIFOs
/// (Lemma 6's shift holds once a FIFO is full), so on buffered systems
/// only the guarantees that already hold while FIFOs fill are checked:
/// the WCBT upper bound and the WCRT. The BCBT lower bound and the
/// disparity theorems are checked on the register-channel half.
///
/// # Errors
///
/// Simulator or sentinel errors.
pub fn run_op(system: &SimSystem, sim_seed: u64, rec: &mut Recorder) -> Result<SimOp, String> {
    let mut sim = Simulator::new(
        &system.graph,
        SimConfig {
            horizon: Duration::from_secs(1),
            exec_model: ExecutionTimeModel::Uniform,
            seed: sim_seed,
            warmup: Duration::ZERO,
            record_trace: false,
            semantics: CommunicationSemantics::Implicit,
            fault: FaultPlan::none(),
        },
    );
    sim.monitor_chains(system.chains.iter().cloned());
    let out = rec
        .time("sim.run", || sim.run())
        .map_err(|e| format!("simulation: {e}"))?;
    let full = !system.buffered;
    let mut samples = out.metrics.disparity(system.sink).samples;
    let chains = system
        .chains
        .iter()
        .enumerate()
        .map(|(i, chain)| {
            let o = out.metrics.chain(i);
            samples += o.samples;
            ChainEvidence {
                chain: chain.clone(),
                min_backward: o.min_backward.filter(|_| full),
                max_backward: o.max_backward,
                samples: o.samples,
            }
        })
        .collect();
    let evidence = RunEvidence {
        graph: &system.graph,
        seed: sim_seed,
        fault_plan: format!("{:?}", FaultPlan::none()),
        model_preserving: true,
        faults_fired: out.faults.any_model_violation(),
        chains,
        tasks: vec![TaskEvidence {
            task: system.sink,
            max_disparity: out.metrics.max_disparity(system.sink).filter(|_| full),
            max_response: Some(out.metrics.max_response(system.sink)),
        }],
    };
    let report = rec
        .time("sentinel.check", || check_run(&evidence))
        .map_err(|e| format!("sentinel: {e}"))?;
    Ok(SimOp {
        checks: report.checks,
        violations: report.violations.len(),
        samples,
    })
}
