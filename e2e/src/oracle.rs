//! Local oracles: the expected `result` payload of each distinct request,
//! computed with the library's cold pipeline before any timing starts.
//!
//! The served bytes must equal these exactly: `disparity` and `patch`
//! answers equal a fresh engine run on the (edited) spec, `optimize`
//! answers equal a local optimizer run through the same pure encoder the
//! server uses.

use disparity_core::delta::AnalyzedSystem;
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_model::edit::apply_all;
use disparity_model::json::Value;
use disparity_model::spec::SystemSpec;
use disparity_opt::{optimize_analyzed, BackendChoice, BufferBudget, PlanRequest};
use disparity_sched::schedulability::analyze;
use disparity_service::proto::{encode_disparity_result, encode_optimize_result};

/// The rendered `disparity` result for `task` of `spec` (the same answer
/// a `patch` producing `spec` gets). Refuses specs the service would
/// refuse: unbuildable, or with a task missing its deadline.
///
/// # Errors
///
/// A message naming the failing stage.
pub fn disparity_result(spec: &SystemSpec, task: &str) -> Result<String, String> {
    let graph = spec.build().map_err(|e| format!("build: {e}"))?;
    let sched = analyze(&graph).map_err(|e| format!("schedulability: {e}"))?;
    if !sched.all_schedulable() {
        return Err("unschedulable".to_string());
    }
    let rt = sched.into_response_times();
    let sink = graph
        .find_task(task)
        .ok_or_else(|| format!("no task {task:?}"))?;
    let report = AnalysisEngine::new(&graph, &rt)
        .with_workers(1)
        .worst_case_disparity(sink, AnalysisConfig::default())
        .map_err(|e| format!("analysis: {e}"))?;
    Ok(encode_disparity_result(&graph, &report).to_string())
}

/// The rendered `optimize` result for `spec` under `budget_slots` extra
/// slots and tie-break `seed`, with the service's defaults (auto backend,
/// D007 guard on, no targets, no simulation).
///
/// # Errors
///
/// A message naming the failing stage.
pub fn optimize_result(
    spec: &SystemSpec,
    budget_slots: usize,
    seed: u64,
) -> Result<String, String> {
    let analyzed = AnalyzedSystem::analyze(spec, AnalysisConfig::default())
        .map_err(|e| format!("analysis: {e}"))?;
    let request = PlanRequest {
        seed,
        ..PlanRequest::with_budget(BufferBudget::slots(budget_slots))
    };
    let plan = optimize_analyzed(&analyzed, &request, BackendChoice::Auto)
        .map_err(|e| format!("optimize: {e}"))?;
    let mut optimized = spec.clone();
    apply_all(&mut optimized, &plan.edits()).map_err(|(i, e)| format!("plan edit [{i}]: {e}"))?;
    Ok(encode_optimize_result(&plan, optimized.canonical_hash(), None).to_string())
}

/// The JSON string literal of `text` (quoted and escaped).
#[must_use]
pub fn quoted(text: &str) -> String {
    Value::from(text).to_string()
}
