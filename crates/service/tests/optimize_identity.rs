//! Contract of the `optimize` op: the response is byte-identical to a
//! direct [`disparity_opt`] run on the same spec (the encoder is pure),
//! the predicted bounds in it agree with a cold re-analysis of the
//! plan-applied spec, the optimized spec lands in the cache under the
//! returned `optimized_spec_hash`, and the diag gate admits the
//! optimized spec of a clean base (satellite: optimizing a clean system
//! must not introduce D007 findings).
//!
//! Everything drives [`Service::process`] directly (no transport), so
//! comparisons are raw response lines with no `trace_id` to peel.
//!
//! [`Service::process`]: disparity_service::service::Service::process

use disparity_core::delta::AnalyzedSystem;
use disparity_core::disparity::AnalysisConfig;
use disparity_model::edit::apply_all;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::json::Value;
use disparity_model::spec::SystemSpec;
use disparity_opt::{
    optimize_analyzed, BackendChoice, BufferBudget, PlanRequest,
};
use disparity_rng::rngs::StdRng;
use disparity_service::proto::{
    encode_optimize_result, response_line, Request, ResponseBody, Status,
};
use disparity_service::server::run_batch;
use disparity_service::service::{Service, ServiceConfig};
use disparity_workload::funnel::{schedulable_funnel_system, FunnelConfig};

fn seeded_workload(seed: u64) -> CauseEffectGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    schedulable_funnel_system(&FunnelConfig::default(), &mut rng, 64)
        .expect("funnel workload generates")
}

fn process(service: &Service, line: &str) -> String {
    let request = Request::parse(line).expect("request parses");
    service.process(&request)
}

fn optimize_line(spec: &SystemSpec, budget: usize, seed: u64, id: i64) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"optimize\",\"budget_slots\":{budget},\"seed\":{seed},\"spec\":{}}}",
        spec.to_json()
    )
}

/// The exact success line a direct optimizer run predicts.
fn direct_line(spec: &SystemSpec, budget: usize, seed: u64, id: i64) -> String {
    let base = AnalyzedSystem::analyze(spec, AnalysisConfig::default()).expect("base analyzes");
    let mut request = PlanRequest::with_budget(BufferBudget::slots(budget));
    request.seed = seed;
    let plan = optimize_analyzed(&base, &request, BackendChoice::Auto).expect("plan");
    let mut opt_spec = spec.clone();
    apply_all(&mut opt_spec, &plan.edits()).expect("plan edits apply");
    response_line(
        &Value::Int(id),
        Status::Ok,
        ResponseBody::Result(encode_optimize_result(&plan, opt_spec.canonical_hash(), None)),
    )
}

fn counter(service: &Service, name: &str) -> i64 {
    let stats = process(service, "{\"id\":99,\"op\":\"stats\"}");
    Value::parse(&stats)
        .expect("stats parse")
        .get("result")
        .and_then(|r| r.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_i64)
        .unwrap_or(-1)
}

fn result_of(line: &str) -> Value {
    let v = Value::parse(line).expect("response parses");
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("ok"),
        "ok response: {line}"
    );
    v.get("result").expect("result present").clone()
}

#[test]
fn optimize_answer_is_byte_identical_to_a_direct_run_and_deterministic() {
    let service = Service::start(ServiceConfig::default());
    let spec = SystemSpec::from_graph(&seeded_workload(7));

    let got = process(&service, &optimize_line(&spec, 4, 11, 2));
    assert_eq!(got, direct_line(&spec, 4, 11, 2), "optimize bytes");

    // Repeating the request must reproduce the same bytes (modulo id).
    let again = process(&service, &optimize_line(&spec, 4, 11, 3));
    assert_eq!(again, direct_line(&spec, 4, 11, 3), "deterministic replay");

    assert_eq!(counter(&service, "optimized"), 2, "both requests planned");
    assert!(
        counter(&service, "opt_delta_scored") + counter(&service, "opt_cold_scored") > 0,
        "search effort was accounted"
    );
    service.shutdown();
}

#[test]
fn optimize_predictions_match_cold_reanalysis_of_the_returned_plan() {
    let service = Service::start(ServiceConfig::default());
    let graph = seeded_workload(3);
    let spec = SystemSpec::from_graph(&graph);

    let result = result_of(&process(&service, &optimize_line(&spec, 4, 0, 1)));

    // Re-apply the returned assignments by hand and re-analyze cold.
    let mut opt_graph = graph.clone();
    let assignments = result
        .get("assignments")
        .and_then(Value::as_array)
        .expect("assignments array");
    for a in assignments {
        let from = a.get("from").and_then(Value::as_str).expect("from");
        let to = a.get("to").and_then(Value::as_str).expect("to");
        let capacity = a.get("capacity").and_then(Value::as_i64).expect("capacity");
        let base_capacity = a
            .get("base_capacity")
            .and_then(Value::as_i64)
            .expect("base_capacity");
        assert!(capacity > base_capacity, "assignments only grow buffers");
        let src = opt_graph.find_task(from).expect("from exists");
        let dst = opt_graph.find_task(to).expect("to exists");
        let id = opt_graph
            .channel_between(src, dst)
            .expect("channel exists")
            .id();
        opt_graph
            .set_channel_capacity(id, usize::try_from(capacity).expect("positive"))
            .expect("capacity applies");
    }
    let opt_spec = SystemSpec::from_graph(&opt_graph);
    let cold =
        AnalyzedSystem::analyze(&opt_spec, AnalysisConfig::default()).expect("cold re-analysis");
    assert_eq!(
        result
            .get("optimized_spec_hash")
            .and_then(Value::as_str)
            .expect("hash present"),
        format!("{:016x}", opt_spec.canonical_hash()),
        "returned hash addresses the plan-applied spec"
    );
    for p in result
        .get("predictions")
        .and_then(Value::as_array)
        .expect("predictions array")
    {
        let task = p.get("task").and_then(Value::as_str).expect("task");
        let after = p.get("after_ns").and_then(Value::as_i64).expect("after_ns");
        let id = cold.graph().find_task(task).expect("task in cold graph");
        let report = cold.report_for(id).expect("cold report");
        assert_eq!(
            after,
            report.bound.as_nanos(),
            "prediction for {task} must equal the cold re-analysis"
        );
    }
    service.shutdown();
}

#[test]
fn optimize_by_base_hash_reuses_the_warmed_cache_entry() {
    let service = Service::start(ServiceConfig::default());
    let graph = seeded_workload(7);
    let spec = SystemSpec::from_graph(&graph);
    let sink = *graph.sinks().first().expect("funnel has a sink");
    let task = graph.task(sink).name();
    let base = spec.canonical_hash();

    // Unknown base first: a clear error, not a panic.
    let cold = process(
        &service,
        &format!("{{\"id\":1,\"op\":\"optimize\",\"base\":\"{base:016x}\",\"budget_slots\":2}}"),
    );
    assert!(cold.contains("unknown base"), "{cold}");

    // Warm the spec, then optimize by hash: identical bytes to the
    // spec-carrying request (the id is the only difference).
    let warm = process(
        &service,
        &format!(
            "{{\"id\":2,\"op\":\"disparity\",\"task\":{},\"spec\":{}}}",
            Value::from(task),
            spec.to_json()
        ),
    );
    assert!(warm.contains("\"status\":\"ok\""), "{warm}");
    let by_hash = process(
        &service,
        &format!("{{\"id\":3,\"op\":\"optimize\",\"base\":\"{base:016x}\",\"budget_slots\":4}}"),
    );
    assert_eq!(by_hash, direct_line(&spec, 4, 0, 3), "hash-addressed bytes");

    // The optimized spec itself was cached: a follow-up optimize
    // against the returned hash must resolve without resending a spec.
    let result = result_of(&by_hash);
    let opt_hash = result
        .get("optimized_spec_hash")
        .and_then(Value::as_str)
        .expect("hash");
    let follow_up = process(
        &service,
        &format!("{{\"id\":4,\"op\":\"optimize\",\"base\":\"{opt_hash}\",\"budget_slots\":0}}"),
    );
    assert!(
        follow_up.contains("\"status\":\"ok\""),
        "optimized spec addressable by hash: {follow_up}"
    );
    service.shutdown();
}

#[test]
fn diag_gate_admits_the_optimized_spec_of_a_clean_base() {
    let service = Service::start(ServiceConfig {
        diag_gate: true,
        ..ServiceConfig::default()
    });
    // Funnel workloads generate with capacity-1 channels, so the base is
    // D007-clean; the default guard must keep the optimized spec clean
    // and therefore admissible through the gate.
    let spec = SystemSpec::from_graph(&seeded_workload(5));
    let line = process(&service, &optimize_line(&spec, 4, 0, 1));
    assert!(
        line.contains("\"status\":\"ok\""),
        "clean base stays admissible after optimization: {line}"
    );
    service.shutdown();
}

#[test]
fn sim_validation_block_reports_observed_disparity_within_bounds() {
    let service = Service::start(ServiceConfig::default());
    let spec = SystemSpec::from_graph(&seeded_workload(7));
    let line = format!(
        "{{\"id\":1,\"op\":\"optimize\",\"budget_slots\":3,\"sim_horizon_ms\":2000,\"spec\":{}}}",
        spec.to_json()
    );
    let result = result_of(&process(&service, &line));
    let sim = result.get("sim").expect("sim block present");
    assert_eq!(
        sim.get("horizon_ms").and_then(Value::as_i64),
        Some(2000),
        "horizon echoed"
    );
    let checks = sim
        .get("checks")
        .and_then(Value::as_array)
        .expect("checks array");
    assert!(!checks.is_empty(), "one check per fusion task");
    for c in checks {
        // A task that never fused inside the horizon reports null; any
        // observed disparity must respect the certified bound.
        if let Some(within) = c.get("within_bound").and_then(Value::as_bool) {
            assert!(within, "observed disparity within certified bound: {c}");
        }
    }
    service.shutdown();
}

#[test]
fn out_of_range_sim_horizon_is_refused_naming_the_field() {
    // 1e13 ms does not fit the simulator's i64 nanosecond clock: an
    // unchecked conversion wraps it to a negative horizon. Driven through
    // the `serve --stdin` batch path, parse included.
    let service = Service::start(ServiceConfig::default());
    let spec = SystemSpec::from_graph(&seeded_workload(7));
    let line = format!(
        "{{\"id\":1,\"op\":\"optimize\",\"budget_slots\":1,\"sim_horizon_ms\":10000000000000,\"spec\":{}}}\n",
        spec.to_json()
    );
    let mut out = Vec::new();
    run_batch(&service, &mut line.as_bytes(), &mut out).expect("batch I/O");
    let reply = String::from_utf8(out).expect("utf-8 reply");
    assert!(reply.contains("\"status\":\"error\""), "{reply}");
    assert!(reply.contains("sim_horizon_ms"), "{reply}");
    assert!(!reply.contains("must be positive"), "{reply}");
    service.shutdown();
}
