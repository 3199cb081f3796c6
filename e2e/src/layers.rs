//! The per-layer replay of a service workload.
//!
//! The replay walks the same seeded requests through the same public
//! functions the service calls, in the service's order, and times each
//! call from here: parse, canonical rendering, cache lookups and inserts,
//! graph build, schedulability, the engine query, the delta rebase, the
//! optimizer, and rendering. Right after each replayed request, an
//! in-process `Service::process` answers the same request and is timed
//! too (interleaved, so both see the same host conditions); the share of
//! that time the layer spans account for is `layers.coverage`.
//!
//! Off the request path, probes time what the path does not isolate:
//! chain enumeration, a fresh engine's first (cold) and second (warm)
//! query, and one delta `apply` per analyzed optimize base.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use disparity_core::delta::{AnalyzedSystem, DeltaBasis};
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_model::edit::{apply_all, SpecEdit};
use disparity_model::json::Value;
use disparity_model::spec::{hash_canonical_text, Canonical, SystemSpec};
use disparity_opt::{optimize_analyzed, BufferBudget, PlanRequest};
use disparity_sched::schedulability::analyze;
use disparity_service::cache::{BaseLookup, GraphEntry, ShardedCache};
use disparity_service::proto::{
    encode_disparity_result, encode_optimize_result, ok_line_prerendered, response_line, Op,
    Request, ResponseBody, Status,
};
use disparity_service::service::{Service, ServiceConfig};

use crate::client::Tally;
use crate::inputs::ServiceInputs;
use crate::trace::{Recorder, ROOT};

/// What the replay counted besides spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Requests replayed (after seating).
    pub requests: u64,
    /// Replayed or processed answers that differ from the oracle, with
    /// the first such answer.
    pub failed: Tally,
    /// `Service::process` time per request, microseconds.
    pub process_us: Vec<f64>,
    /// Chain pairs per engine query.
    pub pairs: Vec<f64>,
    /// Search nodes per optimizer plan.
    pub nodes: Vec<f64>,
    /// Optimizer states scored through the delta engine.
    pub delta_scored: u64,
    /// Optimizer states scored cold.
    pub cold_scored: u64,
}

/// Service memo capacity before a generational clear (`service.rs`).
const PATCH_MEMO_CAPACITY: usize = 1024;

/// Mirror of the service's per-request state: its graph cache (same
/// type, same default capacity) and its `patch` response memo, keyed by
/// base, edits fingerprint and task (method and chain limit are the
/// defaults in every request here).
struct Mirror {
    cache: ShardedCache,
    memo: HashMap<(u64, u64, String), Arc<str>>,
}

fn line_of(inputs: &ServiceInputs, id: u64, body: usize) -> String {
    let mut line = Vec::new();
    inputs.write_line(&mut line, id, body);
    line.pop();
    String::from_utf8(line).unwrap_or_default()
}

/// Replays `inputs` (seating first, then the schedule from request 0)
/// until `budget` has passed or `max_requests` were replayed, timing an
/// in-process `Service::process` (a fresh service, seated the same way)
/// on each request right after its replay.
///
/// # Errors
///
/// When a request fails in a way the service would not answer `ok`.
pub fn replay(
    inputs: &ServiceInputs,
    rec: &mut Recorder,
    budget: Duration,
    max_requests: u64,
) -> Result<ReplayCounts, String> {
    let mut mirror = Mirror {
        cache: ShardedCache::new(ServiceConfig::default().cache_capacity),
        memo: HashMap::new(),
    };
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let mut counts = ReplayCounts::default();
    for (k, &body) in inputs.seating.iter().enumerate() {
        let n = k as u64;
        let line = replay_one(
            inputs,
            &mut mirror,
            &mut Recorder::disabled(),
            &mut counts,
            n,
            body,
        )?;
        let request = Request::parse(&line_of(inputs, n, body)).map_err(|e| e.to_string())?;
        let expected = inputs.expected_line(n, body);
        if line != expected || service.process(&request) != expected {
            return Err(format!("seating replay answered wrongly: {line}"));
        }
    }
    counts = ReplayCounts::default();
    let started = Instant::now();
    while counts.requests < max_requests && started.elapsed() < budget {
        let (n, body) = (counts.requests, inputs.body_of(counts.requests));
        let expected = inputs.expected_line(n, body);
        let line = replay_one(inputs, &mut mirror, rec, &mut counts, n, body)?;
        let request = Request::parse(&line_of(inputs, n, body)).map_err(|e| e.to_string())?;
        let processing = Instant::now();
        let processed = service.process(&request);
        counts
            .process_us
            .push(processing.elapsed().as_secs_f64() * 1e6);
        for answer in [&line, &processed] {
            if *answer != expected {
                counts.failed.fail(1, answer);
            }
        }
        counts.requests += 1;
    }
    service.shutdown();
    Ok(counts)
}

fn cold_entry(
    mirror: &Mirror,
    rec: &mut Recorder,
    spec: &SystemSpec,
    canonical: &Canonical,
) -> Result<Arc<GraphEntry>, String> {
    let graph = rec
        .time("spec.build", || spec.build())
        .map_err(|e| e.to_string())?;
    let sched = rec
        .time("sched.analyze", || analyze(&graph))
        .map_err(|e| e.to_string())?;
    if !sched.all_schedulable() {
        return Err("unschedulable".to_string());
    }
    let rt = sched.into_response_times();
    Ok(rec.time("cache.insert", || {
        let entry = GraphEntry::new(canonical.clone(), spec.clone(), graph, rt);
        mirror.cache.insert(canonical.hash, entry)
    }))
}

fn entry_for(
    mirror: &Mirror,
    rec: &mut Recorder,
    spec: &SystemSpec,
    canonical: &Canonical,
) -> Result<Arc<GraphEntry>, String> {
    match rec.time("cache.lookup", || {
        mirror.cache.get(canonical.hash, &canonical.text)
    }) {
        Some(entry) => Ok(entry),
        None => cold_entry(mirror, rec, spec, canonical),
    }
}

/// The engine query as the service runs it (the entry's shared hop
/// cache, one engine worker), encoded as the `disparity` payload.
fn query(
    rec: &mut Recorder,
    counts: &mut ReplayCounts,
    entry: &GraphEntry,
    task: &str,
    config: AnalysisConfig,
) -> Result<Value, String> {
    let sink = entry.graph.find_task(task).ok_or("unknown task")?;
    let report = rec
        .time("engine.query", || {
            AnalysisEngine::new(&entry.graph, &entry.rt)
                .with_hop_cache(entry.hops.clone())
                .with_workers(1)
                .worst_case_disparity(sink, config)
        })
        .map_err(|e| e.to_string())?;
    counts.pairs.push(report.pairs.len() as f64);
    Ok(rec.time("proto.render", || {
        encode_disparity_result(&entry.graph, &report)
    }))
}

/// Off-path probes of one analyzed graph: chain enumeration and a fresh
/// engine's cold then warm query.
fn engine_probes(rec: &mut Recorder, entry: &GraphEntry, task: &str, config: AnalysisConfig) {
    let Some(sink) = entry.graph.find_task(task) else {
        return;
    };
    let _ = rec.time("graph.chains", || {
        entry.graph.chains_to(sink, config.chain_limit)
    });
    let engine = AnalysisEngine::new(&entry.graph, &entry.rt).with_workers(1);
    let _ = rec.time("engine.cold", || engine.worst_case_disparity(sink, config));
    let _ = rec.time("engine.warm", || engine.worst_case_disparity(sink, config));
}

/// Replays request `id` (body `body`) and returns its response line.
fn replay_one(
    inputs: &ServiceInputs,
    mirror: &mut Mirror,
    rec: &mut Recorder,
    counts: &mut ReplayCounts,
    id: u64,
    body: usize,
) -> Result<String, String> {
    let text = line_of(inputs, id, body);
    rec.set_request(id);
    let request = rec
        .time("proto.parse", || Request::parse(&text))
        .map_err(|e| e.to_string())?;
    let root = rec.begin(ROOT);
    let rid = &request.id;
    let ok_line = |v: Value| response_line(rid, Status::Ok, ResponseBody::Result(v));
    match &request.op {
        Op::Disparity {
            spec,
            task,
            method,
            chain_limit,
        } => {
            let config = AnalysisConfig {
                method: *method,
                chain_limit: *chain_limit,
            };
            let canonical = rec.time("spec.canonical", || spec.canonical());
            let entry = entry_for(mirror, rec, spec, &canonical)?;
            let value = query(rec, counts, &entry, task, config)?;
            let line = rec.time("proto.render", || ok_line(value));
            rec.end(root);
            engine_probes(rec, &entry, task, config);
            Ok(line)
        }
        Op::Patch {
            base,
            edits,
            task,
            method,
            chain_limit,
        } => {
            let config = AnalysisConfig {
                method: *method,
                chain_limit: *chain_limit,
            };
            // The service's memo key fingerprints the edits' wire
            // rendering; render and hash them the same way.
            let (key, hit) = rec.time("patch.memo", || {
                let edits = Value::Array(edits.iter().map(SpecEdit::to_json).collect());
                let key = (*base, hash_canonical_text(&edits.to_string()), task.clone());
                let hit = mirror.memo.get(&key).cloned();
                (key, hit)
            });
            if let Some(memo) = hit {
                let line = rec.time("proto.render", || ok_line_prerendered(rid, &memo));
                rec.end(root);
                return Ok(line);
            }
            let entry = patch_entry(mirror, rec, *base, edits)?;
            let value = query(rec, counts, &entry, task, config)?;
            let (memo, line) = rec.time("proto.render", || {
                (Arc::<str>::from(value.to_string()), ok_line(value))
            });
            if mirror.memo.len() >= PATCH_MEMO_CAPACITY {
                mirror.memo.clear();
            }
            mirror.memo.insert(key, memo);
            rec.end(root);
            engine_probes(rec, &entry, task, config);
            Ok(line)
        }
        Op::Optimize {
            spec: Some(spec),
            budget_slots,
            backend,
            seed,
            allow_overbuffering,
            method,
            chain_limit,
            ..
        } => {
            let config = AnalysisConfig {
                method: *method,
                chain_limit: *chain_limit,
            };
            let canonical = rec.time("spec.canonical", || spec.canonical());
            let entry = entry_for(mirror, rec, spec, &canonical)?;
            let analyzed = rec
                .time("delta.analyze", || {
                    AnalyzedSystem::analyze(entry.spec(), config)
                })
                .map_err(|e| e.to_string())?;
            let plan_request = PlanRequest {
                seed: *seed,
                forbid_new_findings: !*allow_overbuffering,
                ..PlanRequest::with_budget(BufferBudget::slots(*budget_slots))
            };
            let plan = rec
                .time("opt.plan", || {
                    optimize_analyzed(&analyzed, &plan_request, *backend)
                })
                .map_err(|e| e.to_string())?;
            counts.nodes.push(plan.stats.nodes as f64);
            counts.delta_scored += plan.stats.delta_scored;
            counts.cold_scored += plan.stats.cold_scored;
            let optimized = rec
                .time("edit.apply", || {
                    let mut s = entry.spec().clone();
                    apply_all(&mut s, &plan.edits()).map(|()| s)
                })
                .map_err(|(i, e)| format!("plan edit [{i}]: {e}"))?;
            let canonical2 = rec.time("spec.canonical", || optimized.canonical());
            entry_for(mirror, rec, &optimized, &canonical2)?;
            let line = rec.time("proto.render", || {
                ok_line(encode_optimize_result(&plan, canonical2.hash, None))
            });
            rec.end(root);
            // Probe: one delta-scored search node (a buffer resize).
            if let Some(ch) = analyzed.spec().channels.last() {
                let edit = SpecEdit::ResizeBuffer {
                    from: ch.from.clone(),
                    to: ch.to.clone(),
                    capacity: ch.capacity + 1,
                };
                let _ = rec.time("delta.apply", || analyzed.apply(&edit));
            }
            Ok(line)
        }
        other => Err(format!("the replay does not handle {other:?}")),
    }
}

/// The `patch` path after a memo miss, up to the analyzed entry: base
/// lookup, edit, then the derived entry from the cache, or by delta
/// rebase (a cold build when a rebase fails, as the service does).
fn patch_entry(
    mirror: &Mirror,
    rec: &mut Recorder,
    base: u64,
    edits: &[SpecEdit],
) -> Result<Arc<GraphEntry>, String> {
    let base = match rec.time("cache.lookup", || mirror.cache.get_by_key(base)) {
        BaseLookup::Hit(entry) => entry,
        _ => return Err(format!("base {base:016x} is not cached")),
    };
    let spec2 = rec
        .time("edit.apply", || {
            let mut s = base.spec().clone();
            apply_all(&mut s, edits).map(|()| s)
        })
        .map_err(|(i, e)| format!("edit [{i}]: {e}"))?;
    let canonical2 = rec.time("spec.canonical", || spec2.canonical());
    if let Some(entry) = rec.time("cache.lookup", || {
        mirror.cache.get(canonical2.hash, &canonical2.text)
    }) {
        return Ok(entry);
    }
    let rebased = rec.time("delta.rebase", || {
        let mut basis = DeltaBasis {
            spec: base.spec().clone(),
            graph: base.graph.clone(),
            rt: base.rt.clone(),
            hops: base.hops.clone(),
        };
        for edit in edits {
            basis = basis.rebase(edit).ok()?;
        }
        Some(basis)
    });
    let Some(basis) = rebased else {
        return cold_entry(mirror, rec, &spec2, &canonical2);
    };
    Ok(rec.time("cache.insert", || {
        let mut entry = GraphEntry::new(canonical2.clone(), spec2, basis.graph, basis.rt);
        entry.hops = basis.hops;
        mirror.cache.insert(canonical2.hash, entry)
    }))
}
