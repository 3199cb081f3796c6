//! One benchmark run: set-up, measured phases, checks, metrics.
//!
//! `--trace 0` runs measure the end-to-end metrics with nothing traced;
//! `--trace 1` runs replay the same seeded inputs for the per-layer
//! metrics and write a Chrome trace plus a per-layer summary.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use disparity_model::json::{self, Value};

use crate::child::{cpu_ticks, peak_rss_kib, reset_own_peak_rss, serve_path, Serve, TICK_US};
use crate::client::{
    arrival_offsets, closed_loop, open_loop, seat, stats_counters, ClosedLoop, OpenLoop, Tally,
};
use crate::inputs::{service_inputs, ServiceInputs};
use crate::layers::replay;
use crate::simsweep::{run_op, sim_systems, SimSystem};
use crate::stats::{median, sorted, tail, tail_min_samples};
use crate::trace::{Recorder, ROOT};
use crate::workload::{Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The percentile reported as `latency_tail_us`. Every full-length run
/// has hundreds of samples beyond it. p99 is not used: on a shared
/// 2-vCPU host it moved by up to a quarter between runs (host stalls hit
/// about 1 % of requests, and on the service workloads a stalled sender
/// also lengthens how long `serve` holds finished answers; see README.md,
/// "Findings"), while p95 moved about a tenth.
const TAIL_PERCENTILE: f64 = 95.0;

/// Requests (or sim ops) a traced replay covers at most.
const TRACE_MAX_REQUESTS: u64 = 2048;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed a check (or were never answered).
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Diagnostics that are not gated: sample counts, harness time, lag.
    pub details: Vec<(&'static str, Value)>,
}

impl RunResult {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json::object(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })
            .collect();
        json::object(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", uint(self.attempted)),
            ("failed", uint(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }

    /// The metric named `name`, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn uint(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Runs `workload` once. `out_dir` receives the per-layer files of a
/// traced run.
///
/// # Errors
///
/// Set-up failures, a missing `serve`, or a tail percentile the run has
/// too few samples for.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: Scale,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    match (workload.is_service(), trace) {
        (true, false) => service_e2e(workload, seed, scale),
        (true, true) => service_layers(workload, seed, scale, out_dir),
        (false, false) => sim_e2e(seed, scale),
        (false, true) => sim_layers(seed, scale, out_dir),
    }
}

/// The end-to-end metrics in `BENCHMARK.json` order: the median set-up,
/// the closed-phase throughput and CPU per op, the exact median and
/// [`TAIL_PERCENTILE`] of `latencies_us`, and the peak RSS.
fn end_to_end(
    setups: &[f64],
    throughput: f64,
    latencies_us: &[f64],
    cpu_us_per_op: f64,
    peak_rss_kib: u64,
) -> Result<Vec<Metric>, String> {
    let latencies = sorted(latencies_us.to_vec());
    let metric = |name, unit, value| Metric { name, unit, value };
    Ok(vec![
        metric("setup_s", "s", median(&sorted(setups.to_vec()))?),
        metric("throughput_ops", "ops/s", throughput),
        metric("latency_p50_us", "us", median(&latencies)?),
        metric("latency_tail_us", "us", tail(&latencies, TAIL_PERCENTILE)?),
        metric("cpu_us_per_op", "us", cpu_us_per_op),
        metric("peak_rss_mb", "MiB", peak_rss_kib as f64 / 1024.0),
    ])
}

/// What driving one server through the three phases measured.
#[derive(Debug, Clone)]
pub struct Driven {
    /// Warm-up (untimed, but checked).
    pub warm: Tally,
    /// Open-loop phase.
    pub open: OpenLoop,
    /// Closed-loop phase on two connections.
    pub closed: ClosedLoop,
    /// Server CPU ticks spent during the closed phase.
    pub closed_cpu_ticks: u64,
    /// Server `VmHWM` after the closed phase, KiB.
    pub peak_rss_kib: u64,
}

impl Driven {
    /// Every checked request of the three phases.
    #[must_use]
    pub fn tally(&self) -> Tally {
        let mut t = self.warm.clone();
        t.add(&self.open.tally);
        t.add(&self.closed.tally);
        t
    }
}

/// Drives an already seated server at `addr` (process `pid`): warm-up,
/// open loop at the workload's fixed rate, closed loop on two
/// connections.
///
/// # Errors
///
/// Connection or `/proc` failures.
pub fn drive(
    addr: SocketAddr,
    pid: u32,
    inputs: &ServiceInputs,
    workload: Workload,
    seed: u64,
    scale: Scale,
) -> Result<Driven, String> {
    let [warm, open, closed] = scale.service_phases();
    let offsets = arrival_offsets(seed, scale.open_rate(workload), open);
    let next = AtomicU64::new(0);
    let warm = closed_loop(addr, inputs, &next, 1, warm)?.tally;
    // conc: single-threaded here; the closed loops below are scoped
    let first = next.fetch_add(offsets.len() as u64, Ordering::Relaxed);
    let open = open_loop(addr, inputs, first, &offsets)?;
    let cpu_before = cpu_ticks(pid)?;
    let closed = closed_loop(addr, inputs, &next, 2, closed)?;
    let closed_cpu_ticks = cpu_ticks(pid)? - cpu_before;
    Ok(Driven {
        warm,
        open,
        closed,
        closed_cpu_ticks,
        peak_rss_kib: peak_rss_kib(pid)?,
    })
}

/// Spawns and seats `serve` [`SETUPS`] times, keeping the last one;
/// returns it with the set-up times in seconds.
fn set_up(inputs: &ServiceInputs) -> Result<(Serve, Vec<f64>), String> {
    let path = serve_path()?;
    let mut times = Vec::with_capacity(SETUPS);
    let mut server: Option<Serve> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.shutdown()?;
        }
        let started = Instant::now();
        let serve = Serve::spawn(&path)?;
        seat(serve.addr, inputs)?;
        times.push(started.elapsed().as_secs_f64());
        server = Some(serve);
    }
    server
        .map(|s| (s, times))
        .ok_or_else(|| "no set-up ran".to_string())
}

fn service_e2e(workload: Workload, seed: u64, scale: Scale) -> Result<RunResult, String> {
    let prep = Instant::now();
    let inputs = service_inputs(workload, seed, scale)?;
    let prep = prep.elapsed();
    let (server, setups) = set_up(&inputs)?;
    let driven = drive(server.addr, server.pid(), &inputs, workload, seed, scale)?;
    server.shutdown()?;

    let closed_ok = driven.closed.tally.ok();
    let metrics = end_to_end(
        &setups,
        closed_ok as f64 / driven.closed.elapsed.as_secs_f64(),
        &driven.open.latencies_us,
        driven.closed_cpu_ticks as f64 * TICK_US / closed_ok.max(1) as f64,
        driven.peak_rss_kib,
    )?;
    let mut tally = driven.tally();
    tally.attempted += (SETUPS * inputs.seating.len()) as u64;
    let lag_p99 = tail(&sorted(driven.open.lag_us.clone()), 99.0).unwrap_or(f64::NAN);
    let details = vec![
        ("harness.prep_s", Value::Float(prep.as_secs_f64())),
        (
            "setup_s.samples",
            Value::Array(setups.into_iter().map(Value::Float).collect()),
        ),
        ("open.rate_per_s", Value::Float(scale.open_rate(workload))),
        ("open.samples", Value::from(driven.open.latencies_us.len())),
        (
            "closed.samples",
            Value::from(driven.closed.latencies_us.len()),
        ),
        (
            "closed.p50_us",
            Value::Float(median(&sorted(driven.closed.latencies_us.clone()))?),
        ),
        ("loadgen.lag_p99_us", Value::Float(lag_p99)),
        (
            "error_rate",
            Value::Float(tally.failed as f64 / tally.attempted.max(1) as f64),
        ),
        (
            "first_failure",
            tally.first_failure.map_or(Value::Null, Value::from),
        ),
    ];
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        details,
    })
}

/// What a run of sim ops observed, per op in run order.
#[derive(Debug, Default)]
struct SimLoop {
    micros: Vec<f64>,
    checks: Vec<f64>,
    samples: Vec<f64>,
    /// Ops whose sentinel report had a violation.
    failed: u64,
    elapsed: Duration,
}

/// Sim ops, cycling the pool, until `budget` passes (at least one op) or
/// `max_ops` ran.
fn sim_loop(
    systems: &[SimSystem],
    seed: u64,
    budget: Duration,
    max_ops: u64,
    rec: &mut Recorder,
) -> Result<SimLoop, String> {
    let mut out = SimLoop::default();
    let started = Instant::now();
    let mut k = 0u64;
    while k < max_ops && (k == 0 || started.elapsed() < budget) {
        let system = &systems[(k % systems.len() as u64) as usize];
        let op_started = Instant::now();
        rec.set_request(k);
        let root = rec.begin(ROOT);
        let op = run_op(system, seed.wrapping_mul(0x1000_0001).wrapping_add(k), rec)?;
        rec.end(root);
        out.micros.push(op_started.elapsed().as_secs_f64() * 1e6);
        out.checks.push(op.checks as f64);
        out.samples.push(op.samples as f64);
        out.failed += u64::from(op.violations > 0);
        k += 1;
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

fn sim_e2e(seed: u64, scale: Scale) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut systems = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        systems = sim_systems(seed, scale.sim_systems())?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let rss_reset = reset_own_peak_rss().is_ok();
    let pid = std::process::id();
    let cpu_before = cpu_ticks(pid)?;
    let budget = Duration::from_secs_f64(scale.seconds);
    let ops = sim_loop(&systems, seed, budget, u64::MAX, &mut Recorder::disabled())?;
    let cpu = (cpu_ticks(pid)? - cpu_before) as f64 * TICK_US;
    let count = ops.micros.len() as u64;
    let metrics = end_to_end(
        &setups,
        count as f64 / ops.elapsed.as_secs_f64(),
        &ops.micros,
        cpu / count as f64,
        peak_rss_kib(pid)?,
    )?;
    Ok(RunResult {
        attempted: count,
        failed: ops.failed,
        metrics,
        details: vec![
            (
                "setup_s.samples",
                Value::Array(setups.into_iter().map(Value::Float).collect()),
            ),
            ("peak_rss.reset", Value::Bool(rss_reset)),
            ("ops", uint(count)),
        ],
    })
}

/// p50 of per-request self time of `layer` in microseconds (0 when no
/// request entered the layer).
fn layer_p50(per: &std::collections::BTreeMap<&'static str, Vec<u64>>, layer: &str) -> f64 {
    per.get(layer)
        .and_then(|ns| median(&sorted(ns.iter().map(|&n| n as f64 / 1e3).collect())).ok())
        .unwrap_or(0.0)
}

/// Every per-layer metric, zero where the workload never enters the
/// layer, in `BENCHMARK.json` order.
fn per_layer_metrics(values: &[(&'static str, f64)]) -> Vec<Metric> {
    const LAYERS: [(&str, &str); 30] = [
        ("proto.parse_us", "us"),
        ("proto.render_us", "us"),
        ("spec.canonical_us", "us"),
        ("spec.build_us", "us"),
        ("edit.apply_us", "us"),
        ("sched.analyze_us", "us"),
        ("graph.chains_us", "us"),
        ("graph.pairs", "count"),
        ("engine.query_us", "us"),
        ("engine.cold_us", "us"),
        ("engine.warm_us", "us"),
        ("engine.hop_fill_us", "us"),
        ("delta.rebase_us", "us"),
        ("delta.analyze_us", "us"),
        ("delta.apply_us", "us"),
        ("opt.plan_us", "us"),
        ("opt.nodes_per_plan", "count"),
        ("opt.delta_share", "ratio"),
        ("service.process_us", "us"),
        ("cache.hit_ratio", "ratio"),
        ("patch.memo_hit_ratio", "ratio"),
        ("patch.derived_ratio", "ratio"),
        ("transport.residual_us", "us"),
        ("service.overloaded", "count"),
        ("sim.run_us", "us"),
        ("sim.samples_per_op", "count"),
        ("sentinel.check_us", "us"),
        ("sentinel.checks", "count"),
        ("loadgen.lag_p99_us", "us"),
        ("layers.coverage", "ratio"),
    ];
    LAYERS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// Writes the Chrome trace and the per-layer summary of a traced run.
fn write_trace_files(
    out_dir: &Path,
    workload: Workload,
    rec: &Recorder,
    denominator_ns: f64,
    metrics: &[Metric],
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut layers = Vec::new();
    for (on_path, per) in [
        (true, rec.per_request_self(true)),
        (false, rec.per_request_self(false)),
    ] {
        for (name, ns) in per {
            let total: u64 = ns.iter().sum();
            let p50 = median(&sorted(ns.iter().map(|&n| n as f64 / 1e3).collect())).unwrap_or(0.0);
            layers.push(json::object(vec![
                ("layer", Value::from(name)),
                ("on_request_path", Value::Bool(on_path)),
                ("requests", Value::from(ns.len())),
                ("self_p50_us", Value::Float(p50)),
                ("self_total_ms", Value::Float(total as f64 / 1e6)),
                (
                    "share_of_request",
                    if on_path {
                        Value::Float(total as f64 / denominator_ns)
                    } else {
                        Value::Null
                    },
                ),
            ]));
        }
    }
    let summary = json::object(vec![
        ("workload", Value::from(workload.name())),
        ("layers", Value::Array(layers)),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Value::Float(m.value)))
                    .collect(),
            ),
        ),
    ]);
    for (file, value) in [
        (
            format!("{}.trace.json", workload.name()),
            rec.chrome_trace(),
        ),
        (format!("{}.layers.json", workload.name()), summary),
    ] {
        let path = out_dir.join(file);
        std::fs::write(&path, value.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn service_layers(
    workload: Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let inputs = service_inputs(workload, seed, scale)?;
    let quarter = Duration::from_secs_f64(scale.seconds / 4.0);

    // Served: a short open loop (generator lag) and a one-connection
    // closed loop (end-to-end latency without queueing), then `stats`.
    let serve = Serve::spawn(&serve_path()?)?;
    seat(serve.addr, &inputs)?;
    // At least enough arrivals for the lag's p99.
    let rate = scale.open_rate(workload);
    let open_for = quarter.max(Duration::from_secs_f64(
        tail_min_samples(99.0) as f64 / rate,
    ));
    let offsets = arrival_offsets(seed, rate, open_for);
    let open = open_loop(serve.addr, &inputs, 0, &offsets)?;
    let next = AtomicU64::new(offsets.len() as u64);
    let closed = closed_loop(serve.addr, &inputs, &next, 1, quarter)?;
    let counters = stats_counters(serve.addr)?;
    serve.shutdown()?;
    let counter = |name: &str| counters.get(name).and_then(Value::as_i64).unwrap_or(0) as f64;
    // conc: the closed loop's threads have been joined
    let sent = next.load(Ordering::Relaxed);
    let patches = (0..sent)
        .filter(|&n| inputs.is_patch(inputs.body_of(n)))
        .count() as f64;

    // In-process: the layer replay, each request followed by
    // `Service::process` on it.
    let mut rec = Recorder::new();
    let counts = replay(&inputs, &mut rec, quarter, TRACE_MAX_REQUESTS)?;
    let on_path = rec.per_request_self(true);
    let probes = rec.per_request_self(false);
    let layer_ns: u64 = on_path.values().flatten().sum();
    let process_ns = counts.process_us.iter().sum::<f64>() * 1e3;
    let process_p50 = median(&sorted(counts.process_us))?;
    let cold = layer_p50(&probes, "engine.cold");
    let warm = layer_p50(&probes, "engine.warm");
    let pairs = median(&sorted(counts.pairs)).unwrap_or(0.0);
    let values = [
        ("proto.parse_us", layer_p50(&probes, "proto.parse")),
        ("proto.render_us", layer_p50(&on_path, "proto.render")),
        ("spec.canonical_us", layer_p50(&on_path, "spec.canonical")),
        ("spec.build_us", layer_p50(&on_path, "spec.build")),
        ("edit.apply_us", layer_p50(&on_path, "edit.apply")),
        ("sched.analyze_us", layer_p50(&on_path, "sched.analyze")),
        ("graph.chains_us", layer_p50(&probes, "graph.chains")),
        ("graph.pairs", pairs),
        ("engine.query_us", layer_p50(&on_path, "engine.query")),
        ("engine.cold_us", cold),
        ("engine.warm_us", warm),
        ("engine.hop_fill_us", cold - warm),
        ("delta.rebase_us", layer_p50(&on_path, "delta.rebase")),
        ("delta.analyze_us", layer_p50(&on_path, "delta.analyze")),
        ("delta.apply_us", layer_p50(&probes, "delta.apply")),
        ("opt.plan_us", layer_p50(&on_path, "opt.plan")),
        (
            "opt.nodes_per_plan",
            median(&sorted(counts.nodes)).unwrap_or(0.0),
        ),
        (
            "opt.delta_share",
            ratio(
                counts.delta_scored as f64,
                (counts.delta_scored + counts.cold_scored) as f64,
            ),
        ),
        ("service.process_us", process_p50),
        (
            "cache.hit_ratio",
            ratio(
                counter("cache_hits"),
                counter("cache_hits") + counter("cache_misses"),
            ),
        ),
        (
            "patch.memo_hit_ratio",
            ratio(counter("patch_memo_hits"), patches),
        ),
        ("patch.derived_ratio", ratio(counter("patched"), patches)),
        (
            "transport.residual_us",
            median(&sorted(closed.latencies_us.clone()))? - process_p50,
        ),
        ("service.overloaded", counter("overloaded")),
        (
            "loadgen.lag_p99_us",
            tail(&sorted(open.lag_us.clone()), 99.0)?,
        ),
        ("layers.coverage", ratio(layer_ns as f64, process_ns)),
    ];
    let metrics = per_layer_metrics(&values);
    write_trace_files(out_dir, workload, &rec, process_ns, &metrics)?;
    let attempted = open.tally.attempted + closed.tally.attempted + 2 * counts.requests;
    let mut tally = open.tally;
    tally.add(&closed.tally);
    tally.add(&counts.failed);
    Ok(RunResult {
        attempted,
        failed: tally.failed,
        metrics,
        details: vec![
            ("replayed_requests", uint(counts.requests)),
            (
                "first_failure",
                tally.first_failure.map_or(Value::Null, Value::from),
            ),
            ("trace_dir", Value::from(out_dir.display().to_string())),
        ],
    })
}

fn sim_layers(seed: u64, scale: Scale, out_dir: &Path) -> Result<RunResult, String> {
    let systems = sim_systems(seed, scale.sim_systems())?;
    let mut rec = Recorder::new();
    let budget = Duration::from_secs_f64(scale.seconds / 2.0);
    let ops = sim_loop(&systems, seed, budget, TRACE_MAX_REQUESTS, &mut rec)?;
    let on_path = rec.per_request_self(true);
    let layer_ns: u64 = on_path.values().flatten().sum();
    let op_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| s.dur_ns)
        .sum();
    let values = [
        ("sim.run_us", layer_p50(&on_path, "sim.run")),
        ("sim.samples_per_op", median(&sorted(ops.samples))?),
        ("sentinel.check_us", layer_p50(&on_path, "sentinel.check")),
        ("sentinel.checks", median(&sorted(ops.checks))?),
        ("layers.coverage", ratio(layer_ns as f64, op_ns as f64)),
    ];
    let metrics = per_layer_metrics(&values);
    write_trace_files(out_dir, Workload::SimSweep, &rec, op_ns as f64, &metrics)?;
    let count = ops.micros.len() as u64;
    Ok(RunResult {
        attempted: count,
        failed: ops.failed,
        metrics,
        details: vec![
            ("replayed_ops", uint(count)),
            ("trace_dir", Value::from(out_dir.display().to_string())),
        ],
    })
}
