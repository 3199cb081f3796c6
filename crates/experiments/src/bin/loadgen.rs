//! `loadgen` — replay seeded requests against a running `serve` daemon
//! and accept only replies that match a local oracle byte for byte.
//!
//! ```text
//! loadgen --addr HOST:PORT [--mode disparity|patch|optimize|chaos]
//!         [--spec FILE] [--task NAME] [--requests N] [--connections C]
//!         [--retries N] [--seed N] [--soak-tag TAG]
//!         [--direct-addr HOST:PORT] [--probe-overload N]
//!         [--latency-series FILE] [--dump] [--shutdown] [--out FILE]
//! ```
//!
//! loadgen checks answers; it does not measure speed (`bash e2e/run.sh`
//! is the benchmark). Every mode runs through one replay driver:
//!
//! 1. **Seat.** The spec is sent once as a `disparity` request, so the
//!    server holds the base graph that `patch` and `optimize` address by
//!    canonical hash.
//! 2. **Replay.** `--requests` requests, cycling through the mode's
//!    seeded pool, go out under unique ids spread over `--connections`
//!    threads. Each line is one write, newline included, on a
//!    `TCP_NODELAY` socket.
//! 3. **Compare.** A reply is accepted only when it carries a
//!    well-formed `trace_id` and, with that stamp peeled, is
//!    byte-identical to the reply the local library computes. Anything
//!    else drops the connection and retries on a fresh one, up to
//!    `--retries` times with jittered exponential backoff seeded by
//!    `--seed`. A wrong reply that still parses as our `ok` answer is
//!    counted as caught corruption.
//! 4. **Counters.** The server's `stats` counters that the mode names
//!    must have moved during the run. Control ops (`stats`, `health`,
//!    `metrics`, `dump`, `shutdown`) go to `--direct-addr`, past any
//!    proxy (default `--addr`).
//!
//! | mode | pool | oracle | counters that must move |
//! |---|---|---|---|
//! | `disparity` | the seat request | cold pipeline | `cache_hits` |
//! | `patch` | ≤ 8 seeded single-field WCET edits against the base hash | cold pipeline on the edited spec | `patched`; `patch_memo_hits` once an edit recurs |
//! | `optimize` | slot budgets 0–4 against the base hash, plan seed `--seed` | `optimize_analyzed` + `encode_optimize_result` | `optimized` per request; scored states once a budget is non-zero |
//! | `chaos` | the seat request, in two batches | cold pipeline | `cache_hits`, `panics`, `quarantined` |
//!
//! `chaos` runs behind `chaosproxy`. Its second batch runs while a
//! quarantine probe sends a deliberately panicking spec (salted by
//! `--soak-tag`, so repeated runs against one server use fresh specs)
//! until the server answers `rejected`. That must take at least three
//! sends and at most two `internal_error`s. Last, a `health` query must
//! show every worker alive and a quarantined spec.
//!
//! The run fails on any lost or duplicated reply, on caught corruption
//! outside `chaos` (with no proxy in the path the server itself was
//! wrong), and on a counter that did not move. `--probe-overload N`
//! then fires N slow `sleep` requests down one connection and requires
//! an `overloaded` bounce that the server counted too.
//!
//! The report is one JSON object on stdout (and in `--out`), with one
//! schema for every mode, ending in `"passed"`; the exit status follows
//! it. `--latency-series FILE` samples the `metrics` op every 100 ms
//! into an NDJSON timeline, `--dump` asks for a flight-recorder
//! postmortem after the run, and `--shutdown` drains the daemon last.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use disparity_core::delta::AnalyzedSystem;
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_model::edit::{apply_all, SpecEdit};
use disparity_model::json::{self, Value};
use disparity_model::spec::SystemSpec;
use disparity_model::time::Duration as SpecDuration;
use disparity_opt::{optimize_analyzed, BackendChoice, BufferBudget, PlanRequest};
use disparity_rng::rngs::StdRng;
use disparity_rng::{splitmix64_mix, Rng};
use disparity_sched::wcrt::response_times;
use disparity_service::proto::{
    encode_disparity_result, encode_optimize_result, is_trace_id, ok_line_prerendered, split_trace,
};

/// Base of the jittered exponential retry backoff.
const BACKOFF_MS: u64 = 5;
/// Gap between `--latency-series` samples.
const SERIES_INTERVAL: Duration = Duration::from_millis(100);
/// Read timeout, so a stalled (chaos) connection cannot wedge a client.
const READ_TIMEOUT: Duration = Duration::from_secs(3);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Disparity,
    Patch,
    Optimize,
    Chaos,
}

impl Mode {
    fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "disparity" => Ok(Mode::Disparity),
            "patch" => Ok(Mode::Patch),
            "optimize" => Ok(Mode::Optimize),
            "chaos" => Ok(Mode::Chaos),
            other => Err(format!(
                "unknown --mode {other:?} (disparity|patch|optimize|chaos)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::Disparity => "disparity",
            Mode::Patch => "patch",
            Mode::Optimize => "optimize",
            Mode::Chaos => "chaos",
        }
    }
}

struct Args {
    addr: String,
    mode: Mode,
    spec: String,
    task: Option<String>,
    requests: usize,
    connections: usize,
    retries: u32,
    seed: u64,
    tag: String,
    direct_addr: Option<String>,
    probe_overload: usize,
    latency_series: Option<String>,
    dump: bool,
    shutdown: bool,
    out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: "127.0.0.1:7414".to_string(),
            mode: Mode::Disparity,
            spec: "specs/waters_clean.json".to_string(),
            task: None,
            requests: 100,
            connections: 4,
            retries: 1,
            seed: 42,
            tag: "loadgen".to_string(),
            direct_addr: None,
            probe_overload: 0,
            latency_series: None,
            dump: false,
            shutdown: false,
            out: None,
        }
    }
}

impl Args {
    /// Where control ops go: past any chaos proxy.
    fn direct(&self) -> &str {
        self.direct_addr.as_deref().unwrap_or(&self.addr)
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value()?,
            "--mode" => args.mode = Mode::parse(&value()?)?,
            "--spec" => args.spec = value()?,
            "--task" => args.task = Some(value()?),
            "--requests" => args.requests = number(&flag, &value()?)?,
            "--connections" => args.connections = number(&flag, &value()?)?,
            "--retries" => args.retries = number(&flag, &value()?)?,
            "--seed" => args.seed = number(&flag, &value()?)?,
            "--soak-tag" => args.tag = value()?,
            "--direct-addr" => args.direct_addr = Some(value()?),
            "--probe-overload" => args.probe_overload = number(&flag, &value()?)?,
            "--latency-series" => args.latency_series = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--dump" => args.dump = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn uint(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Jittered exponential backoff: `BACKOFF_MS * 2^(attempt-1)`, scaled by
/// a random 50–150% factor, capped at six doublings.
fn backoff_delay(rng: &mut StdRng, attempt: u32) -> Duration {
    let exp = BACKOFF_MS << attempt.saturating_sub(1).min(6);
    Duration::from_millis(exp * rng.gen_range(50..=150u64) / 100)
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// Writes `line` and its newline in one `write_all`: a request split over
/// two writes on a Nagle socket waits out the peer's delayed ACK.
fn send_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    out.write_all(&framed)
}

/// A client connection with `TCP_NODELAY` and a read timeout.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Option<Conn> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nodelay(true).ok()?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
        let reader = BufReader::new(stream.try_clone().ok()?);
        Some(Conn { stream, reader })
    }

    fn send(&mut self, line: &str) -> Option<()> {
        send_line(&mut self.stream, line).ok()
    }

    /// The next reply line, without its newline; `None` on EOF, timeout
    /// or a read error.
    fn recv(&mut self) -> Option<String> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Some(reply.trim_end().to_string()),
            _ => None,
        }
    }

    fn exchange(&mut self, line: &str) -> Option<String> {
        self.send(line)?;
        self.recv()
    }
}

/// Sends one control op on a fresh connection; returns the parsed reply.
fn query(addr: &str, op: &str) -> Result<Value, String> {
    let line = format!("{{\"id\":\"loadgen-{op}\",\"op\":\"{op}\"}}");
    let reply = Conn::open(addr)
        .and_then(|mut c| c.exchange(&line))
        .ok_or_else(|| format!("{op} query got no reply from {addr}"))?;
    Value::parse(&reply).map_err(|e| format!("{op} reply: {e}"))
}

/// The `result` member of a control op's reply.
fn query_result(addr: &str, op: &str) -> Result<Value, String> {
    query(addr, op)?
        .get("result")
        .cloned()
        .ok_or_else(|| format!("{op} reply has no result"))
}

fn counter(counters: &Value, name: &str) -> u64 {
    counters
        .get(name)
        .and_then(Value::as_i64)
        .and_then(|n| u64::try_from(n).ok())
        .unwrap_or(0)
}

fn stats_counters(addr: &str) -> Result<Value, String> {
    query_result(addr, "stats")?
        .get("counters")
        .cloned()
        .ok_or_else(|| "stats reply has no counters".to_string())
}

// ---------------------------------------------------------------------------
// The replay driver
// ---------------------------------------------------------------------------

/// One replayable request: the members after its `"id"`, and the
/// rendered `result` of the `ok` reply the local oracle expects.
#[derive(Clone)]
struct Exchange {
    body: String,
    result: String,
}

/// What a mode replays, built from the spec before any traffic flows.
struct Plan {
    task: String,
    /// The base spec's cold `disparity` request, sent first.
    seat: Exchange,
    pool: Vec<Exchange>,
    /// `stats` gates: over the run, each group of named counters must
    /// grow by at least the given total.
    expect: Vec<(&'static [&'static str], u64)>,
    /// `chaos` only: the panicking spec for the quarantine probe.
    poison: Option<String>,
}

#[derive(Default)]
struct Tally {
    accepted: AtomicU64,
    lost: AtomicU64,
    duplicated: AtomicU64,
    /// Wrong replies that parsed as our `ok` answer: caught and retried.
    corruption_caught: AtomicU64,
    retried: AtomicU64,
    ids: Mutex<HashSet<String>>,
}

/// Whether a reply parses as the `ok` answer to `id`.
fn is_our_ok(reply: &str, id: &str) -> bool {
    Value::parse(reply).is_ok_and(|v| {
        v.get("id").and_then(Value::as_str) == Some(id)
            && v.get("status").and_then(Value::as_str) == Some("ok")
    })
}

/// Sends `exchange` under `id` until the reply, with its trace id peeled
/// and checked, is byte-identical to the oracle's. This is the only place
/// a reply is accepted. A failed attempt drops the connection (a stream
/// that returned the wrong bytes may be out of step) and retries on a
/// fresh one.
fn replay_one(
    addr: &str,
    conn: &mut Option<Conn>,
    exchange: &Exchange,
    id: &str,
    retries: u32,
    rng: &mut StdRng,
    tally: &Tally,
) {
    let id_value = Value::from(id);
    let line = format!("{{\"id\":{id_value},{}}}", exchange.body);
    let want = ok_line_prerendered(&id_value, &exchange.result);
    for attempt in 0..=retries {
        if attempt > 0 {
            bump(&tally.retried);
            std::thread::sleep(backoff_delay(rng, attempt));
        }
        if conn.is_none() {
            *conn = Conn::open(addr);
        }
        let reply = conn.as_mut().and_then(|c| c.exchange(&line));
        match reply.as_deref().and_then(split_trace) {
            Some((pure, trace)) if is_trace_id(&trace) && pure == want => {
                bump(&tally.accepted);
                if !tally
                    .ids
                    .lock()
                    .is_ok_and(|mut ids| ids.insert(id.to_string()))
                {
                    bump(&tally.duplicated);
                }
                return;
            }
            _ => {
                if reply.as_deref().is_some_and(|r| is_our_ok(r, id)) {
                    bump(&tally.corruption_caught);
                }
                *conn = None;
            }
        }
    }
    bump(&tally.lost);
}

/// Replays `count` requests cycling through `pool`, under ids
/// `{tag}-{phase}-{i}` spread over `--connections` threads.
fn replay(args: &Args, phase: &str, pool: &[Exchange], count: usize, tally: &Tally) {
    let connections = args.connections.clamp(1, count.max(1));
    std::thread::scope(|scope| {
        for c in 0..connections {
            scope.spawn(move || {
                let salt = phase.bytes().fold(args.seed ^ c as u64, |h, b| {
                    splitmix64_mix(h ^ u64::from(b))
                });
                let mut rng = StdRng::seed_from_u64(salt);
                let mut conn = None;
                for i in (c..count).step_by(connections) {
                    let id = format!("{}-{phase}-{i}", args.tag);
                    let exchange = &pool[i % pool.len()];
                    replay_one(
                        &args.addr,
                        &mut conn,
                        exchange,
                        &id,
                        args.retries,
                        &mut rng,
                        tally,
                    );
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Mode plans: the pool and its oracle
// ---------------------------------------------------------------------------

/// The cold pipeline on `spec`: the `result` of a `disparity` or `patch`
/// reply for `task`.
fn cold_result(spec: &SystemSpec, task: &str) -> Result<String, String> {
    let graph = spec.build().map_err(|e| format!("building spec: {e}"))?;
    let sink = graph
        .find_task(task)
        .ok_or_else(|| format!("task {task:?} not in spec"))?;
    let rt = response_times(&graph).map_err(|e| format!("response times: {e}"))?;
    let report = AnalysisEngine::new(&graph, &rt)
        .worst_case_disparity(sink, AnalysisConfig::default())
        .map_err(|e| format!("direct analysis: {e}"))?;
    Ok(encode_disparity_result(&graph, &report).to_string())
}

/// Seeded single-field WCET edits against the base hash. Shrinking a
/// WCET keeps every schedulability verdict, so each edit is admissible;
/// cycling a small pool makes later requests land on the patch memo.
fn patch_pool(args: &Args, spec: &SystemSpec, task: &str) -> Result<Vec<Exchange>, String> {
    let base = spec.canonical_hash();
    let candidates: Vec<_> = spec
        .tasks
        .iter()
        .filter(|t| t.wcet.as_nanos() > t.bcet.as_nanos() && t.wcet.as_nanos() > 1)
        .collect();
    if candidates.is_empty() {
        return Err("patch: no task has wcet > bcet to edit".to_string());
    }
    let mut rng = StdRng::seed_from_u64(splitmix64_mix(args.seed ^ 0xED17));
    (0..args.requests.clamp(1, 8))
        .map(|_| {
            let pick = rng.gen_range(0..candidates.len() as u64);
            let t = candidates[usize::try_from(pick).unwrap_or(0)];
            let lo = u64::try_from(t.bcet.as_nanos()).unwrap_or(0).max(1);
            let hi = u64::try_from(t.wcet.as_nanos()).unwrap_or(1);
            let wcet = SpecDuration::from_nanos(i64::try_from(rng.gen_range(lo..hi)).unwrap_or(1));
            let edit = SpecEdit::SetWcet {
                task: t.name.clone(),
                wcet,
            };
            let mut edited = spec.clone();
            apply_all(&mut edited, std::slice::from_ref(&edit))
                .map_err(|(i, e)| format!("patch: generated bad edit [{i}]: {e}"))?;
            Ok(Exchange {
                body: format!(
                    "\"op\":\"patch\",\"base\":\"{base:016x}\",\"edits\":[{}],\"task\":{}",
                    edit.to_json(),
                    Value::from(task)
                ),
                result: cold_result(&edited, task)?,
            })
        })
        .collect()
}

/// A sweep of slot budgets against the base hash; each answer is a local
/// optimizer run through the encoder the server uses.
fn optimize_pool(args: &Args, spec: &SystemSpec) -> Result<Vec<Exchange>, String> {
    let hash = spec.canonical_hash();
    let base = AnalyzedSystem::analyze(spec, AnalysisConfig::default())
        .map_err(|e| format!("optimize: base analysis: {e}"))?;
    (0..args.requests.clamp(1, 5))
        .map(|budget| {
            let mut request = PlanRequest::with_budget(BufferBudget::slots(budget));
            request.seed = args.seed;
            let plan = optimize_analyzed(&base, &request, BackendChoice::Auto)
                .map_err(|e| format!("optimize: planning (budget {budget}): {e}"))?;
            let mut opt_spec = spec.clone();
            apply_all(&mut opt_spec, &plan.edits())
                .map_err(|(i, e)| format!("optimize: plan edit [{i}]: {e}"))?;
            Ok(Exchange {
                body: format!(
                    "\"op\":\"optimize\",\"base\":\"{hash:016x}\",\"budget_slots\":{budget},\"seed\":{}",
                    args.seed
                ),
                result: encode_optimize_result(&plan, opt_spec.canonical_hash(), None).to_string(),
            })
        })
        .collect()
}

/// The base spec with its first task's offset salted by `--soak-tag`, so
/// each tag quarantines a fresh canonical hash.
fn poison_spec(args: &Args, spec: &SystemSpec) -> Result<String, String> {
    let mut poison = spec.clone();
    let tag_hash = args
        .tag
        .bytes()
        .fold(args.seed, |h, b| splitmix64_mix(h ^ u64::from(b)));
    let first = poison
        .tasks
        .first_mut()
        .ok_or_else(|| "spec has no tasks".to_string())?;
    first.offset = SpecDuration::from_nanos(
        first.offset.as_nanos() + i64::try_from(tag_hash % 1_000_000).unwrap_or(0) + 1,
    );
    Ok(poison.to_json().to_string())
}

/// Reads the spec and builds the mode's seat, pool, oracle answers and
/// counter gates.
fn plan(args: &Args) -> Result<Plan, String> {
    let text =
        std::fs::read_to_string(&args.spec).map_err(|e| format!("reading {}: {e}", args.spec))?;
    let spec =
        SystemSpec::from_json_str(&text).map_err(|e| format!("parsing {}: {e}", args.spec))?;
    let task = match &args.task {
        Some(name) => name.clone(),
        None => {
            let graph = spec
                .build()
                .map_err(|e| format!("building {}: {e}", args.spec))?;
            let sink = *graph
                .sinks()
                .first()
                .ok_or_else(|| format!("{} has no sink task", args.spec))?;
            graph.task(sink).name().to_string()
        }
    };
    let seat = Exchange {
        body: format!(
            "\"op\":\"disparity\",\"task\":{},\"spec\":{}",
            Value::from(task.as_str()),
            spec.to_json()
        ),
        result: cold_result(&spec, &task)?,
    };
    let n = args.requests as u64;
    let (pool, expect) = match args.mode {
        // The seat precedes the replay, so every replayed request hits.
        Mode::Disparity => (vec![seat.clone()], vec![(&["cache_hits"][..], n.min(1))]),
        Mode::Chaos => (
            vec![seat.clone()],
            vec![
                (&["cache_hits"][..], 1),
                // Two strikes before the quarantine, then a rejection.
                (&["panics"][..], 2),
                (&["quarantined"][..], 1),
            ],
        ),
        Mode::Patch => {
            let pool = patch_pool(args, &spec, &task)?;
            let recurs = args.requests > pool.len();
            let expect = vec![
                (&["patched"][..], n.min(1)),
                (&["patch_memo_hits"][..], u64::from(recurs)),
            ];
            (pool, expect)
        }
        Mode::Optimize => {
            let pool = optimize_pool(args, &spec)?;
            let searched = pool.len() > 1;
            let expect = vec![
                (&["optimized"][..], n),
                (
                    &["opt_delta_scored", "opt_cold_scored"][..],
                    u64::from(searched),
                ),
            ];
            (pool, expect)
        }
    };
    let poison = match args.mode {
        Mode::Chaos => Some(poison_spec(args, &spec)?),
        _ => None,
    };
    Ok(Plan {
        task,
        seat,
        pool,
        expect,
        poison,
    })
}

// ---------------------------------------------------------------------------
// Chaos: quarantine probe and health verdict
// ---------------------------------------------------------------------------

#[derive(Default)]
struct ProbeOutcome {
    sends: u32,
    internal_errors: u32,
    noise: u32,
    rejected: bool,
}

/// Sends the panicking spec until the server quarantines it. Each send
/// is one potential strike; `rejected` needs two processed strikes, so it
/// can never appear before the third send.
fn quarantine_probe(args: &Args, poison_json: &str) -> ProbeOutcome {
    let mut rng = StdRng::seed_from_u64(splitmix64_mix(args.seed ^ 0x90150));
    let mut outcome = ProbeOutcome::default();
    // Generous send cap: chaos may eat both a strike's reply and a
    // rejection several times over before one gets through intact.
    while outcome.sends < 30 && !outcome.rejected {
        outcome.sends += 1;
        let id = format!("{}-poison-{}", args.tag, outcome.sends);
        let line = format!(
            "{{\"id\":{},\"op\":\"panic\",\"spec\":{poison_json}}}",
            Value::from(id.as_str())
        );
        let status = Conn::open(&args.addr)
            .and_then(|mut c| c.exchange(&line))
            .and_then(|r| Value::parse(&r).ok())
            .filter(|v| v.get("id").and_then(Value::as_str) == Some(id.as_str()))
            .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string));
        match status.as_deref() {
            Some("internal_error") => outcome.internal_errors += 1,
            Some("rejected") => outcome.rejected = true,
            _ => outcome.noise += 1,
        }
        if !outcome.rejected {
            std::thread::sleep(backoff_delay(&mut rng, 1));
        }
    }
    outcome
}

/// `chaos`'s second batch, concurrent with the quarantine probe, then the
/// direct `health` verdict. Returns the batch size.
fn chaos_phase(
    args: &Args,
    plan: &Plan,
    poison: &str,
    tally: &Tally,
    report: &mut Vec<(&'static str, Value)>,
    failures: &mut Vec<String>,
) -> Result<usize, String> {
    let count = (args.requests / 4).max(10);
    let probe = std::thread::scope(|scope| {
        let probe = scope.spawn(|| quarantine_probe(args, poison));
        replay(args, "probed", &plan.pool, count, tally);
        probe.join()
    })
    .map_err(|_| "quarantine probe panicked".to_string())?;
    let health = query_result(args.direct(), "health")?;
    let gauge = |name: &str| health.get(name).and_then(Value::as_i64);
    if !probe.rejected {
        failures.push("panicking spec was never quarantined".to_string());
    } else if probe.sends < 3 {
        failures.push(format!(
            "quarantine after only {} send(s); it needs two strikes first",
            probe.sends
        ));
    }
    if probe.internal_errors > 2 {
        failures.push(format!(
            "{} internal_error replies for one spec: quarantine leak",
            probe.internal_errors
        ));
    }
    if gauge("workers_alive").is_none() || gauge("workers_alive") != gauge("workers_configured") {
        failures.push(format!(
            "{:?} of {:?} workers alive at the end",
            gauge("workers_alive"),
            gauge("workers_configured")
        ));
    }
    if gauge("quarantined_specs").unwrap_or(0) < 1 {
        failures.push("health reports no quarantined specs".to_string());
    }
    report.push((
        "panic_probe",
        json::object(vec![
            ("sends", Value::from(probe.sends)),
            ("internal_errors", Value::from(probe.internal_errors)),
            ("noise", Value::from(probe.noise)),
            ("rejected_seen", Value::Bool(probe.rejected)),
        ]),
    ));
    report.push(("health", health));
    Ok(count)
}

/// Fires `n` slow `sleep` requests down one connection back to back and
/// returns how many were bounced `overloaded`.
fn probe_overload(addr: &str, n: usize) -> Result<u64, String> {
    let mut conn = Conn::open(addr).ok_or("overload probe: cannot connect")?;
    for i in 0..n {
        conn.send(&format!(
            "{{\"id\":\"probe-{i}\",\"op\":\"sleep\",\"millis\":25}}"
        ))
        .ok_or("overload probe: write failed")?;
    }
    let mut overloaded = 0;
    for _ in 0..n {
        let reply = conn
            .recv()
            .ok_or_else(|| format!("overload probe: fewer than {n} replies"))?;
        let v = Value::parse(&reply).map_err(|e| format!("overload probe: {e}"))?;
        if v.get("status").and_then(Value::as_str) == Some("overloaded") {
            overloaded += 1;
        }
    }
    Ok(overloaded)
}

// ---------------------------------------------------------------------------
// Latency series
// ---------------------------------------------------------------------------

/// One `metrics` poll as a series line; `None` skips the tick.
fn sample_metrics(addr: &str, started: Instant) -> Option<String> {
    let result = query_result(addr, "metrics").ok()?;
    let field = |name: &str, default: Value| result.get(name).cloned().unwrap_or(default);
    Some(
        json::object(vec![
            (
                "t_ms",
                Value::Int(i64::try_from(started.elapsed().as_millis()).unwrap_or(i64::MAX)),
            ),
            ("queue_depth", field("queue_depth", Value::Int(-1))),
            ("window", field("window", json::object(vec![]))),
        ])
        .to_string(),
    )
}

/// `--latency-series`: polls `metrics` on a background thread while the
/// replay runs, then writes the NDJSON timeline.
struct Sampler {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Vec<String>>,
    path: String,
}

impl Sampler {
    fn start(args: &Args) -> Option<Sampler> {
        let path = args.latency_series.clone()?;
        let addr = args.direct().to_string();
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut lines = Vec::new();
            loop {
                lines.extend(sample_metrics(&addr, started));
                if !matches!(
                    stopped.recv_timeout(SERIES_INTERVAL),
                    Err(RecvTimeoutError::Timeout)
                ) {
                    // One final sample covers the run's tail.
                    lines.extend(sample_metrics(&addr, started));
                    return lines;
                }
            }
        });
        Some(Sampler { stop, handle, path })
    }

    fn finish(self) -> Result<(), String> {
        drop(self.stop);
        let lines = self
            .handle
            .join()
            .map_err(|_| "latency-series sampler panicked".to_string())?;
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&self.path, text).map_err(|e| format!("writing {}: {e}", self.path))?;
        eprintln!(
            "loadgen: {} latency sample(s) written to {}",
            lines.len(),
            self.path
        );
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Seats the base, replays the pool (and `chaos`'s probed batch), runs
/// the overload probe, and checks tally and counters. Returns the report.
fn check(args: &Args, plan: &Plan) -> Result<Value, String> {
    let direct = args.direct();
    let before = stats_counters(direct)?;
    let tally = Tally::default();
    replay(args, "seat", std::slice::from_ref(&plan.seat), 1, &tally);
    if load(&tally.accepted) == 0 {
        return Err("the seat request never matched the local cold pipeline".to_string());
    }
    replay(args, "main", &plan.pool, args.requests, &tally);
    let mut replayed = 1 + args.requests;
    let mut extra = Vec::new();
    let mut failures = Vec::new();
    if let Some(poison) = &plan.poison {
        replayed += chaos_phase(args, plan, poison, &tally, &mut extra, &mut failures)?;
    }
    let mut expect = plan.expect.clone();
    if args.probe_overload > 0 {
        let bounced = probe_overload(&args.addr, args.probe_overload)?;
        if bounced == 0 {
            failures.push("overload probe never saw `overloaded`".to_string());
        }
        expect.push((&["overloaded"], bounced));
        extra.push((
            "overload_probe",
            json::object(vec![
                ("sent", Value::from(args.probe_overload)),
                ("overloaded", uint(bounced)),
            ]),
        ));
    }

    let after = stats_counters(direct)?;
    let mut moved = Vec::new();
    for (names, min) in expect {
        let mut total = 0;
        for &name in names {
            let delta = counter(&after, name).saturating_sub(counter(&before, name));
            moved.push((name, uint(delta)));
            total += delta;
        }
        if total < min {
            failures.push(format!(
                "server counter {} moved by {total}, expected at least {min}",
                names.join("+")
            ));
        }
    }
    let [accepted, lost, duplicated, caught] = [
        &tally.accepted,
        &tally.lost,
        &tally.duplicated,
        &tally.corruption_caught,
    ]
    .map(load);
    if lost > 0 {
        failures.push(format!(
            "{lost} request(s) never got a reply matching the oracle"
        ));
    }
    if duplicated > 0 {
        failures.push(format!("{duplicated} duplicated reply(s)"));
    }
    if accepted != replayed as u64 {
        failures.push(format!("accepted {accepted} of {replayed} replies"));
    }
    if args.mode != Mode::Chaos && caught > 0 {
        failures.push(format!(
            "{caught} corrupt reply(s) with no proxy in the path"
        ));
    }
    for f in &failures {
        eprintln!("loadgen: FAIL: {f}");
    }

    let mut report = vec![
        ("mode", Value::from(args.mode.name())),
        ("addr", Value::from(args.addr.as_str())),
        ("spec", Value::from(args.spec.as_str())),
        ("task", Value::from(plan.task.as_str())),
        ("seed", uint(args.seed)),
        ("connections", Value::from(args.connections)),
        ("retries", Value::from(args.retries)),
        ("distinct", Value::from(plan.pool.len())),
        ("replayed", Value::from(replayed)),
        ("accepted", uint(accepted)),
        ("lost", uint(lost)),
        ("duplicated", uint(duplicated)),
        ("corruption_caught", uint(caught)),
        ("retried_attempts", uint(load(&tally.retried))),
        ("counters", json::object(moved)),
    ];
    report.extend(extra);
    report.push((
        "failures",
        Value::Array(failures.iter().map(|f| Value::from(f.as_str())).collect()),
    ));
    report.push(("passed", Value::Bool(failures.is_empty())));
    Ok(json::object(report))
}

/// The whole command: plan, replay and check, report, then the
/// `--dump` and `--shutdown` epilogue. Returns whether the run passed.
fn run(args: &Args) -> Result<bool, String> {
    let plan = plan(args)?;
    let sampler = Sampler::start(args);
    let report = check(args, &plan);
    if let Some(sampler) = sampler {
        sampler.finish()?;
    }
    let report = report?;
    let text = report.to_pretty();
    print!("{text}");
    if let Some(path) = &args.out {
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if args.dump {
        eprintln!("loadgen: dump: {}", query_result(args.direct(), "dump")?);
    }
    if args.shutdown {
        let ack = query(args.direct(), "shutdown")?;
        if ack.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("shutdown not acknowledged: {ack}"));
        }
    }
    Ok(report.get("passed") == Some(&Value::Bool(true)))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use disparity_service::server::{serve_with, ServeOptions, ServerHandle};
    use disparity_service::service::{Service, ServiceConfig};

    use super::*;

    fn server() -> ServerHandle {
        let service = Service::start(ServiceConfig::default());
        serve_with("127.0.0.1:0", service, ServeOptions::default()).expect("bind loopback")
    }

    fn args(handle: &ServerHandle, mode: Mode, spec: &str) -> Args {
        Args {
            addr: handle.addr().to_string(),
            mode,
            spec: format!("{}/../../specs/{spec}", env!("CARGO_MANIFEST_DIR")),
            requests: 12,
            connections: 3,
            ..Args::default()
        }
    }

    fn passes(mode: Mode, spec: &str) {
        let handle = server();
        let args = args(&handle, mode, spec);
        let report = check(&args, &plan(&args).expect("plan")).expect("run");
        handle.shutdown();
        assert_eq!(
            report.get("passed"),
            Some(&Value::Bool(true)),
            "{}",
            report.to_pretty()
        );
        assert_eq!(report.get("accepted"), report.get("replayed"));
    }

    #[test]
    fn disparity_mode_passes_against_an_in_process_server() {
        passes(Mode::Disparity, "waters_clean.json");
    }

    #[test]
    fn patch_mode_passes_against_an_in_process_server() {
        passes(Mode::Patch, "waters_clean.json");
    }

    #[test]
    fn optimize_mode_passes_against_an_in_process_server() {
        // perception.json has useful buffer candidates; the WATERS spec's
        // plans are all no-ops and score no search states.
        passes(Mode::Optimize, "perception.json");
    }

    #[test]
    fn chaos_mode_passes_against_an_in_process_server() {
        passes(Mode::Chaos, "waters_clean.json");
    }

    #[test]
    fn a_reply_one_byte_off_the_oracle_is_never_accepted() {
        let handle = server();
        let mut args = args(&handle, Mode::Disparity, "waters_clean.json");
        args.requests = 4;
        let mut plan = plan(&args).expect("plan");
        let result = &mut plan.pool[0].result;
        let at = result.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
        let digit = (result.as_bytes()[at] - b'0' + 1) % 10;
        result.replace_range(at..=at, &digit.to_string());
        let report = check(&args, &plan).expect("run");
        handle.shutdown();
        let int = |name: &str| report.get(name).and_then(Value::as_i64);
        assert_eq!(int("accepted"), Some(1), "only the untouched seat matches");
        assert_eq!(int("lost"), Some(4));
        assert_eq!(int("corruption_caught"), Some(8), "every attempt is caught");
        assert_eq!(report.get("passed"), Some(&Value::Bool(false)));
    }

    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_request_line_is_one_write_including_its_newline() {
        let mut out = Writes::default();
        for line in ["{\"id\":1,\"op\":\"ping\"}", "{\"id\":22,\"op\":\"stats\"}"] {
            send_line(&mut out, line).unwrap();
        }
        assert_eq!(out.0.len(), 2, "one write per request");
        assert_eq!(out.0[1], b"{\"id\":22,\"op\":\"stats\"}\n");
        for w in &out.0 {
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(w.last(), Some(&b'\n'));
        }
    }

    #[test]
    fn client_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let conn = Conn::open(&listener.local_addr().unwrap().to_string()).unwrap();
        assert!(conn.stream.nodelay().unwrap(), "TCP_NODELAY must be set");
    }
}
