//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request is one JSON object on one line; the server answers with
//! exactly one JSON object on one line, echoing the request's `id`.
//! Encoding goes through the in-tree codec ([`disparity_model::json`]),
//! which escapes control characters, so a response line is always valid
//! JSON and always exactly one line.
//!
//! The result encoders ([`encode_disparity_result`] and friends) are pure
//! functions of the analysis output. The byte-identity tests call them on
//! reports produced by a direct [`AnalysisEngine`] run and compare against
//! server bytes — nothing request-scoped (cache hits, queue position,
//! timing) may leak into them.
//!
//! The one request-scoped member a wire response *does* carry is the
//! `trace_id`: transports stamp it onto the already-encoded line with
//! [`attach_trace`] as the very last step, and verifiers peel it back off
//! with [`split_trace`] to recover the pure bytes. The encoders and
//! [`response_line`] itself never see it.
//!
//! [`AnalysisEngine`]: disparity_core::engine::AnalysisEngine

use disparity_core::buffering::{BufferedSide, OptimizationOutcome};
use disparity_core::disparity::DisparityReport;
use disparity_core::pairwise::Method;
use disparity_model::chain::Chain;
use disparity_model::edit::SpecEdit;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::json::{self, Value};
use disparity_model::spec::SystemSpec;
use disparity_model::time::Duration;
use disparity_opt::{BackendChoice, DisparityTarget, GlobalPlan, DEFAULT_BEAM_WIDTH};

/// Default chain-enumeration budget (mirrors
/// [`disparity_core::disparity::AnalysisConfig`]).
pub const DEFAULT_CHAIN_LIMIT: usize = 4096;

/// Default greedy-buffering round budget.
pub const DEFAULT_MAX_ROUNDS: usize = 4;

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Worst-case time disparity of one task (Theorem 1/2, §III).
    Disparity {
        /// The analyzed spec.
        spec: SystemSpec,
        /// Name of the task to analyze.
        task: String,
        /// Which pairwise theorem to apply.
        method: Method,
        /// Chain-enumeration budget.
        chain_limit: usize,
    },
    /// WCBT/BCBT of one explicit chain (Lemmas 4–6).
    Backward {
        /// The analyzed spec.
        spec: SystemSpec,
        /// Task names along the chain, head to tail.
        chain: Vec<String>,
    },
    /// Algorithm 1 buffer sizing (greedy multi-round extension).
    Buffer {
        /// The analyzed spec.
        spec: SystemSpec,
        /// Name of the fusion task to optimize.
        task: String,
        /// Which pairwise theorem scores each round.
        method: Method,
        /// Chain-enumeration budget.
        chain_limit: usize,
        /// Greedy round budget.
        max_rounds: usize,
    },
    /// Incremental re-analysis: apply `edits` to an already-cached base
    /// spec (named by its canonical hash) and answer the same query as
    /// [`Op::Disparity`] would for the edited system — byte-identical
    /// result, without resending or rebuilding the full spec.
    Patch {
        /// [`SystemSpec::canonical_hash`] of the base spec, which must
        /// already be cached (send the full spec once first).
        base: u64,
        /// Edits applied to the base spec, in order.
        edits: Vec<SpecEdit>,
        /// Name of the task to analyze in the edited system.
        task: String,
        /// Which pairwise theorem to apply.
        method: Method,
        /// Chain-enumeration budget.
        chain_limit: usize,
    },
    /// Global buffer-plan optimization (§IV generalized): search
    /// per-channel FIFO capacities under a total extra-slot budget and
    /// optional per-task disparity targets, scored through the
    /// incremental engine, validated against cold re-analysis.
    Optimize {
        /// The analyzed spec (exactly one of `spec` / `base`).
        spec: Option<SystemSpec>,
        /// Canonical hash of an already-cached base spec (exactly one
        /// of `spec` / `base`; mirrors [`Op::Patch`]).
        base: Option<u64>,
        /// Total extra FIFO slots the plan may allocate.
        budget_slots: usize,
        /// Optional per-task disparity targets (soft).
        targets: Vec<DisparityTarget>,
        /// Which search backend runs.
        backend: BackendChoice,
        /// Seed of the deterministic tie-break.
        seed: u64,
        /// Admit plans that introduce new D007 (over-buffered channel)
        /// findings. Off by default: optimizing a clean spec keeps it
        /// clean.
        allow_overbuffering: bool,
        /// Which pairwise theorem scores candidates.
        method: Method,
        /// Chain-enumeration budget.
        chain_limit: usize,
        /// When set, validate the optimized spec by simulating this
        /// many milliseconds and report observed per-task disparities.
        sim_horizon_ms: Option<u64>,
    },
    /// Server statistics (counters, queue depth, latency percentiles).
    Stats,
    /// Live metrics: Prometheus-style text exposition plus sliding-window
    /// latency percentiles per endpoint.
    Metrics,
    /// Flight-recorder dump: write a postmortem NDJSON artifact (when the
    /// server has a postmortem directory configured) and report its path.
    Dump,
    /// Worker-pool health: configured vs. alive workers, respawns,
    /// quarantine size, drain flag.
    Health,
    /// Liveness probe.
    Ping,
    /// Hold a worker for the given number of milliseconds (testing aid:
    /// saturates the queue deterministically).
    Sleep {
        /// How long the worker sleeps.
        millis: u64,
    },
    /// Panic while processing (testing aid: exercises panic isolation,
    /// the worker supervisor, and spec quarantine deterministically).
    Panic {
        /// The spec whose hash takes the quarantine strike.
        spec: SystemSpec,
        /// How the panic is delivered.
        kind: PanicKind,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// How an [`Op::Panic`] request panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// Panic inside the per-request isolation boundary: the client gets a
    /// structured `internal_error` response and the worker survives.
    Unwind,
    /// Panic *outside* the boundary, killing the worker thread: the
    /// request goes unanswered and the supervisor must respawn the
    /// worker. Models a bug the isolation layer failed to contain.
    Worker,
}

impl Op {
    /// The spec a request carries, when its op analyzes one. Drives the
    /// quarantine check and the `internal_error` hash echo.
    ///
    /// [`Op::Patch`] carries no spec (only a hash and edits), so — like
    /// `ping`/`stats` — it is outside quarantine tracking; its derived
    /// spec is admitted through the same diag/schedulability gates as a
    /// full-spec request instead.
    #[must_use]
    pub fn spec(&self) -> Option<&SystemSpec> {
        match self {
            Op::Disparity { spec, .. }
            | Op::Backward { spec, .. }
            | Op::Buffer { spec, .. }
            | Op::Panic { spec, .. } => Some(spec),
            Op::Optimize { spec, .. } => spec.as_ref(),
            Op::Patch { .. }
            | Op::Stats
            | Op::Metrics
            | Op::Dump
            | Op::Health
            | Op::Ping
            | Op::Sleep { .. }
            | Op::Shutdown => None,
        }
    }
}

/// A request-scoped trace id: connection id in the high 32 bits, the
/// connection's request sequence number in the low 32 bits. Echoed as
/// `trace_id` in every response line and installed as the worker's span
/// context (see [`disparity_obs::trace_scope`]), so a wire response, its
/// span tree in the Chrome trace, and its flight-recorder events all
/// correlate on the same token. Batch mode uses connection id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Compose from a connection id and that connection's request
    /// sequence number (both truncated to 32 bits).
    #[must_use]
    pub fn new(conn: u64, seq: u64) -> Self {
        TraceId(((conn & 0xffff_ffff) << 32) | (seq & 0xffff_ffff))
    }

    /// The raw 64-bit token (what [`disparity_obs::trace_scope`] takes).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for TraceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&disparity_obs::format_trace_id(self.0))
    }
}

/// Stamp `trace` onto an already-encoded response line as its trailing
/// `trace_id` member. Must be the transport's last step before the bytes
/// hit the wire: everything before the stamp stays byte-identical to a
/// direct engine run, which is what the byte-identity oracles compare.
#[must_use]
pub fn attach_trace(line: &str, trace: TraceId) -> String {
    let Some(body) = line.strip_suffix('}') else {
        // Not a JSON object (can't happen for lines we build); pass through.
        return line.to_string();
    };
    let sep = if body.ends_with('{') { "" } else { "," };
    format!("{body}{sep}\"trace_id\":\"{trace}\"}}")
}

/// Undo [`attach_trace`]: split a wire response into its pure line (the
/// bytes a direct engine run encodes to) and the `trace_id` text.
/// Returns `None` when the line carries no trailing trace stamp.
#[must_use]
pub fn split_trace(line: &str) -> Option<(String, String)> {
    let marker = ",\"trace_id\":\"";
    let start = line.rfind(marker)?;
    let id = line[start + marker.len()..].strip_suffix("\"}")?;
    Some((format!("{}}}", &line[..start]), id.to_string()))
}

/// Whether `id` spells a well-formed trace id: two dash-separated
/// 8-digit lowercase-hex halves (`HHHHHHHH-HHHHHHHH`).
#[must_use]
pub fn is_trace_id(id: &str) -> bool {
    let bytes = id.as_bytes();
    bytes.len() == 17
        && bytes[8] == b'-'
        && bytes
            .iter()
            .enumerate()
            .all(|(i, &b)| i == 8 || b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// A parsed request: the echoed `id` plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation value, echoed verbatim in the response.
    pub id: Value,
    /// Optional soft deadline in milliseconds; the analysis is abandoned
    /// (status `timeout`) once it expires.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// Why a request could not be parsed into a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    message: String,
    /// The request `id`, when it could at least be extracted.
    pub id: Value,
}

impl ProtoError {
    fn new(id: &Value, message: impl Into<String>) -> Self {
        ProtoError {
            message: message.into(),
            id: id.clone(),
        }
    }
}

impl core::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Terminal status of a response. Every accepted request line gets exactly
/// one response carrying one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; `result` holds the payload.
    Ok,
    /// The request was malformed or the analysis failed.
    Error,
    /// Admission control bounced the request (queue full). Retry later.
    Overloaded,
    /// The soft deadline expired before the analysis finished.
    Timeout,
    /// The diag gate rejected the spec (D-level errors), or the spec is
    /// quarantined after repeated panics.
    Rejected,
    /// The server is draining; the request was not accepted.
    ShuttingDown,
    /// The request panicked inside the server; the panic was contained
    /// and the worker survived. The error message carries the spec's
    /// `canonical_hash` (when the op had a spec) and the panic payload.
    InternalError,
}

impl Status {
    /// The wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Overloaded => "overloaded",
            Status::Timeout => "timeout",
            Status::Rejected => "rejected",
            Status::ShuttingDown => "shutting_down",
            Status::InternalError => "internal_error",
        }
    }
}

fn parse_method(v: Option<&Value>) -> Result<Method, String> {
    match v {
        None => Ok(Method::ForkJoin),
        Some(v) => match v.as_str() {
            Some("independent" | "pdiff") => Ok(Method::Independent),
            Some("fork_join" | "sdiff") => Ok(Method::ForkJoin),
            Some("combined") => Ok(Method::Combined),
            _ => Err(format!(
                "\"method\" must be \"independent\", \"fork_join\", or \"combined\", got {v}"
            )),
        },
    }
}

/// The wire spelling of a [`Method`].
#[must_use]
pub fn method_str(method: Method) -> &'static str {
    match method {
        Method::Independent => "independent",
        Method::ForkJoin => "fork_join",
        Method::Combined => "combined",
    }
}

fn usize_field(obj: &Value, key: &str, default: usize) -> Result<usize, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("\"{key}\" must be a positive integer")),
    }
}

fn u64_field(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer")),
    }
}

/// `sim_horizon_ms`, refused when the horizon does not fit the
/// simulator's `i64` nanosecond clock (it would wrap negative).
fn horizon_ms_field(obj: &Value) -> Result<Option<u64>, String> {
    let Some(ms) = u64_field(obj, "sim_horizon_ms")? else {
        return Ok(None);
    };
    let max = i64::MAX / 1_000_000;
    i64::try_from(ms)
        .ok()
        .and_then(Duration::checked_from_millis)
        .map(|_| Some(ms))
        .ok_or_else(|| format!("\"sim_horizon_ms\" must be at most {max}, got {ms}"))
}

fn spec_field(obj: &Value, id: &Value) -> Result<SystemSpec, ProtoError> {
    let spec = obj
        .get("spec")
        .ok_or_else(|| ProtoError::new(id, "missing \"spec\""))?;
    SystemSpec::from_json(spec).map_err(|e| ProtoError::new(id, format!("bad \"spec\": {e}")))
}

fn task_field(obj: &Value, id: &Value) -> Result<String, ProtoError> {
    obj.get("task")
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::new(id, "missing or non-string \"task\""))
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] (carrying the extracted `id` when present) for
    /// malformed JSON, an unknown `op`, or missing/mistyped fields.
    pub fn parse(line: &str) -> Result<Request, ProtoError> {
        let value = Value::parse(line)
            .map_err(|e| ProtoError::new(&Value::Null, format!("malformed JSON: {e}")))?;
        Request::from_value(&value)
    }

    /// Parses an already-decoded request object.
    ///
    /// # Errors
    ///
    /// As for [`Request::parse`].
    pub fn from_value(value: &Value) -> Result<Request, ProtoError> {
        let id = value.get("id").cloned().unwrap_or(Value::Null);
        if value.as_object().is_none() {
            return Err(ProtoError::new(&id, "request must be a JSON object"));
        }
        let op_name = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ProtoError::new(&id, "missing or non-string \"op\""))?;
        let deadline_ms = u64_field(value, "deadline_ms").map_err(|m| ProtoError::new(&id, m))?;
        let op = match op_name {
            "disparity" => Op::Disparity {
                spec: spec_field(value, &id)?,
                task: task_field(value, &id)?,
                method: parse_method(value.get("method")).map_err(|m| ProtoError::new(&id, m))?,
                chain_limit: usize_field(value, "chain_limit", DEFAULT_CHAIN_LIMIT)
                    .map_err(|m| ProtoError::new(&id, m))?,
            },
            "backward" => {
                let chain = value
                    .get("chain")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ProtoError::new(&id, "missing or non-array \"chain\""))?;
                let names: Option<Vec<String>> = chain
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect();
                Op::Backward {
                    spec: spec_field(value, &id)?,
                    chain: names
                        .ok_or_else(|| ProtoError::new(&id, "\"chain\" must hold task names"))?,
                }
            }
            "buffer" => Op::Buffer {
                spec: spec_field(value, &id)?,
                task: task_field(value, &id)?,
                method: parse_method(value.get("method")).map_err(|m| ProtoError::new(&id, m))?,
                chain_limit: usize_field(value, "chain_limit", DEFAULT_CHAIN_LIMIT)
                    .map_err(|m| ProtoError::new(&id, m))?,
                max_rounds: usize_field(value, "max_rounds", DEFAULT_MAX_ROUNDS)
                    .map_err(|m| ProtoError::new(&id, m))?,
            },
            "patch" => {
                let base = value.get("base").and_then(Value::as_str).ok_or_else(|| {
                    ProtoError::new(&id, "missing or non-string \"base\" (16-hex canonical hash)")
                })?;
                let base = u64::from_str_radix(base, 16).map_err(|_| {
                    ProtoError::new(&id, format!("bad \"base\": {base:?} is not a hex hash"))
                })?;
                let edit_values = value
                    .get("edits")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ProtoError::new(&id, "missing or non-array \"edits\""))?;
                let mut edits = Vec::with_capacity(edit_values.len());
                for (index, edit) in edit_values.iter().enumerate() {
                    edits.push(SpecEdit::from_json(edit).map_err(|e| {
                        ProtoError::new(&id, format!("bad edit [{index}]: {e}"))
                    })?);
                }
                Op::Patch {
                    base,
                    edits,
                    task: task_field(value, &id)?,
                    method: parse_method(value.get("method"))
                        .map_err(|m| ProtoError::new(&id, m))?,
                    chain_limit: usize_field(value, "chain_limit", DEFAULT_CHAIN_LIMIT)
                        .map_err(|m| ProtoError::new(&id, m))?,
                }
            }
            "optimize" => {
                let spec = match value.get("spec") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(spec_field(value, &id)?),
                };
                let base = match value.get("base") {
                    None | Some(Value::Null) => None,
                    Some(v) => {
                        let text = v.as_str().ok_or_else(|| {
                            ProtoError::new(&id, "\"base\" must be a 16-hex canonical hash string")
                        })?;
                        Some(u64::from_str_radix(text, 16).map_err(|_| {
                            ProtoError::new(&id, format!("bad \"base\": {text:?} is not a hex hash"))
                        })?)
                    }
                };
                if spec.is_some() == base.is_some() {
                    return Err(ProtoError::new(
                        &id,
                        "\"optimize\" needs exactly one of \"spec\" or \"base\"",
                    ));
                }
                let budget_slots = value
                    .get("budget_slots")
                    .and_then(Value::as_i64)
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| {
                        ProtoError::new(&id, "missing or negative \"budget_slots\"")
                    })?;
                let mut targets = Vec::new();
                if let Some(list) = value.get("targets") {
                    let list = list.as_array().ok_or_else(|| {
                        ProtoError::new(&id, "\"targets\" must be an array")
                    })?;
                    for (index, t) in list.iter().enumerate() {
                        let task = t.get("task").and_then(Value::as_str).ok_or_else(|| {
                            ProtoError::new(&id, format!("target [{index}]: missing \"task\""))
                        })?;
                        let bound = t
                            .get("bound_ns")
                            .and_then(Value::as_i64)
                            .filter(|&n| n >= 0)
                            .ok_or_else(|| {
                                ProtoError::new(
                                    &id,
                                    format!("target [{index}]: missing or negative \"bound_ns\""),
                                )
                            })?;
                        targets.push(DisparityTarget {
                            task: task.to_string(),
                            bound: Duration::from_nanos(bound),
                        });
                    }
                }
                let beam_width = usize_field(value, "beam_width", DEFAULT_BEAM_WIDTH)
                    .map_err(|m| ProtoError::new(&id, m))?;
                let backend = match value.get("backend").and_then(Value::as_str) {
                    None | Some("auto") => BackendChoice::Auto,
                    Some("branch_and_bound") => BackendChoice::BranchAndBound,
                    Some("beam") => BackendChoice::Beam { width: beam_width },
                    Some(other) => {
                        return Err(ProtoError::new(
                            &id,
                            format!(
                                "\"backend\" must be \"auto\", \"branch_and_bound\" or \"beam\", got {other:?}"
                            ),
                        ));
                    }
                };
                Op::Optimize {
                    spec,
                    base,
                    budget_slots,
                    targets,
                    backend,
                    seed: u64_field(value, "seed")
                        .map_err(|m| ProtoError::new(&id, m))?
                        .unwrap_or(0),
                    allow_overbuffering: value
                        .get("allow_overbuffering")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                    method: parse_method(value.get("method"))
                        .map_err(|m| ProtoError::new(&id, m))?,
                    chain_limit: usize_field(value, "chain_limit", DEFAULT_CHAIN_LIMIT)
                        .map_err(|m| ProtoError::new(&id, m))?,
                    sim_horizon_ms: horizon_ms_field(value)
                        .map_err(|m| ProtoError::new(&id, m))?,
                }
            }
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "dump" => Op::Dump,
            "health" => Op::Health,
            "ping" => Op::Ping,
            "sleep" => Op::Sleep {
                millis: u64_field(value, "millis")
                    .map_err(|m| ProtoError::new(&id, m))?
                    .unwrap_or(10),
            },
            "panic" => Op::Panic {
                spec: spec_field(value, &id)?,
                kind: match value.get("mode").and_then(Value::as_str) {
                    None | Some("unwind") => PanicKind::Unwind,
                    Some("worker") => PanicKind::Worker,
                    Some(other) => {
                        return Err(ProtoError::new(
                            &id,
                            format!("\"mode\" must be \"unwind\" or \"worker\", got {other:?}"),
                        ));
                    }
                },
            },
            "shutdown" => Op::Shutdown,
            other => {
                return Err(ProtoError::new(&id, format!("unknown op {other:?}")));
            }
        };
        Ok(Request {
            id,
            deadline_ms,
            op,
        })
    }

    /// The endpoint label used for metrics (one per op kind).
    #[must_use]
    pub fn endpoint(&self) -> &'static str {
        match self.op {
            Op::Disparity { .. } => "disparity",
            Op::Backward { .. } => "backward",
            Op::Buffer { .. } => "buffer",
            Op::Patch { .. } => "patch",
            Op::Optimize { .. } => "optimize",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Dump => "dump",
            Op::Health => "health",
            Op::Ping => "ping",
            Op::Sleep { .. } => "sleep",
            Op::Panic { .. } => "panic",
            Op::Shutdown => "shutdown",
        }
    }
}

/// Builds a response line (no trailing newline): `id` echo, `status`, and
/// either a `result` payload or an `error` message.
#[must_use]
pub fn response_line(id: &Value, status: Status, body: ResponseBody) -> String {
    let mut members = vec![
        ("id", id.clone()),
        ("status", Value::from(status.as_str())),
    ];
    match body {
        ResponseBody::Result(v) => members.push(("result", v)),
        ResponseBody::Error(msg) => members.push(("error", Value::from(msg))),
        ResponseBody::None => {}
    }
    json::object(members).to_string()
}

/// [`response_line`] for an `ok` outcome whose `result` payload is
/// already rendered: splices the text in without re-encoding a [`Value`]
/// tree. Byte-identical to
/// `response_line(id, Status::Ok, ResponseBody::Result(v))` whenever
/// `rendered_result == v.to_string()` — the `patch` memo's warm path
/// relies on this, and `prerendered_line_matches_response_line` pins it.
#[must_use]
pub fn ok_line_prerendered(id: &Value, rendered_result: &str) -> String {
    let mut line = String::with_capacity(rendered_result.len() + 40);
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"status\":\"ok\",\"result\":");
    line.push_str(rendered_result);
    line.push('}');
    line
}

/// The payload half of a response.
#[derive(Debug, Clone)]
pub enum ResponseBody {
    /// Success payload for the `result` member.
    Result(Value),
    /// Failure message for the `error` member.
    Error(String),
    /// Neither (bare terminal statuses like `shutting_down`).
    None,
}

fn chain_names(graph: &CauseEffectGraph, chain: &Chain) -> Value {
    Value::Array(
        chain
            .tasks()
            .iter()
            .map(|&t| Value::from(graph.task(t).name()))
            .collect(),
    )
}

/// Encodes a [`DisparityReport`] as the `disparity` result payload.
///
/// Deterministic: depends only on the report and the graph it was computed
/// against, so a direct engine run encodes to the same bytes the server
/// returns.
#[must_use]
pub fn encode_disparity_result(graph: &CauseEffectGraph, report: &DisparityReport) -> Value {
    let critical = report.critical_pair().map_or(Value::Null, |p| {
        json::object(vec![
            ("lambda", chain_names(graph, &report.chains[p.lambda])),
            ("nu", chain_names(graph, &report.chains[p.nu])),
            ("analyzed_at", Value::from(graph.task(p.analyzed_at).name())),
            ("bound_ns", Value::Int(p.bound.as_nanos())),
        ])
    });
    json::object(vec![
        ("task", Value::from(graph.task(report.task).name())),
        ("method", Value::from(method_str(report.method))),
        ("bound_ns", Value::Int(report.bound.as_nanos())),
        ("chains", Value::from(report.chains.len())),
        ("pairs", Value::from(report.pairs.len())),
        ("critical", critical),
    ])
}

/// Encodes WCBT/BCBT bounds as the `backward` result payload.
#[must_use]
pub fn encode_backward_result(
    graph: &CauseEffectGraph,
    chain: &Chain,
    bounds: disparity_core::backward::BackwardBounds,
) -> Value {
    json::object(vec![
        ("chain", chain_names(graph, chain)),
        ("wcbt_ns", Value::Int(bounds.wcbt.as_nanos())),
        ("bcbt_ns", Value::Int(bounds.bcbt.as_nanos())),
    ])
}

/// Encodes an [`OptimizationOutcome`] as the `buffer` result payload.
#[must_use]
pub fn encode_buffer_result(graph: &CauseEffectGraph, outcome: &OptimizationOutcome) -> Value {
    let steps = outcome
        .steps
        .iter()
        .map(|s| {
            json::object(vec![
                (
                    "side",
                    Value::from(match s.plan.side {
                        BufferedSide::Lambda => "lambda",
                        BufferedSide::Nu => "nu",
                    }),
                ),
                ("capacity", Value::from(s.plan.capacity)),
                ("shift_ns", Value::Int(s.plan.shift.as_nanos())),
                ("bound_after_ns", Value::Int(s.bound_after_step.as_nanos())),
            ])
        })
        .collect();
    json::object(vec![
        (
            "task",
            Value::from(graph.task(outcome.final_report.task).name()),
        ),
        ("initial_bound_ns", Value::Int(outcome.initial_bound.as_nanos())),
        ("final_bound_ns", Value::Int(outcome.final_bound().as_nanos())),
        ("improvement_ns", Value::Int(outcome.improvement().as_nanos())),
        ("rounds", Value::from(outcome.steps.len())),
        ("steps", Value::Array(steps)),
    ])
}

fn ns_i64(v: i128) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Encodes a [`GlobalPlan`] as the `optimize` result payload.
///
/// Pure over its inputs: a direct [`disparity_opt`] run plus the
/// canonical hash of the plan-applied spec encodes to exactly the bytes
/// the server returns, which is how the loadgen replay mode verifies
/// responses end to end.
#[must_use]
pub fn encode_optimize_result(
    plan: &GlobalPlan,
    optimized_hash: u64,
    sim: Option<Value>,
) -> Value {
    let assignments = plan
        .assignments
        .iter()
        .map(|a| {
            json::object(vec![
                ("from", Value::from(a.from.as_str())),
                ("to", Value::from(a.to.as_str())),
                ("base_capacity", Value::from(a.base_capacity)),
                ("capacity", Value::from(a.capacity)),
            ])
        })
        .collect();
    let predictions = plan
        .predictions
        .iter()
        .map(|p| {
            let pairs = p
                .pairs
                .iter()
                .map(|d| {
                    json::object(vec![
                        ("lambda", Value::from(d.lambda)),
                        ("nu", Value::from(d.nu)),
                        ("analyzed_at", Value::from(d.analyzed_at.as_str())),
                        ("before_ns", Value::Int(d.before.as_nanos())),
                        ("after_ns", Value::Int(d.after.as_nanos())),
                    ])
                })
                .collect();
            json::object(vec![
                ("task", Value::from(p.task.as_str())),
                ("before_ns", Value::Int(p.before.as_nanos())),
                ("after_ns", Value::Int(p.after.as_nanos())),
                (
                    "target_ns",
                    p.target.map_or(Value::Null, |t| Value::Int(t.as_nanos())),
                ),
                ("met", p.met().map_or(Value::Null, Value::Bool)),
                ("pairs", Value::Array(pairs)),
            ])
        })
        .collect();
    json::object(vec![
        ("backend", Value::from(plan.backend)),
        ("slots_used", Value::from(plan.slots_used)),
        ("assignments", Value::Array(assignments)),
        ("predictions", Value::Array(predictions)),
        (
            "score",
            json::object(vec![
                ("target_excess_ns", ns_i64(plan.score.target_excess_ns)),
                ("total_bound_ns", ns_i64(plan.score.total_bound_ns)),
            ]),
        ),
        ("improvement_ns", ns_i64(plan.improvement_ns())),
        ("all_targets_met", Value::Bool(plan.all_targets_met())),
        (
            "stats",
            json::object(vec![
                ("candidates", Value::from(plan.stats.candidates)),
                ("nodes", ns_i64(i128::from(plan.stats.nodes))),
                ("pruned", ns_i64(i128::from(plan.stats.pruned))),
                ("delta_scored", ns_i64(i128::from(plan.stats.delta_scored))),
                ("cold_scored", ns_i64(i128::from(plan.stats.cold_scored))),
            ]),
        ),
        (
            "optimized_spec_hash",
            Value::from(format!("{optimized_hash:016x}")),
        ),
        ("sim", sim.unwrap_or(Value::Null)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_disparity_request() {
        let line = r#"{"id":"r1","op":"disparity","task":"fuse","spec":{"tasks":[{"name":"fuse","period":1000000}]}}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(req.id, Value::Str("r1".into()));
        assert_eq!(req.endpoint(), "disparity");
        match req.op {
            Op::Disparity {
                task,
                method,
                chain_limit,
                ..
            } => {
                assert_eq!(task, "fuse");
                assert_eq!(method, Method::ForkJoin);
                assert_eq!(chain_limit, DEFAULT_CHAIN_LIMIT);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_the_id() {
        let err = Request::parse(r#"{"id":42,"op":"nope"}"#).unwrap_err();
        assert_eq!(err.id, Value::Int(42));
        assert!(err.to_string().contains("unknown op"));

        let err = Request::parse("not json").unwrap_err();
        assert_eq!(err.id, Value::Null);
    }

    #[test]
    fn parses_optimize_requests() {
        let line = r#"{"id":"o1","op":"optimize","base":"00000000deadbeef","budget_slots":3,"targets":[{"task":"fuse","bound_ns":5000000}],"backend":"beam","beam_width":4,"seed":9,"allow_overbuffering":true,"sim_horizon_ms":250}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(req.endpoint(), "optimize");
        match req.op {
            Op::Optimize {
                spec,
                base,
                budget_slots,
                targets,
                backend,
                seed,
                allow_overbuffering,
                chain_limit,
                sim_horizon_ms,
                ..
            } => {
                assert!(spec.is_none());
                assert_eq!(base, Some(0x0000_0000_dead_beef));
                assert_eq!(budget_slots, 3);
                assert_eq!(targets.len(), 1);
                assert_eq!(targets[0].task, "fuse");
                assert_eq!(targets[0].bound, Duration::from_nanos(5_000_000));
                assert_eq!(backend, BackendChoice::Beam { width: 4 });
                assert_eq!(seed, 9);
                assert!(allow_overbuffering);
                assert_eq!(chain_limit, DEFAULT_CHAIN_LIMIT);
                assert_eq!(sim_horizon_ms, Some(250));
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn optimize_requires_exactly_one_of_spec_and_base() {
        let neither = r#"{"id":1,"op":"optimize","budget_slots":2}"#;
        let err = Request::parse(neither).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");

        let both = r#"{"id":1,"op":"optimize","budget_slots":2,"base":"ff","spec":{"tasks":[{"name":"a","period":1000000}]}}"#;
        let err = Request::parse(both).unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");

        let missing_budget = r#"{"id":1,"op":"optimize","base":"ff"}"#;
        let err = Request::parse(missing_budget).unwrap_err();
        assert!(err.to_string().contains("budget_slots"), "{err}");

        let bad_backend = r#"{"id":1,"op":"optimize","base":"ff","budget_slots":0,"backend":"genetic"}"#;
        let err = Request::parse(bad_backend).unwrap_err();
        assert!(err.to_string().contains("backend"), "{err}");
    }

    #[test]
    fn out_of_range_sim_horizon_names_the_field() {
        // 1e13 ms is 1e19 ns: past i64, so an unchecked conversion wraps
        // to a negative horizon the simulator then rejects.
        let line = r#"{"id":1,"op":"optimize","base":"ff","budget_slots":1,"sim_horizon_ms":10000000000000}"#;
        let err = Request::parse(line).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("sim_horizon_ms"), "{msg}");
        assert!(!msg.contains("must be positive"), "{msg}");
        assert_eq!(err.id, Value::Int(1));

        let max = i64::MAX / 1_000_000;
        let line = |ms: i64| {
            format!(
                r#"{{"id":1,"op":"optimize","base":"ff","budget_slots":1,"sim_horizon_ms":{ms}}}"#
            )
        };
        assert!(Request::parse(&line(max)).is_ok(), "largest horizon parses");
        assert!(Request::parse(&line(max + 1)).is_err());
    }

    #[test]
    fn optimize_defaults() {
        let line = r#"{"id":1,"op":"optimize","base":"ff","budget_slots":0}"#;
        let req = Request::parse(line).unwrap();
        match req.op {
            Op::Optimize {
                budget_slots,
                targets,
                backend,
                seed,
                allow_overbuffering,
                sim_horizon_ms,
                ..
            } => {
                assert_eq!(budget_slots, 0, "zero budget is meaningful, not an error");
                assert!(targets.is_empty());
                assert_eq!(backend, BackendChoice::Auto);
                assert_eq!(seed, 0);
                assert!(!allow_overbuffering);
                assert_eq!(sim_horizon_ms, None);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn method_spellings() {
        for (text, want) in [
            ("independent", Method::Independent),
            ("pdiff", Method::Independent),
            ("fork_join", Method::ForkJoin),
            ("sdiff", Method::ForkJoin),
            ("combined", Method::Combined),
        ] {
            let got = parse_method(Some(&Value::from(text))).unwrap();
            assert_eq!(got, want, "{text}");
        }
        assert!(parse_method(Some(&Value::from("p_diff"))).is_err());
        assert_eq!(parse_method(None).unwrap(), Method::ForkJoin);
    }

    #[test]
    fn response_line_is_single_line_json() {
        let line = response_line(
            &Value::from("x\ny"),
            Status::Error,
            ResponseBody::Error("bad\tinput".into()),
        );
        assert!(!line.contains('\n'));
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn parses_patch_requests() {
        let line = r#"{"id":7,"op":"patch","base":"00ff00ff00ff00ff","edits":[{"kind":"set_wcet","task":"fuse","wcet":2000000}],"task":"fuse","method":"pdiff","chain_limit":64}"#;
        let req = Request::parse(line).unwrap();
        assert_eq!(req.endpoint(), "patch");
        assert!(req.op.spec().is_none(), "patch carries no full spec");
        match &req.op {
            Op::Patch {
                base,
                edits,
                task,
                method,
                chain_limit,
            } => {
                assert_eq!(*base, 0x00ff_00ff_00ff_00ff);
                assert_eq!(edits.len(), 1);
                assert_eq!(edits[0].kind(), "set_wcet");
                assert_eq!(task, "fuse");
                assert_eq!(*method, Method::Independent);
                assert_eq!(*chain_limit, 64);
            }
            other => panic!("expected patch, got {other:?}"),
        }
    }

    #[test]
    fn patch_parse_errors_name_the_field() {
        let missing_base = r#"{"id":1,"op":"patch","edits":[],"task":"t"}"#;
        let err = Request::parse(missing_base).unwrap_err();
        assert!(err.to_string().contains("\"base\""), "{err}");
        let bad_base = r#"{"id":1,"op":"patch","base":"zz","edits":[],"task":"t"}"#;
        let err = Request::parse(bad_base).unwrap_err();
        assert!(err.to_string().contains("not a hex hash"), "{err}");
        let bad_edit =
            r#"{"id":1,"op":"patch","base":"0f","edits":[{"kind":"warp"}],"task":"t"}"#;
        let err = Request::parse(bad_edit).unwrap_err();
        assert!(err.to_string().contains("bad edit [0]"), "{err}");
    }

    #[test]
    fn prerendered_line_matches_response_line() {
        let result = json::object(vec![
            ("task", Value::from("fuse")),
            ("bound_ns", Value::Int(123)),
            ("critical", Value::Null),
        ]);
        for id in [Value::Int(42), Value::from("req \"x\"\n7"), Value::Null] {
            let via_value =
                response_line(&id, Status::Ok, ResponseBody::Result(result.clone()));
            let via_text = ok_line_prerendered(&id, &result.to_string());
            assert_eq!(via_value, via_text);
        }
    }

    #[test]
    fn parses_panic_and_health_ops() {
        let spec = r#"{"tasks":[{"name":"boom","period":1000000}]}"#;
        let req =
            Request::parse(&format!(r#"{{"id":1,"op":"panic","spec":{spec}}}"#)).unwrap();
        assert_eq!(req.endpoint(), "panic");
        match &req.op {
            Op::Panic { kind, spec } => {
                assert_eq!(*kind, PanicKind::Unwind);
                assert!(req.op.spec().is_some());
                assert_eq!(spec.canonical_hash(), req.op.spec().unwrap().canonical_hash());
            }
            other => panic!("wrong op: {other:?}"),
        }
        let req = Request::parse(&format!(
            r#"{{"id":1,"op":"panic","mode":"worker","spec":{spec}}}"#
        ))
        .unwrap();
        assert!(matches!(
            req.op,
            Op::Panic {
                kind: PanicKind::Worker,
                ..
            }
        ));
        assert!(Request::parse(
            &format!(r#"{{"id":1,"op":"panic","mode":"abort","spec":{spec}}}"#)
        )
        .is_err());
        assert!(Request::parse(r#"{"id":1,"op":"panic"}"#).is_err());

        let req = Request::parse(r#"{"id":2,"op":"health"}"#).unwrap();
        assert_eq!(req.op, Op::Health);
        assert!(req.op.spec().is_none());
    }

    #[test]
    fn internal_error_status_spelling() {
        assert_eq!(Status::InternalError.as_str(), "internal_error");
        let line = response_line(
            &Value::Int(9),
            Status::InternalError,
            ResponseBody::Error("panic while processing".into()),
        );
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("internal_error"));
    }

    #[test]
    fn parses_metrics_and_dump_ops() {
        let req = Request::parse(r#"{"id":1,"op":"metrics"}"#).unwrap();
        assert_eq!(req.op, Op::Metrics);
        assert_eq!(req.endpoint(), "metrics");
        assert!(req.op.spec().is_none());
        let req = Request::parse(r#"{"id":2,"op":"dump"}"#).unwrap();
        assert_eq!(req.op, Op::Dump);
        assert_eq!(req.endpoint(), "dump");
    }

    #[test]
    fn trace_id_round_trips_through_attach_and_split() {
        let trace = TraceId::new(3, 17);
        assert_eq!(trace.to_string(), "00000003-00000011");
        assert!(is_trace_id(&trace.to_string()));
        assert!(!is_trace_id("0000000300000011"));
        assert!(!is_trace_id("0000000G-00000011"));

        let line = response_line(&Value::Int(7), Status::Ok, ResponseBody::None);
        let stamped = attach_trace(&line, trace);
        assert!(stamped.ends_with(r#""trace_id":"00000003-00000011"}"#));
        let v = Value::parse(&stamped).unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_str(), Some("00000003-00000011"));
        let (core, id) = split_trace(&stamped).unwrap();
        assert_eq!(core, line);
        assert_eq!(id, "00000003-00000011");
        assert!(split_trace(&line).is_none());
    }

    #[test]
    fn attach_trace_handles_error_and_refusal_lines() {
        for (status, body) in [
            (Status::Overloaded, ResponseBody::Error("queue full".into())),
            (Status::InternalError, ResponseBody::Error("panic".into())),
            (Status::Error, ResponseBody::Error("trace_id\":\"decoy".into())),
        ] {
            let line = response_line(&Value::Null, status, body);
            let stamped = attach_trace(&line, TraceId::new(1, 1));
            let v = Value::parse(&stamped).expect("stamped line stays valid JSON");
            assert_eq!(v.get("trace_id").unwrap().as_str(), Some("00000001-00000001"));
            let (core, _) = split_trace(&stamped).unwrap();
            assert_eq!(core, line, "split recovers the pure bytes");
        }
    }

    #[test]
    fn deadline_and_sleep_fields() {
        let req = Request::parse(r#"{"op":"sleep","millis":5,"deadline_ms":100}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(100));
        assert_eq!(req.op, Op::Sleep { millis: 5 });
        let req = Request::parse(r#"{"op":"sleep"}"#).unwrap();
        assert_eq!(req.op, Op::Sleep { millis: 10 });
    }
}
