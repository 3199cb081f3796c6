//! The analysis service: a fixed worker pool over the bounded intake
//! queue, the content-addressed graph cache, and per-request processing.
//!
//! [`Service`] is transport-agnostic: the TCP server and the stdin batch
//! runner both feed it [`Job`]s via [`Service::submit`] (admission
//! control) or [`Service::submit_blocking`] (backpressure). Every accepted
//! job produces exactly one [`Reply`] on its channel; refused jobs are
//! answered inline by `submit` itself, so no request line is ever dropped
//! silently.
//!
//! # Panic isolation, supervision, quarantine
//!
//! A panic while processing a request must not take a worker (or the
//! fleet) down. Three layers enforce that:
//!
//! 1. every request runs inside [`Service::process_isolated`]'s
//!    `catch_unwind` boundary — a panic becomes a structured
//!    `internal_error` response carrying the spec's `canonical_hash` and
//!    the panic payload, and the worker keeps serving;
//! 2. a supervisor thread respawns any worker that dies anyway (a panic
//!    that escapes the boundary), counted in `worker_respawns`;
//! 3. a spec whose requests have panicked [`QUARANTINE_AFTER`] times is
//!    quarantined by hash: further requests carrying it are answered
//!    `rejected` immediately, so one poisonous spec cannot grind the pool
//!    down while healthy traffic flows.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use disparity_analyzer::checks::{analyze_spec, DiagConfig};
use disparity_core::buffering::optimize_task;
use disparity_core::delta::{AnalyzedSystem, DeltaBasis};
use disparity_core::disparity::AnalysisConfig;
use disparity_core::engine::AnalysisEngine;
use disparity_core::error::AnalysisError;
use disparity_core::pairwise::Method;
use disparity_model::chain::Chain;
use disparity_model::edit::{apply_all, SpecEdit};
use disparity_model::json::{self, Value};
use disparity_model::spec::{hash_canonical_text, Canonical, SystemSpec};
use disparity_obs::flight::{self, EventKind};
use disparity_obs::{Histogram, WindowedHistogram};
use disparity_opt::{optimize_analyzed, BufferBudget, GlobalPlan, OptError, PlanRequest};
use disparity_sched::schedulability::analyze;
use disparity_sim::engine::{CommunicationSemantics, SimConfig, Simulator};
use disparity_sim::exec::ExecutionTimeModel;
use disparity_sim::fault::FaultPlan;

use crate::cache::{BaseLookup, GraphEntry, ShardedCache};
use crate::proto::{
    attach_trace, encode_backward_result, encode_buffer_result, encode_disparity_result,
    encode_optimize_result, method_str, ok_line_prerendered, response_line, Op, PanicKind,
    ProtoError, Request, ResponseBody, Status, TraceId,
};
use crate::queue::{BoundedQueue, PushError};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Intake queue capacity (admission limit).
    pub queue_capacity: usize,
    /// Graph cache capacity (number of analyzed specs kept).
    pub cache_capacity: usize,
    /// Reject specs carrying D-level diagnostics
    /// (via [`disparity_analyzer::checks::analyze_spec`]).
    pub diag_gate: bool,
    /// Worker threads *inside* each analysis engine. Keep at 1 unless the
    /// service runs fewer workers than cores; the engine's reduction is
    /// byte-identical for any value.
    pub engine_workers: usize,
    /// Rotation period of the sliding latency windows. `Some` spawns a
    /// rotation thread in [`Service::start`]; `None` leaves the windows
    /// frozen on their first interval (rotate manually via
    /// [`Service::rotate_windows`], as tests do).
    pub metrics_interval: Option<Duration>,
    /// Interval buckets per sliding window (the live view spans roughly
    /// `window_intervals x metrics_interval` of trailing time).
    pub window_intervals: usize,
    /// Where flight-recorder postmortems are written on a panic, a
    /// quarantine, or the `dump` op. `None` disables dump files (the
    /// in-memory journals still record).
    pub postmortem_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            diag_gate: false,
            engine_workers: 1,
            metrics_interval: None,
            window_intervals: disparity_obs::window::DEFAULT_INTERVALS,
            postmortem_dir: None,
        }
    }
}

/// One response on its way back to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The submitter's sequence number, echoed for reordering (batch mode
    /// restores input order; the TCP writer sends in completion order).
    pub seq: u64,
    /// The full response line, without trailing newline.
    pub line: String,
}

/// An accepted unit of work.
#[derive(Debug)]
pub struct Job {
    /// The parsed request.
    pub request: Request,
    /// Submitter sequence number, echoed in [`Reply::seq`].
    pub seq: u64,
    /// Request trace id: stamped onto the response line, installed as
    /// the worker's span context, tagged onto flight events.
    pub trace: TraceId,
    /// When admission accepted the job (start of its queue wait).
    pub accepted: Instant,
    /// Where the response line goes.
    pub reply: Sender<Reply>,
}

/// Monotonic counters exposed via the `stats` op.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests handed to `submit`/`submit_blocking` (including refused).
    pub received: AtomicU64,
    /// Requests that produced an `ok` response.
    pub completed: AtomicU64,
    /// Requests bounced by admission control.
    pub overloaded: AtomicU64,
    /// Requests refused because the service is draining.
    pub shutting_down: AtomicU64,
    /// Requests rejected by the diag gate.
    pub rejected: AtomicU64,
    /// Requests abandoned at their soft deadline.
    pub timeouts: AtomicU64,
    /// Requests answered with `error`.
    pub errors: AtomicU64,
    /// Graph-cache hits.
    pub cache_hits: AtomicU64,
    /// Graph-cache misses (spec built and analyzed from scratch).
    pub cache_misses: AtomicU64,
    /// `patch` requests whose derived entry came from the delta path
    /// (rebase of a cached basis, not a cold rebuild).
    pub patched: AtomicU64,
    /// `patch` requests answered verbatim from the response memo.
    pub patch_memo_hits: AtomicU64,
    /// `optimize` requests that produced a validated plan.
    pub optimized: AtomicU64,
    /// Optimizer search states scored through the incremental engine.
    pub opt_delta_scored: AtomicU64,
    /// Optimizer search states scored through the cold pipeline.
    pub opt_cold_scored: AtomicU64,
    /// Panics contained by the per-request isolation boundary (answered
    /// `internal_error`) plus worker deaths (unanswered).
    pub panics: AtomicU64,
    /// Requests bounced because their spec is quarantined.
    pub quarantined: AtomicU64,
    /// Dead workers the supervisor replaced.
    pub worker_respawns: AtomicU64,
}

/// Panics charged to one spec hash before it is quarantined.
pub const QUARANTINE_AFTER: u32 = 2;

/// Panic bookkeeping: how many times each spec hash has panicked. A spec
/// at [`QUARANTINE_AFTER`] strikes is quarantined — requests carrying it
/// are answered `rejected` without touching a worker's analysis path.
#[derive(Debug, Default)]
struct Quarantine {
    strikes: Mutex<HashMap<u64, u32>>,
}

impl Quarantine {
    fn is_quarantined(&self, hash: u64) -> bool {
        lock(&self.strikes)
            .get(&hash)
            .is_some_and(|&n| n >= QUARANTINE_AFTER)
    }

    /// Records one panic; `true` when this strike quarantines the spec.
    fn record(&self, hash: u64) -> bool {
        let mut strikes = lock(&self.strikes);
        let n = strikes.entry(hash).or_insert(0);
        *n += 1;
        *n == QUARANTINE_AFTER
    }

    /// Number of quarantined specs.
    fn len(&self) -> usize {
        lock(&self.strikes)
            .values()
            .filter(|&&n| n >= QUARANTINE_AFTER)
            .count()
    }
}

/// A snapshot of one counter (relaxed load; the counters are gauges).
fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed) // conc: stats gauge; staleness only skews a report
}

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed); // conc: stats gauge; count, not ordering
}

/// Per-endpoint latency: the cumulative-since-start histogram the
/// `stats` op has always reported, plus the sliding window behind the
/// `metrics` op's live percentiles.
#[derive(Debug)]
struct EndpointLatency {
    cumulative: Histogram,
    window: WindowedHistogram,
}

/// The service. Construct with [`Service::start`]; share via `Arc`.
pub struct Service {
    config: ServiceConfig,
    queue: Arc<BoundedQueue<Job>>,
    cache: ShardedCache,
    /// Public so transports and tests can read hit/miss counts.
    pub counters: Counters,
    latency: Mutex<HashMap<&'static str, EndpointLatency>>,
    on_shutdown: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    rotator: Mutex<Option<JoinHandle<()>>>,
    quarantine: Quarantine,
    /// Rendered `result` bodies of successful `patch` requests, keyed by
    /// `(base, edits, task, method, chain_limit)`. Entries are pure
    /// functions of content-addressed inputs, so they never go stale;
    /// the map is bounded by a generational clear at
    /// [`PATCH_MEMO_CAPACITY`].
    patch_memo: Mutex<HashMap<PatchKey, Arc<str>>>,
}

/// Memo key of one `patch` query: base hash, FNV-1a of the edits' wire
/// rendering, task name, method spelling, chain limit.
type PatchKey = (u64, u64, String, &'static str, usize);

/// Memoized `patch` responses kept before the map is cleared wholesale.
const PATCH_MEMO_CAPACITY: usize = 1024;

/// FNV-1a of the canonical wire rendering of an edit sequence.
fn edits_fingerprint(edits: &[SpecEdit]) -> u64 {
    let rendered = Value::Array(edits.iter().map(SpecEdit::to_json).collect()).to_string();
    hash_canonical_text(&rendered)
}

fn patch_key(
    base: u64,
    edits: &[SpecEdit],
    task: &str,
    method: Method,
    chain_limit: usize,
) -> PatchKey {
    (
        base,
        edits_fingerprint(edits),
        task.to_string(),
        method_str(method),
        chain_limit,
    )
}

impl core::fmt::Debug for Service {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("queue_depth", &self.queue.len())
            .field("cached_graphs", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Starts the worker pool (and its supervisor) and returns the shared
    /// service handle.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Arc<Service> {
        // The flight recorder allocates its journals on first use; doing
        // it here keeps every later record call allocation-free.
        flight::init();
        let service = Arc::new(Service {
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            cache: ShardedCache::new(config.cache_capacity),
            counters: Counters::default(),
            latency: Mutex::new(HashMap::new()),
            on_shutdown: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
            rotator: Mutex::new(None),
            quarantine: Quarantine::default(),
            patch_memo: Mutex::new(HashMap::new()),
            config,
        });
        let n = service.config.workers.max(1);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let svc = Arc::clone(&service);
            handles.push(std::thread::spawn(move || svc.worker_loop()));
        }
        *lock(&service.workers) = handles;
        let svc = Arc::clone(&service);
        *lock(&service.supervisor) = Some(std::thread::spawn(move || svc.supervisor_loop()));
        if let Some(interval) = service.config.metrics_interval {
            let svc = Arc::clone(&service);
            *lock(&service.rotator) =
                Some(std::thread::spawn(move || svc.rotator_loop(interval)));
        }
        service
    }

    /// The window-rotation thread: advances every sliding latency window
    /// once per `interval`, so the `metrics` op's live percentiles cover
    /// the last `window_intervals x interval` of traffic. Exits with the
    /// drain (polls the queue's closed flag between short sleeps so
    /// shutdown never waits a full interval).
    fn rotator_loop(&self, interval: Duration) {
        let poll = interval.min(Duration::from_millis(50));
        let mut next = Instant::now() + interval;
        loop {
            if self.queue.is_closed() {
                return;
            }
            std::thread::sleep(poll);
            if Instant::now() >= next {
                self.rotate_windows();
                next += interval;
            }
        }
    }

    /// Advance every endpoint's sliding latency window one interval.
    pub fn rotate_windows(&self) {
        for latency in lock(&self.latency).values_mut() {
            latency.window.rotate();
        }
    }

    /// The supervisor: polls the worker pool and replaces any thread that
    /// died (a panic that escaped the per-request isolation boundary).
    /// Exits once the drain starts — workers then finish on their own.
    fn supervisor_loop(self: &Arc<Service>) {
        const POLL: std::time::Duration = std::time::Duration::from_millis(20);
        loop {
            if self.queue.is_closed() {
                return;
            }
            std::thread::sleep(POLL);
            let mut dead = Vec::new();
            {
                let mut workers = lock(&self.workers);
                let mut i = 0;
                while i < workers.len() {
                    if workers[i].is_finished() {
                        dead.push(workers.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                for _ in 0..dead.len() {
                    // Racing a drain: finished workers may simply have
                    // exited normally; never respawn into a closed queue.
                    if self.queue.is_closed() {
                        break;
                    }
                    bump(&self.counters.worker_respawns);
                    disparity_obs::counter_add("service.worker.respawns", 1);
                    let svc = Arc::clone(self);
                    workers.push(std::thread::spawn(move || svc.worker_loop()));
                }
            }
            // Collect the corpses (and their panic payloads) off-lock.
            for handle in dead {
                let _ = handle.join();
            }
        }
    }

    /// Registers the hook invoked when a client sends the `shutdown` op.
    /// The hook runs on a worker thread *after* the shutdown request has
    /// been answered; it must not join the workers itself (hand off to
    /// another thread, as [`serve`'s main loop] does).
    ///
    /// [`serve`'s main loop]: crate::server
    pub fn set_shutdown_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *lock(&self.on_shutdown) = Some(Box::new(hook));
    }

    /// Admission-controlled submit: a full queue answers `overloaded`
    /// immediately on `reply`, a draining service answers
    /// `shutting_down`. Returns `true` when the job was accepted.
    pub fn submit(&self, request: Request, seq: u64, trace: TraceId, reply: &Sender<Reply>) -> bool {
        bump(&self.counters.received);
        self.observe_queue_depth();
        let scope = disparity_obs::trace_scope(trace.as_u64());
        flight::record(EventKind::Accept, 0);
        let job = Job {
            request,
            seq,
            trace,
            accepted: Instant::now(),
            reply: reply.clone(),
        };
        // Admit is recorded before a worker can dequeue the job, so a
        // panic postmortem taken on the worker always holds it.
        let admit = || flight::record(EventKind::Admit, 0);
        let admitted = match self.queue.try_push(job, admit) {
            Ok(()) => true,
            Err((job, reason)) => {
                self.refuse(job, reason);
                false
            }
        };
        drop(scope);
        admitted
    }

    /// Backpressure submit for batch mode: blocks while the queue is
    /// full; only a draining service refuses (answered inline).
    pub fn submit_blocking(
        &self,
        request: Request,
        seq: u64,
        trace: TraceId,
        reply: &Sender<Reply>,
    ) -> bool {
        bump(&self.counters.received);
        self.observe_queue_depth();
        let scope = disparity_obs::trace_scope(trace.as_u64());
        flight::record(EventKind::Accept, 0);
        let job = Job {
            request,
            seq,
            trace,
            accepted: Instant::now(),
            reply: reply.clone(),
        };
        let admit = || flight::record(EventKind::Admit, 0);
        let admitted = match self.queue.push_blocking(job, admit) {
            Ok(()) => true,
            Err((job, reason)) => {
                self.refuse(job, reason);
                false
            }
        };
        drop(scope);
        admitted
    }

    /// Answers a malformed request line on behalf of a transport. The
    /// error never enters the queue, so parse failures cannot displace
    /// analyzable work.
    pub fn reply_parse_error(err: &ProtoError, seq: u64, trace: TraceId, reply: &Sender<Reply>) {
        disparity_obs::counter_add("service.parse_errors", 1);
        let scope = disparity_obs::trace_scope(trace.as_u64());
        // The span is the request's whole trace: a parse failure never
        // reaches the queue or a worker, so nothing else records for it.
        let _span = disparity_obs::span("service.parse_error");
        flight::record(EventKind::ParseError, 0);
        drop(scope);
        let line = response_line(
            &err.id,
            Status::Error,
            ResponseBody::Error(err.to_string()),
        );
        let _ = reply.send(Reply {
            seq,
            line: attach_trace(&line, trace),
        });
    }

    fn refuse(&self, job: Job, reason: PushError) {
        // Refusals never reach a worker, so the refusal span (and its
        // flight event) is the request's whole trace — recorded here on
        // the submitting thread, inside the caller's trace scope.
        let mut span = disparity_obs::span("service.refuse");
        let status = match reason {
            PushError::Full => {
                bump(&self.counters.overloaded);
                disparity_obs::counter_add("service.overloaded", 1);
                flight::record(EventKind::Overload, 0);
                Status::Overloaded
            }
            PushError::Closed => {
                bump(&self.counters.shutting_down);
                flight::record(EventKind::ShuttingDown, 0);
                Status::ShuttingDown
            }
        };
        span.attr("status", status.as_str());
        let line = response_line(
            &job.request.id,
            status,
            ResponseBody::Error(match reason {
                PushError::Full => "queue full".into(),
                PushError::Closed => "server is shutting down".into(),
            }),
        );
        let _ = job.reply.send(Reply {
            seq: job.seq,
            line: attach_trace(&line, job.trace),
        });
    }

    /// Drains and stops: closes the intake (late submissions get
    /// `shutting_down`), retires the supervisor, lets the workers finish
    /// every accepted job, and joins them. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        // The supervisor exits on its next poll once the queue is closed;
        // join it first so it cannot respawn into the drain. The window
        // rotator watches the same flag.
        if let Some(h) = lock(&self.supervisor).take() {
            let _ = h.join();
        }
        if let Some(h) = lock(&self.rotator).take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Current intake depth (gauge).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    fn observe_queue_depth(&self) {
        if disparity_obs::is_enabled() {
            let depth = i64::try_from(self.queue.len()).unwrap_or(i64::MAX);
            disparity_obs::observe("service.queue.depth", depth);
        }
    }

    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            // Install the request's trace context for the whole job:
            // every span the processing opens (cache lookup, WCRT,
            // pairwise sweep) and every flight event recorded below
            // carries the id echoed in the response line.
            let trace = job.trace;
            let _scope = disparity_obs::trace_scope(trace.as_u64());
            let dequeued = Instant::now();
            let wait = dequeued.saturating_duration_since(job.accepted);
            flight::record(
                EventKind::Dequeue,
                u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
            );
            disparity_obs::record_span("service.queue_wait", job.accepted, dequeued);
            // The worker-kill test op escapes the isolation boundary by
            // design: take the quarantine strike, then die. The request
            // goes unanswered (its reply sender drops with the job) and
            // the supervisor must replace this thread. Once the spec is
            // quarantined, `process_isolated` answers `rejected` instead
            // and no further workers die for it.
            if let Op::Panic {
                kind: PanicKind::Worker,
                spec,
            } = &job.request.op
            {
                let hash = spec.canonical_hash();
                if !self.quarantine.is_quarantined(hash) {
                    bump(&self.counters.panics);
                    disparity_obs::counter_add("service.panics", 1);
                    flight::record(EventKind::Panic, hash);
                    flight::record(EventKind::WorkerDeath, hash);
                    if self.quarantine.record(hash) {
                        flight::record(EventKind::Quarantine, hash);
                        self.write_postmortem("quarantine", trace.as_u64());
                    }
                    drop(job);
                    panic!("deliberate worker death (op \"panic\", mode \"worker\")");
                }
            }
            let started = Instant::now();
            let mut span = disparity_obs::span("service.request");
            span.attr("endpoint", job.request.endpoint());
            let is_shutdown = matches!(job.request.op, Op::Shutdown);
            let line = self.process_isolated(&job.request);
            drop(span);
            self.record_latency(job.request.endpoint(), started);
            let _ = job.reply.send(Reply {
                seq: job.seq,
                line: attach_trace(&line, trace),
            });
            if is_shutdown {
                if let Some(hook) = lock(&self.on_shutdown).as_ref() {
                    hook();
                }
            }
        }
    }

    fn record_latency(&self, endpoint: &'static str, started: Instant) {
        let elapsed = started.elapsed();
        let micros = i64::try_from(elapsed.as_micros()).unwrap_or(i64::MAX);
        let mut latency = lock(&self.latency);
        let entry = latency.entry(endpoint).or_insert_with(|| EndpointLatency {
            cumulative: Histogram::new(),
            window: WindowedHistogram::new(self.config.window_intervals),
        });
        entry.cumulative.record(micros);
        entry.window.record(micros);
        drop(latency);
        if disparity_obs::is_enabled() {
            let nanos = i64::try_from(elapsed.as_nanos()).unwrap_or(i64::MAX);
            disparity_obs::observe_duration(
                "service.latency",
                disparity_model::time::Duration::from_nanos(nanos),
            );
        }
    }

    /// [`Service::process`] behind the panic-isolation boundary: the
    /// quarantine gate in front, `catch_unwind` around the processing.
    /// A panic yields a structured `internal_error` response (spec
    /// `canonical_hash` + panic payload in the message) instead of a dead
    /// worker; the panicking spec takes a quarantine strike.
    ///
    /// Workers route every job through here. `AssertUnwindSafe` is sound
    /// because all of the service's shared state is panic-tolerant: every
    /// mutex acquisition recovers from poisoning (`lock`), counters are
    /// atomics, and the graph cache only ever holds fully-built entries.
    #[must_use]
    pub fn process_isolated(&self, request: &Request) -> String {
        // Render the canonical form once; the quarantine gate consumes
        // the hash here and the cache lookup reuses text + hash below.
        let canonical = request.op.spec().map(SystemSpec::canonical);
        let hash = canonical.as_ref().map(|c| c.hash);
        if let Some(hash) = hash {
            if self.quarantine.is_quarantined(hash) {
                bump(&self.counters.quarantined);
                disparity_obs::counter_add("service.quarantine.rejected", 1);
                flight::record(EventKind::Error, hash);
                return response_line(
                    &request.id,
                    Status::Rejected,
                    ResponseBody::Error(format!(
                        "spec {hash:016x} is quarantined after repeated panics"
                    )),
                );
            }
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.process_with(request, canonical.as_ref())
        })) {
            Ok(line) => line,
            Err(payload) => {
                bump(&self.counters.panics);
                disparity_obs::counter_add("service.panics", 1);
                let trace = disparity_obs::current_trace();
                flight::record(EventKind::Panic, hash.unwrap_or(0));
                if let Some(hash) = hash {
                    if self.quarantine.record(hash) {
                        disparity_obs::counter_add("service.quarantine.added", 1);
                        flight::record(EventKind::Quarantine, hash);
                        self.write_postmortem("quarantine", trace);
                    }
                }
                self.write_postmortem("panic", trace);
                let spec_text =
                    hash.map_or_else(|| "none".to_string(), |h| format!("{h:016x}"));
                response_line(
                    &request.id,
                    Status::InternalError,
                    ResponseBody::Error(format!(
                        "panic while processing (spec {spec_text}): {}",
                        panic_message(payload.as_ref())
                    )),
                )
            }
        }
    }

    /// Best-effort postmortem dump: snapshot the flight journals into
    /// `postmortem_dir` (when configured). Failures are swallowed — a
    /// full disk must not turn a contained panic into a lost response.
    fn write_postmortem(&self, reason: &str, trace: u64) {
        if let Some(dir) = &self.config.postmortem_dir {
            let _ = flight::write_postmortem(dir, reason, trace);
        }
    }

    /// Processes one request to a complete response line. Pure with
    /// respect to the transport: the line depends on the request and the
    /// analysis result, never on cache or queue state (`stats` excepted).
    #[must_use]
    pub fn process(&self, request: &Request) -> String {
        self.process_with(request, None)
    }

    /// [`Self::process`] with an optionally pre-rendered canonical form
    /// of the request's spec (threaded from [`Self::process_isolated`] so
    /// each request renders the spec at most once).
    fn process_with(&self, request: &Request, canonical: Option<&Canonical>) -> String {
        // Warm `patch` fast path: an identical patch query was answered
        // before, so splice its memoized `result` bytes around this
        // request's id — no spec, graph, or engine work at all.
        if let Op::Patch {
            base,
            edits,
            task,
            method,
            chain_limit,
        } = &request.op
        {
            let key = patch_key(*base, edits, task, *method, *chain_limit);
            let memoized = lock(&self.patch_memo).get(&key).cloned();
            if let Some(body) = memoized {
                bump(&self.counters.completed);
                bump(&self.counters.patch_memo_hits);
                disparity_obs::counter_add("service.patch.memo_hits", 1);
                flight::record(EventKind::Completed, 0);
                return ok_line_prerendered(&request.id, &body);
            }
        }
        let outcome = self.dispatch(request, canonical);
        let (status, body) = match outcome {
            Ok(result) => {
                bump(&self.counters.completed);
                flight::record(EventKind::Completed, 0);
                (Status::Ok, ResponseBody::Result(result))
            }
            Err(Refusal::Timeout) => {
                bump(&self.counters.timeouts);
                disparity_obs::counter_add("service.timeouts", 1);
                flight::record(EventKind::Deadline, request.deadline_ms.unwrap_or(0));
                (
                    Status::Timeout,
                    ResponseBody::Error("soft deadline exceeded".into()),
                )
            }
            Err(Refusal::DiagGate(detail)) => {
                bump(&self.counters.rejected);
                disparity_obs::counter_add("service.diag_rejects", 1);
                flight::record(EventKind::Error, 0);
                (Status::Rejected, ResponseBody::Error(detail))
            }
            Err(Refusal::Failed(detail)) => {
                bump(&self.counters.errors);
                disparity_obs::counter_add("service.errors", 1);
                flight::record(EventKind::Error, 0);
                (Status::Error, ResponseBody::Error(detail))
            }
        };
        response_line(&request.id, status, body)
    }

    fn dispatch(&self, request: &Request, canonical: Option<&Canonical>) -> Result<Value, Refusal> {
        let deadline = request
            .deadline_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        match &request.op {
            Op::Ping => Ok(json::object(vec![("pong", Value::Bool(true))])),
            Op::Stats => Ok(self.stats_json()),
            Op::Metrics => Ok(self.metrics_json()),
            Op::Dump => {
                flight::record(EventKind::Dump, 0);
                let trace = disparity_obs::current_trace();
                let events = flight::snapshot().len();
                let path = match &self.config.postmortem_dir {
                    None => Value::Null,
                    Some(dir) => {
                        let path = flight::write_postmortem(dir, "dump", trace)
                            .map_err(|e| Refusal::Failed(format!("postmortem dump failed: {e}")))?;
                        Value::from(path.display().to_string())
                    }
                };
                Ok(json::object(vec![
                    ("dumped", Value::Bool(!matches!(path, Value::Null))),
                    ("path", path),
                    ("events", Value::from(events)),
                ]))
            }
            Op::Health => Ok(self.health_json()),
            Op::Panic { kind, spec } => {
                // Testing aid for the isolation layer; the panic is caught
                // by `process_isolated` (mode "unwind") or already handled
                // in `worker_loop` (mode "worker" — reaching this arm via
                // a direct `process` call still panics, by design).
                let hash = spec.canonical_hash();
                panic!("deliberate panic (op \"panic\", mode {kind:?}, spec {hash:016x})");
            }
            Op::Sleep { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(*millis));
                Ok(json::object(vec![(
                    "slept_ms",
                    Value::Int(i64::try_from(*millis).unwrap_or(i64::MAX)),
                )]))
            }
            Op::Shutdown => Ok(json::object(vec![("shutting_down", Value::Bool(true))])),
            Op::Disparity {
                spec,
                task,
                method,
                chain_limit,
            } => {
                let entry = self.graph_entry(spec, canonical, *chain_limit)?;
                self.disparity_value(&entry, task, *method, *chain_limit, deadline)
            }
            Op::Patch {
                base,
                edits,
                task,
                method,
                chain_limit,
            } => self.patch(*base, edits, task, *method, *chain_limit, deadline),
            Op::Backward { spec, chain } => {
                let entry = self.graph_entry(spec, canonical, crate::proto::DEFAULT_CHAIN_LIMIT)?;
                let ids = chain
                    .iter()
                    .map(|name| find_task(&entry, name))
                    .collect::<Result<Vec<_>, _>>()?;
                let chain = Chain::new(&entry.graph, ids)
                    .map_err(|e| Refusal::Failed(format!("bad chain: {e}")))?;
                run_with_deadline(deadline, |budget| {
                    let engine = self.engine(&entry, budget);
                    let bounds = engine.backward_bounds(&chain)?;
                    Ok(encode_backward_result(&entry.graph, &chain, bounds))
                })
            }
            Op::Buffer {
                spec,
                task,
                method,
                chain_limit,
                max_rounds,
            } => {
                let entry = self.graph_entry(spec, canonical, *chain_limit)?;
                let task = find_task(&entry, task)?;
                let config = AnalysisConfig {
                    method: *method,
                    chain_limit: *chain_limit,
                };
                // Algorithm 1 re-analyzes mutated graphs internally, so it
                // cannot reuse the cached engine (nor the soft deadline's
                // budget hook) — the cache still saves the schedulability
                // precheck via the cached entry.
                let outcome = optimize_task(&entry.graph, task, config, *max_rounds)
                    .map_err(refusal_of)?;
                Ok(encode_buffer_result(&entry.graph, &outcome))
            }
            Op::Optimize {
                spec,
                base,
                budget_slots,
                targets,
                backend,
                seed,
                allow_overbuffering,
                method,
                chain_limit,
                sim_horizon_ms,
            } => {
                let entry = match (spec, base) {
                    (Some(spec), None) => self.graph_entry(spec, canonical, *chain_limit)?,
                    (None, Some(base)) => match self.cache.get_by_key(*base) {
                        BaseLookup::Hit(entry) => entry,
                        BaseLookup::Miss => {
                            return Err(Refusal::Failed(format!(
                                "unknown base {base:016x}: not cached (send the full spec once first)"
                            )));
                        }
                        BaseLookup::Ambiguous => {
                            return Err(Refusal::Failed(format!(
                                "ambiguous base {base:016x}: several cached specs collide on this hash"
                            )));
                        }
                    },
                    // `Request::from_value` enforces exactly-one; a
                    // hand-built Op that violates it is answered, not
                    // panicked on.
                    _ => {
                        return Err(Refusal::Failed(
                            "\"optimize\" needs exactly one of \"spec\" or \"base\"".into(),
                        ));
                    }
                };
                let config = AnalysisConfig {
                    method: *method,
                    chain_limit: *chain_limit,
                };
                // The optimizer re-analyzes candidate specs through its
                // own incremental engine (cold fallback included), so like
                // `buffer` it cannot thread the soft deadline's budget
                // hook; the deadline is checked once planning returns.
                let analyzed = AnalyzedSystem::analyze(entry.spec(), config)
                    .map_err(|e| Refusal::Failed(format!("analysis failed: {e}")))?;
                let plan_request = PlanRequest {
                    budget: BufferBudget::slots(*budget_slots),
                    targets: targets.clone(),
                    seed: *seed,
                    forbid_new_findings: !*allow_overbuffering,
                };
                let plan =
                    optimize_analyzed(&analyzed, &plan_request, *backend).map_err(opt_refusal)?;
                if deadline.is_some_and(|d| Instant::now() > d) {
                    return Err(Refusal::Timeout);
                }
                bump(&self.counters.optimized);
                self.counters
                    .opt_delta_scored
                    // conc: stats gauge; count, not ordering
                    .fetch_add(plan.stats.delta_scored, Ordering::Relaxed);
                self.counters
                    .opt_cold_scored
                    // conc: stats gauge; count, not ordering
                    .fetch_add(plan.stats.cold_scored, Ordering::Relaxed);
                disparity_obs::counter_add("service.optimized", 1);
                // Re-admit the optimized spec through the same gates a
                // full-spec request passes (diag gate included — a clean
                // plan must stay admissible) and cache it so follow-up
                // requests can address it by `optimized_spec_hash`.
                let mut opt_spec = entry.spec().clone();
                if let Err((index, e)) = apply_all(&mut opt_spec, &plan.edits()) {
                    return Err(Refusal::Failed(format!("bad plan edit [{index}]: {e}")));
                }
                let canonical2 = opt_spec.canonical();
                let opt_entry = match self.lookup_entry(&canonical2) {
                    Some(e) => e,
                    None => {
                        self.diag_admit(&opt_spec, *chain_limit)?;
                        self.cold_build(&opt_spec, &canonical2)?
                    }
                };
                let sim = match sim_horizon_ms {
                    None => None,
                    Some(ms) => Some(sim_validate(&opt_entry, &plan, *ms, *seed)?),
                };
                Ok(encode_optimize_result(&plan, canonical2.hash, sim))
            }
        }
    }

    fn engine<'a>(
        &self,
        entry: &'a GraphEntry,
        budget: Option<&'a (dyn Fn() -> bool + Sync)>,
    ) -> AnalysisEngine<'a> {
        let mut engine = AnalysisEngine::new(&entry.graph, &entry.rt)
            .with_hop_cache(entry.hops.clone())
            .with_workers(self.config.engine_workers.max(1));
        if let Some(hook) = budget {
            engine = engine.with_budget_hook(hook);
        }
        engine
    }

    /// The shared tail of `disparity` and `patch`: analyze `task` against
    /// an entry and encode the result. Keeping both ops on one code path
    /// is what makes a patch response byte-identical to a full-spec
    /// request for the edited system.
    fn disparity_value(
        &self,
        entry: &Arc<GraphEntry>,
        task: &str,
        method: Method,
        chain_limit: usize,
        deadline: Option<Instant>,
    ) -> Result<Value, Refusal> {
        let task = find_task(entry, task)?;
        let config = AnalysisConfig {
            method,
            chain_limit,
        };
        run_with_deadline(deadline, |budget| {
            let engine = self.engine(entry, budget);
            let report = engine.worst_case_disparity(task, config)?;
            Ok(encode_disparity_result(&entry.graph, &report))
        })
    }

    /// The `patch` op: look up the cached base by hash, apply the edits,
    /// derive an entry for the edited spec (incrementally when possible),
    /// and answer the disparity query against it. Successful results are
    /// memoized by `(base, edits, task, method, chain_limit)`.
    fn patch(
        &self,
        base: u64,
        edits: &[SpecEdit],
        task: &str,
        method: Method,
        chain_limit: usize,
        deadline: Option<Instant>,
    ) -> Result<Value, Refusal> {
        let base_entry = match self.cache.get_by_key(base) {
            BaseLookup::Hit(entry) => entry,
            BaseLookup::Miss => {
                return Err(Refusal::Failed(format!(
                    "unknown base {base:016x}: not cached (send the full spec once first)"
                )));
            }
            BaseLookup::Ambiguous => {
                return Err(Refusal::Failed(format!(
                    "ambiguous base {base:016x}: several cached specs collide on this hash"
                )));
            }
        };
        let mut spec2 = base_entry.spec().clone();
        if let Err((index, e)) = apply_all(&mut spec2, edits) {
            return Err(Refusal::Failed(format!("bad edit [{index}]: {e}")));
        }
        let canonical2 = spec2.canonical();
        let entry = self.derived_entry(&base_entry, edits, &spec2, &canonical2, chain_limit)?;
        let value = self.disparity_value(&entry, task, method, chain_limit, deadline)?;
        let mut memo = lock(&self.patch_memo);
        if memo.len() >= PATCH_MEMO_CAPACITY {
            memo.clear();
        }
        memo.insert(
            patch_key(base, edits, task, method, chain_limit),
            Arc::from(value.to_string()),
        );
        drop(memo);
        Ok(value)
    }

    /// Cache lookup / incremental derivation of the entry for an edited
    /// spec. The edited spec passes exactly the gates a full-spec request
    /// would (diag gate, schedulability admission); any delta failure
    /// falls back to the cold build so error responses stay
    /// byte-identical too.
    fn derived_entry(
        &self,
        base: &Arc<GraphEntry>,
        edits: &[SpecEdit],
        spec2: &SystemSpec,
        canonical2: &Canonical,
        chain_limit: usize,
    ) -> Result<Arc<GraphEntry>, Refusal> {
        if let Some(entry) = self.lookup_entry(canonical2) {
            return Ok(entry);
        }
        self.diag_admit(spec2, chain_limit)?;
        let mut basis = DeltaBasis {
            spec: base.spec().clone(),
            graph: base.graph.clone(),
            rt: base.rt.clone(),
            hops: base.hops.clone(),
        };
        for edit in edits {
            match basis.rebase(edit) {
                Ok(next) => basis = next,
                // e.g. a dirty-ECU overload: rebuild cold so the error
                // message matches a full-spec request exactly.
                Err(_) => return self.cold_build(spec2, canonical2),
            }
        }
        // The cold path's schedulability admission, from the
        // incrementally computed response times (same count, same text).
        let violations = basis
            .graph
            .tasks()
            .iter()
            .filter(|t| basis.rt.wcrt(t.id()) > t.period())
            .count();
        if violations > 0 {
            return Err(Refusal::Failed(format!(
                "unschedulable: {violations} task(s) miss their deadline"
            )));
        }
        bump(&self.counters.patched);
        disparity_obs::counter_add("service.patch.derived", 1);
        let mut entry = GraphEntry::new(
            canonical2.clone(),
            spec2.clone(),
            basis.graph,
            basis.rt,
        );
        // Carry the surviving hop bounds into the derived entry.
        entry.hops = basis.hops;
        Ok(self.cache.insert(canonical2.hash, entry))
    }

    /// Cache lookup half of [`Self::graph_entry`] (hit/miss accounting).
    fn lookup_entry(&self, canonical: &Canonical) -> Option<Arc<GraphEntry>> {
        let mut lookup = disparity_obs::span("service.cache.lookup");
        let cached = self.cache.get(canonical.hash, &canonical.text);
        lookup.attr("hit", i64::from(cached.is_some()));
        drop(lookup);
        if cached.is_some() {
            bump(&self.counters.cache_hits);
            disparity_obs::counter_add("service.cache.hits", 1);
            flight::record(EventKind::CacheHit, canonical.hash);
        } else {
            bump(&self.counters.cache_misses);
            disparity_obs::counter_add("service.cache.misses", 1);
            flight::record(EventKind::CacheMiss, canonical.hash);
        }
        cached
    }

    /// The optional diag admission gate, applied to cold and derived
    /// specs alike.
    fn diag_admit(&self, spec: &SystemSpec, chain_limit: usize) -> Result<(), Refusal> {
        if self.config.diag_gate {
            let diags = analyze_spec(spec, &DiagConfig { chain_limit })
                .map_err(|e| Refusal::Failed(format!("bad spec: {e}")))?;
            if diags.has_errors() {
                let mut detail = format!("diag gate: {} error(s):", diags.error_count());
                for d in diags.with_severity(disparity_analyzer::diag::Severity::Error) {
                    detail.push(' ');
                    detail.push_str(d.code.as_str());
                }
                return Err(Refusal::DiagGate(detail));
            }
        }
        Ok(())
    }

    /// Cold build + schedulability admission + cache insert (the miss
    /// path of [`Self::graph_entry`]; assumes the diag gate already ran).
    fn cold_build(
        &self,
        spec: &SystemSpec,
        canonical: &Canonical,
    ) -> Result<Arc<GraphEntry>, Refusal> {
        let graph = spec
            .build()
            .map_err(|e| Refusal::Failed(format!("bad spec: {e}")))?;
        let sched = analyze(&graph).map_err(|e| Refusal::Failed(format!("analysis failed: {e}")))?;
        if !sched.all_schedulable() {
            return Err(Refusal::Failed(format!(
                "unschedulable: {} task(s) miss their deadline",
                sched.violations().len()
            )));
        }
        let rt = sched.into_response_times();
        let entry = GraphEntry::new(canonical.clone(), spec.clone(), graph, rt);
        Ok(self.cache.insert(canonical.hash, entry))
    }

    /// Cache lookup / build of the analyzed-graph entry for `spec`.
    /// `canonical` threads a pre-rendered canonical form through (from
    /// [`Self::process_isolated`]); `None` renders it here — either way
    /// the spec is rendered exactly once per request.
    fn graph_entry(
        &self,
        spec: &SystemSpec,
        canonical: Option<&Canonical>,
        chain_limit: usize,
    ) -> Result<Arc<GraphEntry>, Refusal> {
        let rendered;
        let canonical = match canonical {
            Some(c) => c,
            None => {
                rendered = spec.canonical();
                &rendered
            }
        };
        if let Some(entry) = self.lookup_entry(canonical) {
            return Ok(entry);
        }
        self.diag_admit(spec, chain_limit)?;
        self.cold_build(spec, canonical)
    }

    /// The `stats` payload: counters, gauges, and per-endpoint latency
    /// percentiles (microseconds).
    #[must_use]
    pub fn stats_json(&self) -> Value {
        let c = &self.counters;
        let counters = json::object(vec![
            ("received", uint(load(&c.received))),
            ("completed", uint(load(&c.completed))),
            ("overloaded", uint(load(&c.overloaded))),
            ("shutting_down", uint(load(&c.shutting_down))),
            ("rejected", uint(load(&c.rejected))),
            ("timeouts", uint(load(&c.timeouts))),
            ("errors", uint(load(&c.errors))),
            ("cache_hits", uint(load(&c.cache_hits))),
            ("cache_misses", uint(load(&c.cache_misses))),
            ("patched", uint(load(&c.patched))),
            ("patch_memo_hits", uint(load(&c.patch_memo_hits))),
            ("optimized", uint(load(&c.optimized))),
            ("opt_delta_scored", uint(load(&c.opt_delta_scored))),
            ("opt_cold_scored", uint(load(&c.opt_cold_scored))),
            ("panics", uint(load(&c.panics))),
            ("quarantined", uint(load(&c.quarantined))),
            ("worker_respawns", uint(load(&c.worker_respawns))),
        ]);
        let guard = lock(&self.latency);
        let mut latency: Vec<(String, Value)> = guard
            .iter()
            .map(|(endpoint, lat)| {
                let s = lat.cumulative.summary();
                (
                    (*endpoint).to_string(),
                    json::object(vec![
                        ("count", uint(s.count)),
                        ("p50_us", Value::Int(s.p50)),
                        ("p95_us", Value::Int(s.p95)),
                        ("p99_us", Value::Int(s.p99)),
                        ("max_us", Value::Int(s.max)),
                    ]),
                )
            })
            .collect();
        latency.sort_by(|a, b| a.0.cmp(&b.0));
        let windowed = Self::window_json(&guard);
        drop(guard);
        json::object(vec![
            ("counters", counters),
            ("queue_depth", Value::from(self.queue.len())),
            ("queue_capacity", Value::from(self.queue.capacity())),
            ("cached_graphs", Value::from(self.cache.len())),
            ("workers_configured", Value::from(self.config.workers.max(1))),
            ("workers_alive", Value::from(self.workers_alive())),
            ("quarantined_specs", Value::from(self.quarantine.len())),
            ("latency_us", Value::Object(latency)),
            ("window_latency_us", windowed),
        ])
    }

    /// Per-endpoint sliding-window latency summaries, sorted by endpoint.
    fn window_json(latency: &HashMap<&'static str, EndpointLatency>) -> Value {
        let mut windowed: Vec<(String, Value)> = latency
            .iter()
            .map(|(endpoint, lat)| {
                let s = lat.window.summary();
                (
                    (*endpoint).to_string(),
                    json::object(vec![
                        ("count", uint(s.count)),
                        ("p50_us", Value::Int(s.p50)),
                        ("p95_us", Value::Int(s.p95)),
                        ("p99_us", Value::Int(s.p99)),
                        ("max_us", Value::Int(s.max)),
                    ]),
                )
            })
            .collect();
        windowed.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(windowed)
    }

    /// The `metrics` payload: Prometheus-style text exposition plus the
    /// sliding-window latency summaries as structured JSON (what loadgen's
    /// `--latency-series` samples).
    #[must_use]
    pub fn metrics_json(&self) -> Value {
        let window = Self::window_json(&lock(&self.latency));
        json::object(vec![
            ("exposition", Value::from(self.metrics_exposition())),
            ("window", window),
            ("window_intervals", Value::from(self.config.window_intervals)),
            ("queue_depth", Value::from(self.queue.len())),
        ])
    }

    /// Prometheus-style text exposition of the service's counters,
    /// gauges, and per-endpoint latency summaries. Every latency family
    /// is emitted twice, labelled `view="cumulative"` (since start) and
    /// `view="window"` (the sliding window) — the two views disagree
    /// after a load shift, by design.
    #[must_use]
    pub fn metrics_exposition(&self) -> String {
        let mut prom = disparity_obs::export::PromText::new();
        let c = &self.counters;
        prom.type_line("disparity_requests_total", "counter");
        for (outcome, counter) in [
            ("received", &c.received),
            ("completed", &c.completed),
            ("overloaded", &c.overloaded),
            ("shutting_down", &c.shutting_down),
            ("rejected", &c.rejected),
            ("timeouts", &c.timeouts),
            ("errors", &c.errors),
            ("panics", &c.panics),
            ("quarantined", &c.quarantined),
        ] {
            prom.sample(
                "disparity_requests_total",
                &[("outcome", outcome)],
                i64::try_from(load(counter)).unwrap_or(i64::MAX),
            );
        }
        prom.type_line("disparity_cache_total", "counter");
        for (result, counter) in [("hit", &c.cache_hits), ("miss", &c.cache_misses)] {
            prom.sample(
                "disparity_cache_total",
                &[("result", result)],
                i64::try_from(load(counter)).unwrap_or(i64::MAX),
            );
        }
        prom.type_line("disparity_worker_respawns_total", "counter");
        prom.sample(
            "disparity_worker_respawns_total",
            &[],
            i64::try_from(load(&c.worker_respawns)).unwrap_or(i64::MAX),
        );
        for (name, value) in [
            ("disparity_queue_depth", self.queue.len()),
            ("disparity_workers_alive", self.workers_alive()),
            ("disparity_cached_graphs", self.cache.len()),
            ("disparity_quarantined_specs", self.quarantine.len()),
        ] {
            prom.type_line(name, "gauge");
            prom.sample(name, &[], i64::try_from(value).unwrap_or(i64::MAX));
        }
        let guard = lock(&self.latency);
        let mut endpoints: Vec<&&'static str> = guard.keys().collect();
        endpoints.sort();
        prom.type_line("disparity_request_latency_us", "summary");
        for endpoint in endpoints {
            let lat = &guard[*endpoint];
            for (view, s) in [
                ("cumulative", lat.cumulative.summary()),
                ("window", lat.window.summary()),
            ] {
                for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                    prom.sample(
                        "disparity_request_latency_us",
                        &[("endpoint", endpoint), ("view", view), ("quantile", q)],
                        v,
                    );
                }
                prom.sample(
                    "disparity_request_latency_us_sum",
                    &[("endpoint", endpoint), ("view", view)],
                    s.sum,
                );
                prom.sample(
                    "disparity_request_latency_us_count",
                    &[("endpoint", endpoint), ("view", view)],
                    i64::try_from(s.count).unwrap_or(i64::MAX),
                );
            }
        }
        prom.finish()
    }

    /// Workers currently running (a gauge; a respawn in flight may
    /// briefly read one low).
    #[must_use]
    pub fn workers_alive(&self) -> usize {
        lock(&self.workers)
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// The `health` payload: pool liveness, supervision and quarantine
    /// state. Everything a fleet probe needs, nothing request-scoped.
    #[must_use]
    pub fn health_json(&self) -> Value {
        json::object(vec![
            ("workers_configured", Value::from(self.config.workers.max(1))),
            ("workers_alive", Value::from(self.workers_alive())),
            (
                "worker_respawns",
                uint(load(&self.counters.worker_respawns)),
            ),
            ("panics", uint(load(&self.counters.panics))),
            ("quarantined_specs", Value::from(self.quarantine.len())),
            ("queue_depth", Value::from(self.queue.len())),
            ("draining", Value::Bool(self.queue.is_closed())),
        ])
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted message; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

fn uint(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Why a request did not produce an `ok` result.
enum Refusal {
    Timeout,
    DiagGate(String),
    Failed(String),
}

fn refusal_of(e: AnalysisError) -> Refusal {
    match e {
        AnalysisError::BudgetExhausted => Refusal::Timeout,
        other => Refusal::Failed(format!("analysis failed: {other}")),
    }
}

fn opt_refusal(e: OptError) -> Refusal {
    match e {
        OptError::Analysis(AnalysisError::BudgetExhausted) => Refusal::Timeout,
        other => Refusal::Failed(format!("optimize failed: {other}")),
    }
}

/// Replays the optimized system in the discrete-event simulator and
/// reports, per fusion task in the plan, the largest observed disparity
/// against the certified bound. Seeded from the request, so repeated
/// identical requests stay byte-identical.
fn sim_validate(
    entry: &GraphEntry,
    plan: &GlobalPlan,
    horizon_ms: u64,
    seed: u64,
) -> Result<Value, Refusal> {
    let horizon = disparity_model::time::Duration::from_millis(
        i64::try_from(horizon_ms).unwrap_or(i64::MAX),
    );
    let sim = Simulator::new(
        &entry.graph,
        SimConfig {
            horizon,
            exec_model: ExecutionTimeModel::Uniform,
            seed,
            warmup: disparity_model::time::Duration::from_nanos(horizon.as_nanos() / 5),
            record_trace: false,
            semantics: CommunicationSemantics::Implicit,
            fault: FaultPlan::none(),
        },
    );
    let outcome = sim
        .run()
        .map_err(|e| Refusal::Failed(format!("sim validation failed: {e}")))?;
    let checks = plan
        .predictions
        .iter()
        .map(|p| {
            let observed = entry
                .graph
                .find_task(&p.task)
                .and_then(|t| outcome.metrics.max_disparity(t));
            json::object(vec![
                ("task", Value::from(p.task.as_str())),
                (
                    "observed_ns",
                    observed.map_or(Value::Null, |d| Value::Int(d.as_nanos())),
                ),
                (
                    "within_bound",
                    observed.map_or(Value::Null, |d| Value::Bool(d <= p.after)),
                ),
            ])
        })
        .collect();
    Ok(json::object(vec![
        ("horizon_ms", uint(horizon_ms)),
        ("seed", uint(seed)),
        ("checks", Value::Array(checks)),
    ]))
}

impl From<AnalysisError> for Refusal {
    fn from(e: AnalysisError) -> Self {
        refusal_of(e)
    }
}

fn find_task(entry: &GraphEntry, name: &str) -> Result<disparity_model::ids::TaskId, Refusal> {
    entry
        .graph
        .find_task(name)
        .ok_or_else(|| Refusal::Failed(format!("unknown task {name:?}")))
}

/// Runs `body` with a budget hook derived from the optional deadline.
fn run_with_deadline<F>(deadline: Option<Instant>, body: F) -> Result<Value, Refusal>
where
    F: FnOnce(Option<&(dyn Fn() -> bool + Sync)>) -> Result<Value, Refusal>,
{
    match deadline {
        None => body(None),
        Some(deadline) => {
            let hook = move || Instant::now() < deadline;
            body(Some(&hook))
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
