//! Memoized, parallel pairwise-disparity engine.
//!
//! [`worst_case_disparity`](crate::disparity::worst_case_disparity)
//! evaluates Theorem 1/2 over all `O(k²)` chain pairs at a sink; the
//! direct path recomputes the same per-hop Lemma 4/5 terms and the same
//! sub-chain WCBT/BCBT folds for every pair. [`AnalysisEngine`] computes
//! each shared sub-result exactly once:
//!
//! * a **per-graph hop-bound cache** keyed by `(from, to)` channel — the
//!   Lemma 4 `θ_i` term plus the Lemma 6 buffer shift of every edge,
//!   computed lazily on first touch and reused across chains, pairs,
//!   methods and sinks;
//! * **prefix WCBT/BCBT tables per enumerated chain** — hop-bound, BCET
//!   and buffer-shift prefix sums, so the backward bounds of *any*
//!   sub-chain (the `α_j`/`β_j` of Theorem 2, or a truncated prefix) are
//!   two table lookups instead of a refold;
//! * a **per-task-set [`ResponseTimes`] handle** — WCRT analysis runs
//!   once per engine, not once per analyzed task.
//!
//! The chain-pair loop optionally fans out across a scoped-thread worker
//! pool (std only; the workspace is offline and zero-dep). Pairs are
//! partitioned into contiguous index ranges and merged back in range
//! order, so the resulting [`DisparityReport`] is **byte-identical** to
//! the serial path regardless of worker count or scheduling — the
//! arithmetic itself is the exact same `i64` arithmetic as the direct
//! [`theorem1_bound`](crate::pairwise::theorem1_bound) /
//! [`theorem2_bound`](crate::pairwise::theorem2_bound) path, just with
//! every shared term looked up instead of recomputed (a property pinned
//! by `tests/engine_consistency.rs`).

use core::fmt;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use disparity_model::chain::Chain;
use disparity_model::error::ModelError;
use disparity_model::graph::CauseEffectGraph;
use disparity_model::ids::TaskId;
use disparity_model::time::{div_ceil, div_floor, Duration};
use disparity_sched::wcrt::ResponseTimes;

use crate::backward::{buffer_shift, try_hop_bound, BackwardBounds};
use crate::disparity::{AnalysisConfig, DisparityReport, PairBound};
use crate::error::AnalysisError;
use crate::pairwise::Method;

/// Minimum number of chain pairs before the engine spawns worker
/// threads; below this the scoped-thread setup costs more than the loop.
const PAR_THRESHOLD: usize = 64;

/// Cached per-edge terms: the Lemma 4 hop bound `θ` (already including
/// the Lemma 6 buffer shift) and the bare buffer shift (needed separately
/// by the Lemma 5 lower bound).
#[derive(Debug, Clone, Copy)]
struct EdgeBounds {
    hop: Duration,
    shift: Duration,
}

/// A shareable, thread-safe hop-bound cache: the memoized Lemma 4/6
/// per-edge terms of **one graph under one response-time assignment**.
///
/// [`AnalysisEngine::new`] creates a fresh private cache; long-lived
/// callers (the analysis service keeps one engine's worth of state per
/// cached graph) can instead keep a `HopCache` alongside the graph and
/// hand clones of it to every engine built over that graph via
/// [`AnalysisEngine::with_hop_cache`], so the per-edge terms amortize
/// across engines, requests and threads. Clones share storage.
///
/// **Invariant:** a cache must only ever be attached to engines over the
/// same graph and the same [`ResponseTimes`]. Task ids are per-graph
/// indices, so feeding one graph's cache to another graph would silently
/// return stale bounds. The engine cannot check this; the owner of the
/// cache must key it by graph identity (the service keys caches by a
/// canonical content hash of the spec).
#[derive(Clone, Default)]
pub struct HopCache {
    inner: Arc<Mutex<HashMap<(TaskId, TaskId), EdgeBounds>>>,
}

impl HopCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        HopCache::default()
    }

    /// Number of memoized edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no edge has been memoized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A new cache holding deep copies of the entries `keep` accepts.
    ///
    /// This is the delta engine's invalidation primitive: deriving a
    /// system from an edited spec starts from the previous system's cache
    /// with the dirty edges dropped, so every clean hop bound is reused
    /// and every dirty one recomputes lazily on first touch. The result
    /// shares no storage with `self`.
    #[must_use]
    pub fn filtered(&self, keep: impl Fn(TaskId, TaskId) -> bool) -> HopCache {
        let retained: HashMap<(TaskId, TaskId), EdgeBounds> = self
            .lock()
            .iter()
            .filter(|&(&(a, b), _)| keep(a, b))
            .map(|(&k, &v)| (k, v))
            .collect();
        HopCache {
            inner: Arc::new(Mutex::new(retained)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<(TaskId, TaskId), EdgeBounds>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl fmt::Debug for HopCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HopCache")
            .field("entries", &self.len())
            .finish()
    }
}

/// Prefix tables of one enumerated chain: every sub-chain's backward
/// bounds in O(1).
///
/// For the sub-chain spanning positions `start..=end`:
///
/// * `W = hop_prefix[end] − hop_prefix[start]` (Lemma 4 + Lemma 6);
/// * `B = bcet_prefix[end+1] − bcet_prefix[start] − R(tasks[end])
///   + shift_prefix[end] − shift_prefix[start]` (Lemma 5 + Lemma 6).
///
/// Tables are handed around in `Arc`s: a table depends only on the
/// chain's tasks, their BCETs, the response times, and the hop/shift
/// terms of its edges, so the delta engine shares a clean chain's table
/// across derived systems instead of rebuilding it (see
/// `worst_case_disparity_partial`).
#[derive(Debug)]
pub(crate) struct ChainTable {
    /// `hop_prefix[k]` = sum of the first `k` edge hop bounds.
    hop_prefix: Vec<Duration>,
    /// `bcet_prefix[k]` = sum of the first `k` tasks' BCETs.
    bcet_prefix: Vec<Duration>,
    /// `shift_prefix[k]` = sum of the first `k` edges' buffer shifts.
    shift_prefix: Vec<Duration>,
    /// Position of each task on the chain (chains are simple paths).
    pos: HashMap<TaskId, usize>,
}

impl ChainTable {
    /// Backward bounds of the sub-chain `tasks[start..=end]`.
    fn bounds(&self, rt: &ResponseTimes, tail: TaskId, start: usize, end: usize) -> BackwardBounds {
        BackwardBounds {
            wcbt: self.hop_prefix[end] - self.hop_prefix[start],
            bcbt: self.bcet_prefix[end + 1] - self.bcet_prefix[start] - rt.wcrt(tail)
                + self.shift_prefix[end]
                - self.shift_prefix[start],
        }
    }
}

/// Memoized pairwise-disparity engine over one graph and one task set.
///
/// Construction is cheap (the hop-bound cache fills lazily); the engine
/// is then reusable across every analyzed task of the graph, sharing the
/// [`ResponseTimes`] handle and every cached hop bound.
///
/// # Examples
///
/// ```
/// use disparity_model::prelude::*;
/// use disparity_sched::wcrt::response_times;
/// use disparity_core::engine::AnalysisEngine;
/// use disparity_core::disparity::AnalysisConfig;
///
/// let mut b = SystemBuilder::new();
/// let ecu = b.add_ecu("e");
/// let ms = Duration::from_millis;
/// let cam = b.add_task(TaskSpec::periodic("camera", ms(33)));
/// let lidar = b.add_task(TaskSpec::periodic("lidar", ms(100)));
/// let fuse = b.add_task(
///     TaskSpec::periodic("fuse", ms(33)).execution(ms(2), ms(5)).on_ecu(ecu),
/// );
/// b.connect(cam, fuse);
/// b.connect(lidar, fuse);
/// let g = b.build()?;
/// let rt = response_times(&g)?;
/// let engine = AnalysisEngine::new(&g, &rt);
/// let report = engine.worst_case_disparity(fuse, AnalysisConfig::default())?;
/// assert!(report.bound > Duration::ZERO);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AnalysisEngine<'a> {
    graph: &'a CauseEffectGraph,
    rt: &'a ResponseTimes,
    /// Lazily filled hop-bound cache keyed by `(from, to)` channel. A
    /// `Mutex` (not `RefCell`) so the engine stays `Sync` for the scoped
    /// worker pool; the pair loop itself only reads the prefix tables, so
    /// the lock is never contended. Shareable across engines over the
    /// same graph via [`with_hop_cache`](Self::with_hop_cache).
    edges: HopCache,
    workers: usize,
    /// Optional cooperative budget hook (`true` = keep going). Checked
    /// between chains and every [`BUDGET_STRIDE`] pairs; when it returns
    /// `false` the analysis stops with
    /// [`AnalysisError::BudgetExhausted`]. Long-running callers use this
    /// to enforce soft deadlines without tearing down worker threads.
    budget: Option<&'a (dyn Fn() -> bool + Sync)>,
}

impl fmt::Debug for AnalysisEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnalysisEngine")
            .field("tasks", &self.graph.task_count())
            .field("edges", &self.edges)
            .field("workers", &self.workers)
            .field("budget_hook", &self.budget.is_some())
            .finish()
    }
}

/// How many pairs the pair loops process between budget-hook checks.
const BUDGET_STRIDE: usize = 64;

impl<'a> AnalysisEngine<'a> {
    /// Creates an engine over `graph` with response times `rt`.
    ///
    /// The worker count defaults to the machine's available parallelism
    /// (capped at 8); see [`with_workers`](Self::with_workers).
    #[must_use]
    pub fn new(graph: &'a CauseEffectGraph, rt: &'a ResponseTimes) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        AnalysisEngine {
            graph,
            rt,
            edges: HopCache::new(),
            workers,
            budget: None,
        }
    }

    /// Sets the worker-pool size for the pair loop. `1` keeps the loop
    /// serial — useful when the caller already parallelizes at a coarser
    /// granularity (the fig6 sweeps parallelize per graph). Any value
    /// produces the same report bit for bit.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a shared hop-bound cache, replacing the engine's private
    /// one. See [`HopCache`] for the graph-identity invariant the caller
    /// must uphold.
    #[must_use]
    pub fn with_hop_cache(mut self, cache: HopCache) -> Self {
        self.edges = cache;
        self
    }

    /// A handle to this engine's hop-bound cache (clones share storage),
    /// for reuse by a later engine over the same graph.
    #[must_use]
    pub fn hop_cache(&self) -> HopCache {
        self.edges.clone()
    }

    /// Installs a cooperative budget hook. The hook is polled between
    /// chain-table builds and every 64 analyzed pairs; returning `false`
    /// aborts the analysis with [`AnalysisError::BudgetExhausted`]. The
    /// hook must be cheap (an atomic load or a deadline comparison) and
    /// is called from worker threads, hence `Sync`.
    #[must_use]
    pub fn with_budget_hook(mut self, hook: &'a (dyn Fn() -> bool + Sync)) -> Self {
        self.budget = Some(hook);
        self
    }

    /// Errors with [`AnalysisError::BudgetExhausted`] once the budget
    /// hook (if any) reports exhaustion.
    fn check_budget(&self) -> Result<(), AnalysisError> {
        match self.budget {
            Some(hook) if !hook() => {
                disparity_obs::counter_add("engine.budget_stops", 1);
                Err(AnalysisError::BudgetExhausted)
            }
            _ => Ok(()),
        }
    }

    /// The graph this engine analyzes.
    #[must_use]
    pub fn graph(&self) -> &'a CauseEffectGraph {
        self.graph
    }

    /// The response-time handle shared by every analysis on this engine.
    #[must_use]
    pub fn response_times(&self) -> &'a ResponseTimes {
        self.rt
    }

    /// The cached per-edge terms, computing them on first touch.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when `(from, to)` is not an edge.
    fn edge_bounds(&self, from: TaskId, to: TaskId) -> Result<EdgeBounds, AnalysisError> {
        if let Some(&e) = self.edges.lock().get(&(from, to)) {
            disparity_obs::counter_add("engine.hop_cache.hits", 1);
            return Ok(e);
        }
        disparity_obs::counter_add("engine.hop_cache.misses", 1);
        let hop = try_hop_bound(self.graph, from, to, self.rt)?;
        let channel = self
            .graph
            .channel_between(from, to)
            .ok_or(AnalysisError::Model(ModelError::NotAChain { from, to }))?;
        let shift = buffer_shift(channel.capacity(), self.graph.task(from).period());
        let e = EdgeBounds { hop, shift };
        self.edges.lock().insert((from, to), e);
        Ok(e)
    }

    /// Backward bounds of an arbitrary chain through the cached hop
    /// bounds. Produces exactly the values of
    /// [`backward_bounds`](crate::backward::backward_bounds); the
    /// soundness sentinel checks observed backward times against it.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Model`] when `chain` is not a path of the graph.
    pub fn backward_bounds(&self, chain: &Chain) -> Result<BackwardBounds, AnalysisError> {
        let mut wcbt = Duration::ZERO;
        let mut shift = Duration::ZERO;
        for (a, b) in chain.edges() {
            let e = self.edge_bounds(a, b)?;
            wcbt += e.hop;
            shift += e.shift;
        }
        let mut bcet = Duration::ZERO;
        for &t in chain.tasks() {
            bcet += self
                .graph
                .get_task(t)
                .ok_or(AnalysisError::Model(ModelError::UnknownTask(t)))?
                .bcet();
        }
        Ok(BackwardBounds {
            wcbt,
            bcbt: bcet - self.rt.wcrt(chain.tail()) + shift,
        })
    }

    /// Builds the prefix tables of one enumerated chain.
    fn table(&self, chain: &Chain) -> Result<ChainTable, AnalysisError> {
        let tasks = chain.tasks();
        let mut hop_prefix = Vec::with_capacity(tasks.len());
        let mut shift_prefix = Vec::with_capacity(tasks.len());
        let mut bcet_prefix = Vec::with_capacity(tasks.len() + 1);
        hop_prefix.push(Duration::ZERO);
        shift_prefix.push(Duration::ZERO);
        bcet_prefix.push(Duration::ZERO);
        let mut pos = HashMap::with_capacity(tasks.len());
        let mut bcet_total = Duration::ZERO;
        let mut hop_total = Duration::ZERO;
        let mut shift_total = Duration::ZERO;
        for (i, &t) in tasks.iter().enumerate() {
            let bcet = self
                .graph
                .get_task(t)
                .ok_or(AnalysisError::Model(ModelError::UnknownTask(t)))?
                .bcet();
            bcet_total += bcet;
            bcet_prefix.push(bcet_total);
            pos.insert(t, i);
            if let Some(&next) = tasks.get(i + 1) {
                let e = self.edge_bounds(t, next)?;
                hop_total += e.hop;
                hop_prefix.push(hop_total);
                shift_total += e.shift;
                shift_prefix.push(shift_total);
            }
        }
        Ok(ChainTable {
            hop_prefix,
            bcet_prefix,
            shift_prefix,
            pos,
        })
    }

    /// Bounds the worst-case time disparity of `task`, memoized and
    /// (above `PAR_THRESHOLD` = 64 pairs) parallel.
    ///
    /// The report is bit-identical to
    /// [`worst_case_disparity_direct`](crate::disparity::worst_case_disparity_direct)
    /// for any worker count.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`worst_case_disparity`](crate::disparity::worst_case_disparity).
    pub fn worst_case_disparity(
        &self,
        task: TaskId,
        config: AnalysisConfig,
    ) -> Result<DisparityReport, AnalysisError> {
        self.worst_case_disparity_with_tables(task, config)
            .map(|(report, _)| report)
    }

    /// [`Self::worst_case_disparity`] returning the built chain tables
    /// alongside the report, so the delta engine can carry clean tables
    /// into derived systems.
    pub(crate) fn worst_case_disparity_with_tables(
        &self,
        task: TaskId,
        config: AnalysisConfig,
    ) -> Result<(DisparityReport, Vec<Arc<ChainTable>>), AnalysisError> {
        self.check_budget()?;
        let chains = self.graph.chains_to(task, config.chain_limit)?;
        let mut span = disparity_obs::span("disparity.worst_case");
        span.attr("chains", chains.len());
        span.attr("engine", 1usize);
        let tables: Vec<Arc<ChainTable>> = chains
            .iter()
            .map(|c| {
                self.check_budget()?;
                self.table(c).map(Arc::new)
            })
            .collect::<Result<_, _>>()?;
        disparity_obs::counter_add("engine.chain_tables", tables.len() as u64);
        let n = chains.len();
        let n_pairs = n * (n - 1) / 2;
        let pairs = if self.workers > 1 && n_pairs >= PAR_THRESHOLD {
            self.pairs_parallel(&chains, &tables, config.method, n_pairs)?
        } else {
            let mut pairs = Vec::with_capacity(n_pairs);
            for i in 0..n {
                for j in (i + 1)..n {
                    if pairs.len() % BUDGET_STRIDE == 0 {
                        self.check_budget()?;
                    }
                    pairs.push(self.pair_bound(&chains, &tables, i, j, config.method));
                }
            }
            pairs
        };
        disparity_obs::counter_add("engine.pairs", pairs.len() as u64);
        let bound = pairs
            .iter()
            .map(|p| p.bound)
            .max()
            .unwrap_or(Duration::ZERO);
        span.attr("pairs", pairs.len());
        span.attr("bound_ns", bound);
        Ok((
            DisparityReport {
                task,
                method: config.method,
                bound,
                chains,
                pairs,
            },
            tables,
        ))
    }

    /// Re-sweeps only the pairs that touch a dirty chain, copying every
    /// clean pair from `prev_pairs` and every clean chain's prefix table
    /// from `prev_tables`. Returns the report and the (partially shared)
    /// tables of the derived system.
    ///
    /// Caller contract (upheld by the delta engine in `delta.rs`): the
    /// `chains` are exactly what [`CauseEffectGraph::chains_to`] would
    /// enumerate for `task` under `config`, `prev_pairs` is the pair list
    /// of a report over those same chains in the same `(i, j)` order,
    /// `prev_tables` are that report's chain tables in chain order, and
    /// `dirty[i]` is `true` for every chain whose bounds may have changed.
    /// Under that contract the result is byte-identical to a full
    /// [`Self::worst_case_disparity`] run: clean pairs and clean tables
    /// were computed from unchanged inputs by identical arithmetic, dirty
    /// ones are recomputed here through the (pre-invalidated) hop cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::worst_case_disparity`].
    pub(crate) fn worst_case_disparity_partial(
        &self,
        task: TaskId,
        config: AnalysisConfig,
        chains: Vec<Chain>,
        prev_pairs: &[PairBound],
        prev_tables: &[Arc<ChainTable>],
        dirty: &[bool],
    ) -> Result<(DisparityReport, Vec<Arc<ChainTable>>), AnalysisError> {
        self.check_budget()?;
        let n = chains.len();
        debug_assert_eq!(prev_tables.len(), n, "one table per chain");
        // Only dirty chains rebuild their table; a clean chain's prefix
        // sums depend on unchanged inputs, so its previous table is
        // shared as-is (dirty pairs read the clean partner through it).
        let tables: Vec<Arc<ChainTable>> = chains
            .iter()
            .zip(prev_tables)
            .zip(dirty)
            .map(|((c, prev), &d)| {
                if d {
                    self.check_budget()?;
                    self.table(c).map(Arc::new)
                } else {
                    Ok(Arc::clone(prev))
                }
            })
            .collect::<Result<_, _>>()?;
        let mut pairs = Vec::with_capacity(prev_pairs.len());
        let mut flat = 0usize;
        let mut recomputed = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if dirty[i] || dirty[j] {
                    if recomputed.is_multiple_of(BUDGET_STRIDE) {
                        self.check_budget()?;
                    }
                    recomputed += 1;
                    pairs.push(self.pair_bound(&chains, &tables, i, j, config.method));
                } else {
                    pairs.push(prev_pairs[flat].clone());
                }
                flat += 1;
            }
        }
        disparity_obs::counter_add("engine.delta.pairs_recomputed", recomputed as u64);
        disparity_obs::counter_add(
            "engine.delta.pairs_reused",
            (pairs.len() - recomputed) as u64,
        );
        let bound = pairs
            .iter()
            .map(|p| p.bound)
            .max()
            .unwrap_or(Duration::ZERO);
        Ok((
            DisparityReport {
                task,
                method: config.method,
                bound,
                chains,
                pairs,
            },
            tables,
        ))
    }

    /// The pair loop over a scoped-thread worker pool. Pairs are chunked
    /// into contiguous index ranges, one batch per worker, and merged
    /// back in batch order — the output `Vec` is identical to the serial
    /// loop's.
    fn pairs_parallel(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        method: Method,
        n_pairs: usize,
    ) -> Result<Vec<PairBound>, AnalysisError> {
        let mut index: Vec<(usize, usize)> = Vec::with_capacity(n_pairs);
        for i in 0..chains.len() {
            for j in (i + 1)..chains.len() {
                index.push((i, j));
            }
        }
        // Workers only read the prefix tables, which are complete before
        // the loop starts; the hop cache is not touched here.
        let chunk = index.len().div_ceil(self.workers);
        let mut pairs = Vec::with_capacity(index.len());
        let mut exhausted = false;
        // Scoped workers are fresh threads: carry the caller's request
        // trace context across the spawn so batch spans stay attributable
        // to the request that triggered the sweep.
        let trace = disparity_obs::current_trace();
        std::thread::scope(|scope| {
            let handles: Vec<_> = index
                .chunks(chunk)
                .enumerate()
                .map(|(batch, slice)| {
                    scope.spawn(move || {
                        let _trace = disparity_obs::trace_scope(trace);
                        let mut span = disparity_obs::span("engine.pair_batch");
                        span.attr("batch", batch);
                        span.attr("pairs", slice.len());
                        let mut out = Vec::with_capacity(slice.len());
                        for (k, &(i, j)) in slice.iter().enumerate() {
                            if k % BUDGET_STRIDE == 0 && self.check_budget().is_err() {
                                return Err(AnalysisError::BudgetExhausted);
                            }
                            out.push(self.pair_bound(chains, tables, i, j, method));
                        }
                        Ok(out)
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(Ok(chunk)) => pairs.extend(chunk),
                    Ok(Err(_)) => exhausted = true,
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        if exhausted {
            return Err(AnalysisError::BudgetExhausted);
        }
        disparity_obs::counter_add("engine.par_batches", self.workers as u64);
        Ok(pairs)
    }

    /// One pair's bound, from the prefix tables. Mirrors
    /// `pair_bound_for_method` in `disparity.rs` term for term.
    fn pair_bound(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        i: usize,
        j: usize,
        method: Method,
    ) -> PairBound {
        let (bound, analyzed_at) = match method {
            Method::Independent => (self.theorem1_full(chains, tables, i, j), chains[i].tail()),
            Method::ForkJoin => self.theorem2_truncated(chains, tables, i, j),
            Method::Combined => {
                let p = self.theorem1_full(chains, tables, i, j);
                let (s, at) = self.theorem2_truncated(chains, tables, i, j);
                if disparity_obs::is_enabled() {
                    let winner = match s.cmp(&p) {
                        core::cmp::Ordering::Less => "pairwise.sdiff_tighter",
                        core::cmp::Ordering::Greater => "pairwise.pdiff_tighter",
                        core::cmp::Ordering::Equal => "pairwise.tie",
                    };
                    disparity_obs::counter_add(winner, 1);
                    disparity_obs::observe("pairwise.gap_ns", (p - s).abs().as_nanos());
                }
                (p.min(s), at)
            }
        };
        PairBound {
            lambda: i,
            nu: j,
            analyzed_at,
            bound,
        }
    }

    /// Theorem 1 over the *full* chain pair (the **P-diff** leg).
    fn theorem1_full(&self, chains: &[Chain], tables: &[Arc<ChainTable>], i: usize, j: usize) -> Duration {
        let li = chains[i].len() - 1;
        let lj = chains[j].len() - 1;
        let bl = tables[i].bounds(self.rt, chains[i].tail(), 0, li);
        let bn = tables[j].bounds(self.rt, chains[j].tail(), 0, lj);
        let o = (bl.wcbt - bn.bcbt).abs().max((bn.wcbt - bl.bcbt).abs());
        self.round_same_source(chains[i].head(), chains[j].head(), o)
    }

    /// Theorem 2 over the pair truncated at its last joint task (the
    /// **S-diff** leg). Returns the bound and the analyzed task.
    fn theorem2_truncated(
        &self,
        chains: &[Chain],
        tables: &[Arc<ChainTable>],
        i: usize,
        j: usize,
    ) -> (Duration, TaskId) {
        let ti = chains[i].tasks();
        let tj = chains[j].tasks();
        // Last joint task: both chains end at the analyzed task, so the
        // longest common suffix is non-empty and the truncated tails are
        // its first element.
        let k = ti
            .iter()
            .rev()
            .zip(tj.iter().rev())
            .take_while(|(a, b)| a == b)
            .count();
        debug_assert!(k >= 1, "chains ending at the same task share a suffix");
        let lam_end = ti.len() - k;
        let nu_end = tj.len() - k;
        let analyzed_at = ti[lam_end];

        // Common tasks of the truncated pair (graph sources excluded),
        // with their positions on each chain.
        let mut commons: Vec<(usize, usize)> = Vec::new();
        for (p, &t) in ti.iter().enumerate().take(lam_end + 1) {
            if self.graph.is_source(t) {
                continue;
            }
            if let Some(&q) = tables[j].pos.get(&t) {
                if q <= nu_end {
                    commons.push((p, q));
                }
            }
        }
        debug_assert!(
            commons.last().map(|&(p, _)| ti[p]) == Some(analyzed_at),
            "the shared tail must be the last common task"
        );

        let c = commons.len();
        // Backward bounds of the sub-chains α_j / β_j between consecutive
        // common tasks — two prefix-table lookups each.
        let sub = |table: &ChainTable, tasks: &[TaskId], start: usize, end: usize| {
            table.bounds(self.rt, tasks[end], start, end)
        };
        let mut alpha = Vec::with_capacity(c);
        let mut beta = Vec::with_capacity(c);
        for (idx, &(p, q)) in commons.iter().enumerate() {
            let (a_start, b_start) = if idx == 0 {
                (0, 0)
            } else {
                (commons[idx - 1].0, commons[idx - 1].1)
            };
            alpha.push(sub(&tables[i], ti, a_start, p));
            beta.push(sub(&tables[j], tj, b_start, q));
        }

        // The x/y job-index recursion of Theorem 2 (`decompose`).
        let mut x = vec![0i64; c];
        let mut y = vec![0i64; c];
        for idx in (0..c.saturating_sub(1)).rev() {
            let t_j = self.graph.task(ti[commons[idx].0]).period();
            let t_next = self.graph.task(ti[commons[idx + 1].0]).period();
            let num_x = alpha[idx + 1].bcbt - beta[idx + 1].wcbt + t_next * x[idx + 1];
            let num_y = alpha[idx + 1].wcbt - beta[idx + 1].bcbt + t_next * y[idx + 1];
            x[idx] = div_ceil(num_x.as_nanos(), t_j.as_nanos());
            y[idx] = div_floor(num_y.as_nanos(), t_j.as_nanos());
        }

        if disparity_obs::is_enabled() {
            disparity_obs::counter_add("sdiff.decompositions", 1);
            disparity_obs::counter_add("sdiff.recursion_steps", c.saturating_sub(1) as u64);
            disparity_obs::observe("sdiff.common_tasks", i64::try_from(c).unwrap_or(i64::MAX));
            for idx in 0..c {
                disparity_obs::observe("sdiff.window_span", y[idx].saturating_sub(x[idx]));
            }
        }

        // Lemma 3 at o_1 with the window [x_1, y_1] (`offset_bound`).
        let t1 = self.graph.task(ti[commons[0].0]).period();
        let (a, b) = (alpha[0], beta[0]);
        let o = (b.wcbt - a.bcbt - t1 * x[0])
            .abs()
            .max((b.bcbt - a.wcbt - t1 * y[0]).abs());
        (self.round_same_source(ti[0], tj[0], o), analyzed_at)
    }

    /// Same-source rounding (second case of Theorems 1 and 2).
    fn round_same_source(&self, head_a: TaskId, head_b: TaskId, o: Duration) -> Duration {
        if head_a == head_b {
            let t = self.graph.task(head_a).period();
            t * o.div_floor(t)
        } else {
            o
        }
    }

    /// Bounds the worst-case disparity of **every** task with at least
    /// two incoming chains, sharing the hop-bound cache and response
    /// times across sinks. Mirrors
    /// [`analyze_all_tasks`](crate::disparity::analyze_all_tasks).
    ///
    /// # Errors
    ///
    /// Propagates pairwise-analysis errors; enumeration-budget overruns
    /// are collected into the second return value, not raised.
    pub fn analyze_all_tasks(
        &self,
        config: AnalysisConfig,
    ) -> Result<(Vec<DisparityReport>, Vec<TaskId>), AnalysisError> {
        self.analyze_all_tasks_with_tables(config)
            .map(|(reports, _, skipped)| (reports, skipped))
    }

    /// [`Self::analyze_all_tasks`] returning each report's chain tables
    /// (in report order), so the delta engine can seed its table
    /// carry-over from a cold run.
    #[allow(clippy::type_complexity)]
    pub(crate) fn analyze_all_tasks_with_tables(
        &self,
        config: AnalysisConfig,
    ) -> Result<(Vec<DisparityReport>, Vec<Vec<Arc<ChainTable>>>, Vec<TaskId>), AnalysisError> {
        let mut reports = Vec::new();
        let mut tables = Vec::new();
        let mut skipped = Vec::new();
        for task in self.graph.tasks() {
            match self.worst_case_disparity_with_tables(task.id(), config) {
                Ok((report, t)) => {
                    if report.chains.len() >= 2 {
                        reports.push(report);
                        tables.push(t);
                    }
                }
                Err(AnalysisError::Model(ModelError::ChainLimitExceeded { .. })) => {
                    skipped.push(task.id());
                }
                Err(e) => return Err(e),
            }
        }
        Ok((reports, tables, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backward::backward_bounds;
    use crate::disparity::worst_case_disparity_direct;
    use disparity_model::builder::SystemBuilder;
    use disparity_model::task::TaskSpec;
    use disparity_sched::wcrt::response_times;

    fn ms(v: i64) -> Duration {
        Duration::from_millis(v)
    }

    /// The paper's Fig. 2 topology.
    fn fig2() -> (CauseEffectGraph, TaskId) {
        let mut b = SystemBuilder::new();
        let e1 = b.add_ecu("ecu1");
        let e2 = b.add_ecu("ecu2");
        let t1 = b.add_task(TaskSpec::periodic("t1", ms(10)));
        let t2 = b.add_task(TaskSpec::periodic("t2", ms(20)));
        let t3 = b.add_task(
            TaskSpec::periodic("t3", ms(10))
                .execution(ms(1), ms(2))
                .on_ecu(e1),
        );
        let t4 = b.add_task(
            TaskSpec::periodic("t4", ms(20))
                .execution(ms(2), ms(4))
                .on_ecu(e1),
        );
        let t5 = b.add_task(
            TaskSpec::periodic("t5", ms(30))
                .execution(ms(2), ms(5))
                .on_ecu(e2),
        );
        let t6 = b.add_task(
            TaskSpec::periodic("t6", ms(30))
                .execution(ms(3), ms(6))
                .on_ecu(e2),
        );
        b.connect(t1, t3);
        b.connect(t2, t3);
        b.connect(t3, t4);
        b.connect(t3, t5);
        b.connect(t4, t6);
        b.connect(t5, t6);
        (b.build().unwrap(), t6)
    }

    /// A wide fan-in (8 sources through 8 relays into one sink): 8 chains,
    /// 28 pairs — not enough to cross [`PAR_THRESHOLD`], so parallel runs
    /// are forced with a tiny threshold via many chains below.
    fn wide(n_sources: usize) -> (CauseEffectGraph, TaskId) {
        let mut b = SystemBuilder::new();
        let e = b.add_ecu("e");
        let sink = b.add_task(
            TaskSpec::periodic("sink", ms(40))
                .execution(ms(1), ms(1))
                .on_ecu(e),
        );
        for i in 0..n_sources {
            let s = b.add_task(TaskSpec::periodic(
                format!("s{i}"),
                ms(10 + 10 * (i as i64 % 4)),
            ));
            let relay = b.add_task(
                TaskSpec::periodic(format!("r{i}"), ms(20))
                    .execution(ms(1), ms(1))
                    .on_ecu(e),
            );
            b.connect(s, relay);
            b.connect(relay, sink);
        }
        (b.build().unwrap(), sink)
    }

    fn assert_reports_identical(a: &DisparityReport, b: &DisparityReport) {
        assert_eq!(a.task, b.task);
        assert_eq!(a.method, b.method);
        assert_eq!(a.bound, b.bound);
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.pairs.len(), b.pairs.len());
        for (x, y) in a.pairs.iter().zip(&b.pairs) {
            assert_eq!(x.lambda, y.lambda);
            assert_eq!(x.nu, y.nu);
            assert_eq!(x.analyzed_at, y.analyzed_at);
            assert_eq!(x.bound, y.bound, "pair ({}, {})", x.lambda, x.nu);
        }
    }

    #[test]
    fn engine_matches_direct_path_on_fig2() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        for method in [Method::Independent, Method::ForkJoin, Method::Combined] {
            let config = AnalysisConfig {
                method,
                ..Default::default()
            };
            let direct = worst_case_disparity_direct(&g, t6, &rt, config).unwrap();
            let cached = engine.worst_case_disparity(t6, config).unwrap();
            assert_reports_identical(&direct, &cached);
        }
    }

    #[test]
    fn parallel_reduction_is_bit_identical_to_serial() {
        // 13 sources -> 78 pairs, above PAR_THRESHOLD.
        let (g, sink) = wide(13);
        let rt = response_times(&g).unwrap();
        for method in [Method::Independent, Method::ForkJoin, Method::Combined] {
            let config = AnalysisConfig {
                method,
                ..Default::default()
            };
            let serial = AnalysisEngine::new(&g, &rt)
                .with_workers(1)
                .worst_case_disparity(sink, config)
                .unwrap();
            for workers in [2, 3, 8] {
                let parallel = AnalysisEngine::new(&g, &rt)
                    .with_workers(workers)
                    .worst_case_disparity(sink, config)
                    .unwrap();
                assert_reports_identical(&serial, &parallel);
            }
            let direct = worst_case_disparity_direct(&g, sink, &rt, config).unwrap();
            assert_reports_identical(&direct, &serial);
        }
    }

    #[test]
    fn engine_backward_bounds_match_direct_fold() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        for chain in g.chains_to(t6, 64).unwrap() {
            assert_eq!(
                engine.backward_bounds(&chain).unwrap(),
                backward_bounds(&g, &chain, &rt)
            );
        }
    }

    #[test]
    fn engine_backward_bounds_reject_foreign_chains() {
        let (g, _) = fig2();
        let (g2, sink2) = wide(3);
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let foreign = g2.chains_to(sink2, 16).unwrap().remove(0);
        assert!(matches!(
            engine.backward_bounds(&foreign),
            Err(AnalysisError::Model(_))
        ));
    }

    #[test]
    fn analyze_all_tasks_matches_free_function() {
        let (g, _) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let config = AnalysisConfig::default();
        let (reports, skipped) = engine.analyze_all_tasks(config).unwrap();
        let (free_reports, free_skipped) =
            crate::disparity::analyze_all_tasks(&g, &rt, config).unwrap();
        assert_eq!(skipped, free_skipped);
        assert_eq!(reports.len(), free_reports.len());
        for (a, b) in reports.iter().zip(&free_reports) {
            assert_reports_identical(a, b);
        }
    }

    #[test]
    fn shared_hop_cache_amortizes_across_engines() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let cache = HopCache::new();
        assert!(cache.is_empty());
        let first = AnalysisEngine::new(&g, &rt)
            .with_hop_cache(cache.clone())
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        let warmed = cache.len();
        assert!(warmed > 0, "the first engine fills the shared cache");
        // A second engine over the same graph reuses the warmed cache and
        // produces the identical report.
        let second = AnalysisEngine::new(&g, &rt)
            .with_hop_cache(cache.clone())
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        assert_eq!(cache.len(), warmed, "no new edges on the warm path");
        assert_reports_identical(&first, &second);
        let direct = worst_case_disparity_direct(&g, t6, &rt, AnalysisConfig::default()).unwrap();
        assert_reports_identical(&direct, &second);
    }

    #[test]
    fn hop_cache_handle_shares_storage() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        let engine = AnalysisEngine::new(&g, &rt);
        let handle = engine.hop_cache();
        engine
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        assert!(!handle.is_empty(), "handle observes the engine's fills");
        assert!(format!("{handle:?}").contains("entries"));
    }

    #[test]
    fn budget_hook_stops_serial_and_parallel_loops() {
        let (g, sink) = wide(13); // 78 pairs: the parallel path engages
        let rt = response_times(&g).unwrap();
        let stop = || false;
        for workers in [1, 4] {
            let err = AnalysisEngine::new(&g, &rt)
                .with_workers(workers)
                .with_budget_hook(&stop)
                .worst_case_disparity(sink, AnalysisConfig::default())
                .unwrap_err();
            assert!(
                matches!(err, AnalysisError::BudgetExhausted),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn generous_budget_hook_changes_nothing() {
        let (g, sink) = wide(13);
        let rt = response_times(&g).unwrap();
        let keep_going = || true;
        let config = AnalysisConfig::default();
        let plain = AnalysisEngine::new(&g, &rt)
            .worst_case_disparity(sink, config)
            .unwrap();
        let hooked = AnalysisEngine::new(&g, &rt)
            .with_budget_hook(&keep_going)
            .worst_case_disparity(sink, config)
            .unwrap();
        assert_reports_identical(&plain, &hooked);
    }

    #[test]
    fn budget_hook_can_fire_mid_analysis() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (g, sink) = wide(13);
        let rt = response_times(&g).unwrap();
        // Allow a few checks, then cut the budget: exercises the
        // mid-loop stride checks rather than the entry check.
        let calls = AtomicUsize::new(0);
        let hook = move || calls.fetch_add(1, Ordering::Relaxed) < 3;
        let err = AnalysisEngine::new(&g, &rt)
            .with_workers(1)
            .with_budget_hook(&hook)
            .worst_case_disparity(sink, AnalysisConfig::default())
            .unwrap_err();
        assert!(matches!(err, AnalysisError::BudgetExhausted));
    }

    #[test]
    fn hop_cache_hits_accumulate() {
        let (g, t6) = fig2();
        let rt = response_times(&g).unwrap();
        disparity_obs::reset();
        disparity_obs::enable();
        let engine = AnalysisEngine::new(&g, &rt);
        engine
            .worst_case_disparity(t6, AnalysisConfig::default())
            .unwrap();
        let snap = disparity_obs::snapshot();
        disparity_obs::disable();
        disparity_obs::reset();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        // Other tests may record concurrently while obs is enabled, so
        // only monotone lower bounds are safe to assert. 6 edges shared
        // by 4 chains guarantee both misses (first touch) and hits
        // (every re-use).
        assert!(counter("engine.hop_cache.misses") >= 1);
        assert!(counter("engine.hop_cache.hits") >= 1);
        assert!(counter("engine.chain_tables") >= 4);
        assert!(counter("engine.pairs") >= 6);
    }
}
