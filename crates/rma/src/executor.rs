//! The superstep executor: epochs, puts, delivery, counters.
//!
//! # Phases
//!
//! Every phase runs through one routine over disjoint chunks of
//! `(ranks, buckets, per-rank counters)`: inline on the calling thread
//! ([`ExecMode::Sequential`]) or one chunk per task on the worker pool
//! ([`ExecMode::Threaded`]), at `(nranks / (8 · workers)).max(1)` ranks per
//! chunk. A chunk is a set of plain `&mut` borrows split off the
//! executor's storage, so a rank's [`PhaseCtx`] holds `&mut` to exactly its
//! own outbox buckets and puts are borrow-checked. Each chunk also sums
//! its ranks' counters; the sums combine in chunk order.
//!
//! # Epoch close
//!
//! Delivering the puts of a phase — deciding fault fates, routing
//! envelopes into target inboxes, expiring delayed puts — is routed
//! target-major. Every rank declares its
//! possible put targets up front ([`RankAlgorithm::put_targets`], the
//! neighbour group an MPI-3 access epoch names), and the executor builds a
//! *reverse-neighbor index* once at construction: for every target, the
//! ordered list of origins that may message it, each with a dedicated
//! outbox bucket. [`PhaseCtx::put`] appends into the per-(origin, target)
//! bucket; at the close, each target drains its senders' buckets in origin
//! order, so delivery is origin-major *by construction* and no post-hoc
//! sort is needed on the fault-free path. Because distinct targets touch
//! disjoint buckets, inboxes, and delayed queues, the close runs either on
//! the calling thread (one chunk of targets) or chunked across the worker
//! pool ([`Executor::set_parallel_close_threshold`]).
//!
//! Serial or pooled, at any worker count or chunking, the close produces
//! bit-identical results: fault fates are pure functions of
//! `(epoch, origin, target, index, class)` (see
//! [`FaultInjector::fate_at`]), per-target work is independent, and the
//! chunks' fault tallies combine with exact integer arithmetic.
//!
//! # `unsafe`
//!
//! One site remains here, in the close: bucket (o, t) is filled by origin
//! o's phase chunk and drained by target t's close chunk, so no one borrow
//! split covers it. `CloseBuckets` views the bucket storage through a raw
//! pointer (an `unsafe impl Sync` and an `unsafe fn` accessor with one
//! call). The argument is structural: each bucket id sits in exactly one
//! target's `in_edges`, each target in exactly one close chunk, each chunk
//! is held by one thread, and the view's `&mut` borrow of the storage
//! starts after every phase borrow has ended.

use crate::fault::{ChaosConfig, FaultInjector};
use crate::pool::{PoolStats, SharedPool};
use crate::stats::{ClassCounts, CommClass, CostModel, FaultStats, RunStats, StepStats};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A message as it sits in a target rank's memory window.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Origin rank of the put.
    pub src: usize,
    /// Message class (for the Table 3 breakdown).
    pub class: CommClass,
    /// Modelled payload size of the originating put (the β-term bytes).
    /// Carried on the wire so a forwarding layer (the redundancy wrapper)
    /// can re-charge exact byte counts for its fan-out copies.
    pub bytes: u64,
    /// Payload.
    pub payload: M,
}

/// Per-rank, per-phase counters the executor folds into [`StepStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PhaseTotals {
    pub msgs: ClassCounts,
    pub bytes: ClassCounts,
    pub flops: u64,
    pub relaxations: u64,
    pub active: bool,
}

/// Public summary of a capture context's counters (see
/// [`PhaseCtx::capture`]). A composition layer that runs an inner
/// algorithm's phase against a captured context reads the deterministic
/// counters here and re-reports them (flops, relaxations) or re-accounts
/// them (messages, bytes) on the real context it packs into.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaptureTotals {
    /// Messages the inner phase put.
    pub msgs: u64,
    /// Modelled payload bytes across those puts.
    pub bytes: u64,
    /// Flops the inner phase reported.
    pub flops: u64,
    /// Rows the inner phase reported relaxing.
    pub relaxations: u64,
}

/// Where a [`PhaseCtx`]'s puts go.
enum Sink<'a, M> {
    /// Collected `(target, envelope)` pairs in put order, for the caller to
    /// route: a capture context ([`PhaseCtx::capture`]) or the
    /// asynchronous executor's.
    Captured(Vec<(usize, Envelope<M>)>),
    /// The executor's routing: this origin's declared targets (ascending)
    /// and its buckets, one per target in the same order — the origin's
    /// own range of the executor's bucket storage. Each put lands directly
    /// in its `(origin, target)` bucket.
    Bucketed {
        targets: &'a [u32],
        buckets: &'a mut [Vec<Envelope<M>>],
        /// Per-target dirty flags: set on a bucket's empty→non-empty
        /// transition so the close can skip targets nobody messaged.
        touched: &'a [AtomicBool],
    },
}

/// The per-phase context handed to a rank: issue puts, report work.
///
/// Every `put` is one message, exactly as in the paper's counting (one
/// `MPI_Put` per target per phase; piggybacked data rides in the same
/// message at zero extra message cost but nonzero bytes).
pub struct PhaseCtx<'a, M> {
    rank: usize,
    sink: Sink<'a, M>,
    /// Read and written by the panel adapter's fused path too.
    pub(crate) totals: PhaseTotals,
}

impl<M> PhaseCtx<'_, M> {
    /// The calling rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Consumes a capture context, yielding the captured puts and the
    /// full counters (the asynchronous executor's and the redundancy
    /// wrapper's path).
    pub(crate) fn into_outbox_and_totals(self) -> (Vec<(usize, Envelope<M>)>, PhaseTotals) {
        match self.sink {
            Sink::Captured(outbox) => (outbox, self.totals),
            Sink::Bucketed { .. } => unreachable!("bucketed contexts capture nothing"),
        }
    }

    /// Puts `payload` into `target`'s window. Visible to `target` at the
    /// next phase (after the epoch closes). `bytes` is the modelled payload
    /// size used by the β term of the cost model.
    ///
    /// # Panics
    /// If `target` is the calling rank, or — on the executor's routed path
    /// — if `target` is not in the set this rank declared via
    /// [`RankAlgorithm::put_targets`].
    pub fn put(&mut self, target: usize, class: CommClass, payload: M, bytes: u64) {
        assert_ne!(target, self.rank, "a rank must not put to itself");
        let env = Envelope {
            src: self.rank,
            class,
            bytes,
            payload,
        };
        match &mut self.sink {
            Sink::Captured(outbox) => outbox.push((target, env)),
            Sink::Bucketed {
                targets,
                buckets,
                touched,
            } => {
                let Some(k) = targets.iter().position(|&t| t as usize == target) else {
                    panic!(
                        "rank {} put to rank {target}, which is not in its declared put_targets",
                        self.rank
                    );
                };
                let bucket = &mut buckets[k];
                if bucket.is_empty() {
                    // Relaxed suffices: the close runs after the phase
                    // dispatch returns, which orders this store before its
                    // load.
                    touched[target].store(true, Ordering::Relaxed);
                }
                bucket.push(env);
            }
        }
        self.totals.msgs.add(class, 1);
        self.totals.bytes.add(class, bytes);
    }

    /// Reports computational work for the γ term of the cost model.
    #[inline]
    pub fn add_flops(&mut self, flops: u64) {
        self.totals.flops += flops;
    }

    /// Reports that this rank relaxed `rows` of its equations this step
    /// (feeds the "relaxations" and "active processes" columns of Table 2).
    #[inline]
    pub fn record_relaxations(&mut self, rows: u64) {
        self.totals.relaxations += rows;
        self.totals.active = true;
    }

    /// Constructor for a *capture* context, handed by a composition layer
    /// (the multi-RHS panel adapter in [`crate::panel`]) to an inner
    /// algorithm's phase so its puts are collected rather than routed.
    /// Pair with [`PhaseCtx::into_captured`].
    pub fn capture(rank: usize) -> Self {
        Self::capture_reusing(rank, Vec::new())
    }

    /// As [`PhaseCtx::capture`], reusing a caller-owned (empty) outbox
    /// buffer so a per-phase composition loop stops allocating one per
    /// inner call. Recover the buffer from [`PhaseCtx::into_captured`]
    /// after draining it.
    pub fn capture_reusing(rank: usize, outbox: Vec<(usize, Envelope<M>)>) -> Self {
        debug_assert!(outbox.is_empty());
        PhaseCtx {
            rank,
            sink: Sink::Captured(outbox),
            totals: PhaseTotals::default(),
        }
    }

    /// Consumes a capture context, yielding the captured `(target,
    /// envelope)` pairs in put order plus a public summary of the counters.
    ///
    /// # Panics
    /// If called on an executor-internal bucketed context (never the case
    /// for contexts created via [`PhaseCtx::capture`]).
    pub fn into_captured(self) -> (Vec<(usize, Envelope<M>)>, CaptureTotals) {
        let (outbox, totals) = self.into_outbox_and_totals();
        (
            outbox,
            CaptureTotals {
                msgs: totals.msgs.total(),
                bytes: totals.bytes.total(),
                flops: totals.flops,
                relaxations: totals.relaxations,
            },
        )
    }
}

/// A per-rank program, written as phases of a parallel step.
///
/// Phase semantics: in phase `k` the rank sees exactly the messages that
/// were put during phase `k − 1` (for `k = 0`: during the *last* phase of
/// the previous parallel step). This is the one-sided epoch visibility rule.
pub trait RankAlgorithm: Send {
    /// Payload type of the messages this algorithm puts.
    type Msg: Send + Sync + Clone;

    /// Number of communication phases (epochs) per parallel step.
    fn phases(&self) -> usize;

    /// Executes one phase. `inbox` holds the envelopes delivered at the
    /// close of the previous epoch, ordered by origin rank.
    fn phase(&mut self, phase: usize, inbox: &[Envelope<Self::Msg>], ctx: &mut PhaseCtx<Self::Msg>);

    /// The static set of ranks this rank may ever `put` to (for the
    /// solvers: the subdomain neighbor set) — the group an MPI-3 access
    /// epoch names before its puts.
    ///
    /// The executor builds its reverse-neighbor routing index from these
    /// sets at construction and closes epochs target-major, in parallel on
    /// the worker pool; a put to a rank outside the declared set panics.
    fn put_targets(&self) -> Vec<usize>;

    /// The squared 2-norm of this rank's locally maintained residual, kept
    /// current at parallel-step boundaries, if the algorithm maintains one.
    ///
    /// Returning `Some` lets a driver monitor global convergence as an
    /// `O(P)` sum of per-rank scalars instead of gathering the solution and
    /// recomputing `‖b − Ax‖₂` every step. `None` (the default) declares
    /// that the algorithm has no maintained norm and the driver must fall
    /// back to exact recomputation.
    fn maintained_norm_sq(&self) -> Option<f64> {
        None
    }

    /// The squared 2-norm of residual deltas this rank has produced but
    /// whose delivery is still outstanding at the step boundary (parked by
    /// message coalescing, or sent in the step's final epoch and not yet
    /// applied by the receiver). By the triangle inequality the true global
    /// norm lies within `√Σ undelivered` of the maintained one, so a
    /// monitor widens its convergence trigger by this slack. `0.0` when
    /// every delta is applied at the boundary (the default).
    fn undelivered_delta_sq(&self) -> f64 {
        0.0
    }
}

/// How the executor schedules rank phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All ranks run on the calling thread, in rank order.
    Sequential,
    /// Rank phases are dispatched to a **persistent pool** of `n` worker
    /// threads (created once per executor; `n ≥ 1`), which self-schedule
    /// chunks of ranks from a shared atomic cursor (work stealing). Results are
    /// bit-identical to [`ExecMode::Sequential`] for any `n` and any steal
    /// order: ranks interact only at epoch boundaries, which the executor
    /// routes over disjoint per-target state, and fault decisions are pure
    /// functions of per-message keys.
    Threaded(usize),
}

/// A put whose delivery was deferred by fault injection, parked in its
/// target's delayed queue.
struct DelayedEnv<M> {
    /// Global epoch index at whose close the put becomes visible.
    due_epoch: u64,
    env: Envelope<M>,
}

/// The static routing index: one bucket per directed `(origin, target)`
/// edge, plus both orientations of the edge list. Bucket ids are edge
/// indices, assigned origin-major, so every origin's buckets form one
/// contiguous range of the bucket storage.
struct Topology {
    /// Origin `o`'s edges are `out_start[o]..out_start[o + 1]` (length
    /// `n + 1`): the range of `out_targets` holding its declared targets,
    /// ascending, and the range of the bucket storage holding its buckets.
    out_start: Vec<usize>,
    /// Edge → target.
    out_targets: Vec<u32>,
    /// target → `(origin, bucket id)`, origin-ascending — the
    /// reverse-neighbor index the target-major close scans.
    in_edges: Vec<Vec<(u32, u32)>>,
}

/// Builds the routing index from every rank's declared put targets.
fn build_topology<A: RankAlgorithm>(ranks: &[A]) -> Result<Topology, String> {
    let n = ranks.len();
    let mut out_start = Vec::with_capacity(n + 1);
    out_start.push(0);
    let mut out_targets = Vec::new();
    for (i, r) in ranks.iter().enumerate() {
        let mut ts = r.put_targets();
        ts.sort_unstable();
        ts.dedup();
        if let Some(t) = ts.iter().find(|&&t| t >= n || t == i) {
            return Err(format!(
                "rank {i} declared put target {t}, which is out of range or itself"
            ));
        }
        out_targets.extend(ts.iter().map(|&t| t as u32));
        out_start.push(out_targets.len());
    }
    if out_targets.len() >= u32::MAX as usize {
        return Err("the number of declared (origin, target) edges must fit in u32".into());
    }
    let mut in_edges: Vec<Vec<(u32, u32)>> = (0..n).map(|_| Vec::new()).collect();
    for o in 0..n {
        for bid in out_start[o]..out_start[o + 1] {
            in_edges[out_targets[bid] as usize].push((o as u32, bid as u32));
        }
    }
    Ok(Topology {
        out_start,
        out_targets,
        in_edges,
    })
}

/// One phase's rank counters summed over a chunk of ranks, and, merged in
/// chunk order, over all ranks. Sums and maxes of integers are exact, so
/// the total is bit-identical for any chunking.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSum {
    msgs: ClassCounts,
    bytes: ClassCounts,
    flops: u64,
    max_flops: u64,
    relaxations: u64,
    active: u64,
    /// Measured rank wall time: an observable, never a deterministic
    /// counter.
    compute_ns: u64,
}

impl PhaseSum {
    fn absorb_rank(&mut self, t: &PhaseTotals, wall_ns: u64) {
        self.msgs.accumulate(&t.msgs);
        self.bytes.accumulate(&t.bytes);
        self.flops += t.flops;
        self.max_flops = self.max_flops.max(t.flops);
        self.relaxations += t.relaxations;
        self.active += u64::from(t.active);
        self.compute_ns += wall_ns;
    }

    fn merge(&mut self, other: &PhaseSum) {
        self.msgs.accumulate(&other.msgs);
        self.bytes.accumulate(&other.bytes);
        self.flops += other.flops;
        self.max_flops = self.max_flops.max(other.max_flops);
        self.relaxations += other.relaxations;
        self.active += other.active;
        self.compute_ns += other.compute_ns;
    }
}

/// Runs a set of [`RankAlgorithm`] instances in lock-step parallel steps.
pub struct Executor<A: RankAlgorithm> {
    ranks: Vec<A>,
    /// Inboxes holding envelopes visible at the next phase.
    inboxes: Vec<Vec<Envelope<A::Msg>>>,
    /// The static routing index.
    topo: Topology,
    /// Bucket storage, one slot per directed `(origin, target)` edge.
    buckets: Vec<Vec<Envelope<A::Msg>>>,
    /// Per-target queues of delay-injected puts, in deferral order.
    delayed_q: Vec<Vec<DelayedEnv<A::Msg>>>,
    /// Per-target dirty flags: [`PhaseCtx::put`]
    /// marks a target when one of its inbound buckets goes empty →
    /// non-empty, and the close skips unmarked targets entirely (atomic
    /// because concurrent origins may mark the same target).
    touched: Vec<AtomicBool>,
    /// Per-rank compute-ns scratch for the current step (reset each step).
    step_rank_ns: Vec<u64>,
    /// The worker pool ([`ExecMode::Threaded`]: a private one; or a
    /// service-shared one, [`Executor::with_shared_pool`]) with this
    /// executor's busy-time epoch on it. `None` runs everything inline.
    pool: Option<(SharedPool, PoolStats)>,
    model: CostModel,
    /// Minimum phase message volume before the close is dispatched to the
    /// pool (see [`Executor::set_parallel_close_threshold`]).
    parallel_close_min_msgs: u64,
    /// Fault decisions (drops / duplicates / delays / stalls).
    injector: FaultInjector,
    /// Global epoch (phase) counter, for delay due-dates and fate keys.
    epochs_executed: u64,
    /// Optional delivery log (see [`Executor::enable_trace`]).
    pub trace: Option<crate::trace::Trace>,
    steps_executed: usize,
    /// Statistics accumulated over all executed steps.
    pub stats: RunStats,
}

/// Splits the first `len` elements off `rest`.
fn take_head<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// One chunk of a phase: ranks `lo..lo + ranks.len()`, their buckets (the
/// chunk's contiguous bucket range) and per-rank counters, and the
/// chunk's [`PhaseSum`].
struct PhaseChunk<'a, A: RankAlgorithm> {
    lo: usize,
    ranks: &'a mut [A],
    buckets: &'a mut [Vec<Envelope<A::Msg>>],
    msgs_per_rank: &'a mut [u64],
    rank_ns: &'a mut [u64],
    sum: PhaseSum,
}

/// What every phase chunk reads.
struct PhaseShared<'a, M> {
    phase: usize,
    stalled: &'a [bool],
    inboxes: &'a [Vec<Envelope<M>>],
    topo: &'a Topology,
    touched: &'a [AtomicBool],
}

/// One chunk of the close: targets `lo..lo + inboxes.len()`, the
/// per-target state the close writes, and the chunk's fault tallies.
struct CloseChunk<'a, M> {
    lo: usize,
    inboxes: &'a mut [Vec<Envelope<M>>],
    delayed: &'a mut [Vec<DelayedEnv<M>>],
    faults: FaultStats,
}

/// The bucket storage as the close sees it — the one piece of state that
/// crosses chunk owners: bucket `(o, t)` was filled by origin `o`'s phase
/// chunk and is drained by target `t`'s close chunk.
struct CloseBuckets<'a, M> {
    base: *mut Vec<Envelope<M>>,
    len: usize,
    /// The view holds the storage's exclusive borrow for its lifetime.
    _storage: PhantomData<&'a mut [Vec<Envelope<M>>]>,
}

// SAFETY: `len` and the marker are plain data. Through `base`, close
// workers push, drain and append `M`s, which `M: Send` allows; each bucket
// goes to the one thread that closes the bucket's target (see
// `CloseBuckets::bucket`), so sharing the view creates no shared `&mut`.
unsafe impl<M: Send> Sync for CloseBuckets<'_, M> {}

impl<'a, M> CloseBuckets<'a, M> {
    fn new(storage: &'a mut [Vec<Envelope<M>>]) -> Self {
        CloseBuckets {
            base: storage.as_mut_ptr(),
            len: storage.len(),
            _storage: PhantomData,
        }
    }

    /// Bucket `bid`.
    ///
    /// # Safety
    /// The caller must be the close of the bucket's target, holding that
    /// target's close chunk, with `bid` taken from the target's
    /// `in_edges`. Every bucket has exactly one target and every target
    /// one chunk, so no two live references to a bucket can exist.
    // `&self` → `&mut` is the point: many close workers share the view.
    #[allow(clippy::mut_from_ref)]
    unsafe fn bucket(&self, bid: u32) -> &mut Vec<Envelope<M>> {
        assert!((bid as usize) < self.len, "bucket id out of range");
        &mut *self.base.add(bid as usize)
    }
}

/// What every close chunk reads, plus the bucket view.
struct CloseShared<'a, M> {
    buckets: CloseBuckets<'a, M>,
    touched: &'a [AtomicBool],
    in_edges: &'a [Vec<(u32, u32)>],
    stalled: &'a [bool],
    injector: &'a FaultInjector,
    epoch: u64,
    phase: usize,
    step_idx: usize,
}

impl<A: RankAlgorithm> Executor<A> {
    /// Creates an executor over `ranks` with the given cost model.
    ///
    /// # Panics
    /// On the inputs [`with_chaos`](Self::with_chaos) rejects, with its
    /// error text.
    pub fn new(ranks: Vec<A>, model: CostModel, mode: ExecMode) -> Self {
        Self::with_chaos(ranks, model, mode, ChaosConfig::none())
            .unwrap_or_else(|e| panic!("Executor::new: {e}"))
    }

    /// As [`new`](Self::new), with fault injection at epoch boundaries.
    ///
    /// Returns `Err` on an empty rank set, [`ExecMode::Threaded`]`(0)`, a
    /// declared put target that is out of range or the rank itself, or a
    /// `chaos` that [`ChaosConfig::validate`] rejects.
    pub fn with_chaos(
        ranks: Vec<A>,
        model: CostModel,
        mode: ExecMode,
        chaos: ChaosConfig,
    ) -> Result<Self, String> {
        if mode == ExecMode::Threaded(0) {
            return Err("threaded mode needs at least one thread".into());
        }
        // Workers are created once, here, and live for the executor's
        // lifetime; `step` only parks/unparks them.
        Self::build(ranks, model, chaos, |n| match mode {
            ExecMode::Sequential => None,
            ExecMode::Threaded(t) => Some(SharedPool::new(t.min(n))),
        })
    }

    /// As [`with_chaos`](Self::with_chaos), but dispatching phases onto a
    /// [`SharedPool`] instead of spawning a private one — the serving
    /// layer's constructor, letting many executors (one per tenant)
    /// multiplex over one set of worker threads.
    ///
    /// Results are bit-identical to every other mode (ranks interact only
    /// at epoch boundaries). The pool runs one dispatch at a time, so
    /// executors on it may step from any threads; per-step worker-busy
    /// accounting brackets each step with its own baseline, so no
    /// tenant's busy time bleeds into another's stats. Returns `Err` on
    /// the inputs `with_chaos` rejects.
    pub fn with_shared_pool(
        ranks: Vec<A>,
        model: CostModel,
        chaos: ChaosConfig,
        pool: &SharedPool,
    ) -> Result<Self, String> {
        Self::build(ranks, model, chaos, |_| Some(pool.clone()))
    }

    /// The one constructor body: validates, then asks `pool` for the
    /// worker pool given the rank count.
    fn build(
        ranks: Vec<A>,
        model: CostModel,
        chaos: ChaosConfig,
        pool: impl FnOnce(usize) -> Option<SharedPool>,
    ) -> Result<Self, String> {
        if ranks.is_empty() {
            return Err("need at least one rank".into());
        }
        chaos.validate()?;
        let topo = build_topology(&ranks)?;
        let n = ranks.len();
        let pool = pool(n).map(|p| {
            let busy = p.stats();
            (p, busy)
        });
        let mut stats = RunStats::new(n);
        stats.worker_busy_ns = vec![0; pool.as_ref().map_or(1, |(p, _)| p.nworkers())];
        Ok(Executor {
            injector: FaultInjector::new(chaos, n),
            ranks,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            buckets: (0..topo.out_targets.len()).map(|_| Vec::new()).collect(),
            topo,
            delayed_q: (0..n).map(|_| Vec::new()).collect(),
            touched: (0..n).map(|_| AtomicBool::new(false)).collect(),
            step_rank_ns: vec![0; n],
            pool,
            model,
            parallel_close_min_msgs: 256,
            epochs_executed: 0,
            trace: None,
            steps_executed: 0,
            stats,
        })
    }

    /// Minimum per-phase message volume before the epoch close runs on
    /// the worker pool (default 256 — below that the pool's wake/quiesce
    /// latency outweighs the routing work). The close is pooled when the
    /// executor has a pool of ≥ 2 workers, tracing is off, and the phase's
    /// message volume reaches this threshold; it runs on the calling
    /// thread otherwise. `0` pools every close a ≥ 2-worker pool can take,
    /// `u64::MAX` keeps every close serial. Results are bit-identical
    /// either way.
    pub fn set_parallel_close_threshold(&mut self, msgs: u64) {
        self.parallel_close_min_msgs = msgs;
    }

    /// The number of compute workers (1 for [`ExecMode::Sequential`]).
    pub fn nworkers(&self) -> usize {
        self.pool.as_ref().map_or(1, |(p, _)| p.nworkers())
    }

    /// Direct access to the fault injector, e.g. to force targeted
    /// stragglers with [`FaultInjector::inject_stall`].
    pub fn injector_mut(&mut self) -> &mut FaultInjector {
        &mut self.injector
    }

    /// Starts logging every delivered message (up to `capacity` events)
    /// into [`Executor::trace`]. Tracing serializes the epoch close (the
    /// log is ordered).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(crate::trace::Trace::new(capacity));
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Immutable access to the rank programs (for the harness to read
    /// local solution vectors etc. — out-of-band, not counted as
    /// communication, exactly like the paper's measurement hooks).
    pub fn ranks(&self) -> &[A] {
        &self.ranks
    }

    /// Mutable access to the rank programs.
    pub fn ranks_mut(&mut self) -> &mut [A] {
        &mut self.ranks
    }

    /// Drops every undelivered envelope: pending inboxes and chaos-delayed
    /// queues. The warm-start reseed of the serving layer uses this as an
    /// out-of-band epoch boundary — when a tenant's right-hand side
    /// changes between solves, estimate messages still in flight describe
    /// the old system and are superseded by the reseed's exact exchange,
    /// exactly as the initial setup exchange supersedes nothing.
    ///
    /// Callers must ensure no in-flight message carries state that cannot
    /// be reconstructed (the solvers guarantee this at step boundaries on
    /// a reliable link with coalescing off: all residual *deltas* are
    /// applied before the boundary; only norm estimates remain in flight).
    pub fn discard_in_flight(&mut self) {
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
        for q in &mut self.delayed_q {
            q.clear();
        }
    }

    /// Executes one parallel step (all phases); returns its stats.
    ///
    /// With fault injection active, the epoch close additionally: drops,
    /// duplicates, or defers puts per [`FaultInjector::fate_at`]; surfaces
    /// deferred puts whose delay expired; and skips the compute phases of
    /// stalled ranks (their inboxes keep accumulating until they resume).
    /// Fates are pure functions of per-message keys, so the fault pattern
    /// is identical under every [`ExecMode`] and close placement.
    ///
    /// # Panics
    /// If a rank's phase panics (on a pool worker too), with its payload.
    pub fn step(&mut self) -> StepStats {
        let nphases = self.ranks[0].phases();
        debug_assert!(
            self.ranks.iter().all(|r| r.phases() == nphases),
            "all ranks must agree on the phase count"
        );
        let mut step = StepStats::default();
        // Re-baseline the busy epoch at the step *start*: on a shared pool
        // other executors may have dispatched since this executor's
        // previous step, and their busy time must not be charged here.
        if let Some((_, busy)) = &mut self.pool {
            busy.take_epoch();
        }
        // Stall decisions hold for every phase of this step.
        let stalled = self.injector.step_stalls();
        step.faults.stalled_ranks += stalled.iter().filter(|&&s| s).count() as u64;
        let p = self.ranks.len() as f64;
        for phase in 0..nphases {
            let t_dispatch = Instant::now();
            let sum = self.run_phase(phase, &stalled);
            step.span_ns += t_dispatch.elapsed().as_nanos() as u64;
            let t_close = Instant::now();
            step.faults
                .accumulate(&self.close(phase, &stalled, sum.msgs.total()));
            step.route_ns += t_close.elapsed().as_nanos() as u64;
            self.epochs_executed += 1;
            step.msgs.accumulate(&sum.msgs);
            step.bytes.accumulate(&sum.bytes);
            step.flops += sum.flops;
            step.relaxations += sum.relaxations;
            step.active_ranks += sum.active;
            step.compute_ns += sum.compute_ns;
            // Time: the slowest rank gates the computation; message and
            // byte volume are charged at the per-rank average (congestion /
            // epoch-overhead model — see `CostModel`).
            step.time += self.model.sync
                + self.model.gamma * sum.max_flops as f64
                + self.model.alpha * sum.msgs.total() as f64 / p
                + self.model.beta * sum.bytes.total() as f64 / p;
        }
        // Fold the measured timing of this step (observables only — none of
        // this feeds the deterministic counters or the modelled clock).
        step.workers = self.nworkers() as u32;
        for (i, ns) in self.step_rank_ns.iter_mut().enumerate() {
            step.compute_ns_max_rank = step.compute_ns_max_rank.max(*ns);
            self.stats.rank_time_ns[i] += *ns;
            *ns = 0;
        }
        if let Some((_, busy)) = &mut self.pool {
            for (acc, ns) in self.stats.worker_busy_ns.iter_mut().zip(busy.take_epoch()) {
                *acc += ns;
            }
        }
        self.stats.steps.push(step);
        self.steps_executed += 1;
        step
    }

    /// The target-major close over the reverse-neighbor index: each target
    /// drains its senders' buckets in origin order. Runs on the calling
    /// thread or chunked across the worker pool (see
    /// [`Executor::set_parallel_close_threshold`]; `msgs` is the phase's
    /// message volume); both produce bit-identical results because distinct
    /// targets touch disjoint state and the chunks' fault tallies combine
    /// exactly.
    fn close(&mut self, phase: usize, stalled: &[bool], msgs: u64) -> FaultStats {
        let n = self.ranks.len();
        let pool = self.pool.as_ref().map(|(p, _)| p).filter(|p| {
            p.nworkers() >= 2 && self.trace.is_none() && msgs >= self.parallel_close_min_msgs
        });
        let chunk = n.div_ceil(pool.map_or(1, |p| (p.nworkers() * 4).min(n)));
        let sh = CloseShared {
            buckets: CloseBuckets::new(&mut self.buckets),
            touched: &self.touched,
            in_edges: &self.topo.in_edges,
            stalled,
            injector: &self.injector,
            epoch: self.epochs_executed,
            phase,
            step_idx: self.steps_executed,
        };
        let mut inboxes = &mut self.inboxes[..];
        let mut delayed = &mut self.delayed_q[..];
        let chunks = (0..n).step_by(chunk).map(|lo| {
            let len = chunk.min(n - lo);
            CloseChunk {
                lo,
                inboxes: take_head(&mut inboxes, len),
                delayed: take_head(&mut delayed, len),
                faults: FaultStats::default(),
            }
        });
        let mut faults = FaultStats::default();
        match pool {
            Some(pool) => {
                let chunks: Vec<Mutex<CloseChunk<'_, A::Msg>>> = chunks.map(Mutex::new).collect();
                pool.inner().run(chunks.len(), &|c| {
                    close_chunk(
                        &mut chunks[c].lock().expect("one claim per chunk"),
                        &sh,
                        None,
                    );
                });
                for ch in chunks {
                    faults.accumulate(&ch.into_inner().expect("no chunk panicked").faults);
                }
            }
            None => {
                let mut trace = self.trace.as_mut();
                for mut ch in chunks {
                    close_chunk(&mut ch, &sh, trace.as_deref_mut());
                    faults.accumulate(&ch.faults);
                }
            }
        }
        faults
    }

    /// Runs `phase` on every non-stalled rank, filling the per-edge buckets
    /// (every bucket is empty on entry — the previous epoch close drained
    /// it in place), and returns the phase's [`PhaseSum`]. Stalled ranks
    /// contribute no puts and zero counters (they perform no work at all
    /// this phase). One routine, [`run_chunk`], runs every chunk: inline,
    /// or one chunk per pool task; chunk sums combine in chunk order.
    fn run_phase(&mut self, phase: usize, stalled: &[bool]) -> PhaseSum {
        let n = self.ranks.len();
        let chunk = (n / (8 * self.nworkers())).max(1);
        let sh = PhaseShared {
            phase,
            stalled,
            inboxes: &self.inboxes,
            topo: &self.topo,
            touched: &self.touched,
        };
        let out_start = &self.topo.out_start;
        let mut ranks = &mut self.ranks[..];
        let mut buckets = &mut self.buckets[..];
        let mut msgs_per_rank = &mut self.stats.msgs_per_rank[..];
        let mut rank_ns = &mut self.step_rank_ns[..];
        let chunks = (0..n).step_by(chunk).map(|lo| {
            let len = chunk.min(n - lo);
            PhaseChunk {
                lo,
                ranks: take_head(&mut ranks, len),
                buckets: take_head(&mut buckets, out_start[lo + len] - out_start[lo]),
                msgs_per_rank: take_head(&mut msgs_per_rank, len),
                rank_ns: take_head(&mut rank_ns, len),
                sum: PhaseSum::default(),
            }
        });
        let mut sum = PhaseSum::default();
        match &self.pool {
            Some((pool, _)) => {
                let chunks: Vec<Mutex<PhaseChunk<'_, A>>> = chunks.map(Mutex::new).collect();
                pool.inner().run(chunks.len(), &|c| {
                    run_chunk(&mut chunks[c].lock().expect("one claim per chunk"), &sh);
                });
                for ch in chunks {
                    sum.merge(&ch.into_inner().expect("no chunk panicked").sum);
                }
            }
            None => {
                for mut ch in chunks {
                    run_chunk(&mut ch, &sh);
                    sum.merge(&ch.sum);
                }
                self.stats.worker_busy_ns[0] += sum.compute_ns;
            }
        }
        sum
    }
}

/// Runs one phase chunk.
fn run_chunk<A: RankAlgorithm>(ch: &mut PhaseChunk<'_, A>, sh: &PhaseShared<'_, A::Msg>) {
    let out_start = &sh.topo.out_start;
    let base = out_start[ch.lo];
    // Chained timing: one clock read per rank boundary instead of two per
    // rank — the delta between consecutive reads is the rank's wall time
    // (plus a few ns of loop overhead, fine for a load-imbalance
    // observable that never feeds the deterministic counters). At
    // thousands of ranks the saved clock reads are a measurable slice of
    // the phase.
    let mut t_prev = Instant::now();
    for (k, rank) in ch.ranks.iter_mut().enumerate() {
        let i = ch.lo + k;
        if sh.stalled[i] {
            continue;
        }
        let (e0, e1) = (out_start[i], out_start[i + 1]);
        let mut ctx = PhaseCtx {
            rank: i,
            sink: Sink::Bucketed {
                targets: &sh.topo.out_targets[e0..e1],
                buckets: &mut ch.buckets[e0 - base..e1 - base],
                touched: sh.touched,
            },
            totals: PhaseTotals::default(),
        };
        rank.phase(sh.phase, &sh.inboxes[i], &mut ctx);
        let now = Instant::now();
        let wall_ns = now.duration_since(t_prev).as_nanos() as u64;
        t_prev = now;
        ch.sum.absorb_rank(&ctx.totals, wall_ns);
        ch.msgs_per_rank[k] += ctx.totals.msgs.total();
        ch.rank_ns[k] += wall_ns;
    }
}

/// Closes one chunk of targets. For each target `t`: clears the inbox
/// (unless the target is stalled), drains the inbound buckets in origin
/// order deciding per-message fates, delivers expired delayed puts in
/// deferral order (an order-preserving partition pass), and stable-sorts
/// the inbox only if a fate perturbed its origin order.
fn close_chunk<M: Clone>(
    ch: &mut CloseChunk<'_, M>,
    sh: &CloseShared<'_, M>,
    mut trace: Option<&mut crate::trace::Trace>,
) {
    let message_faults = sh.injector.config().message_faults_active();
    for (k, (inbox, dq)) in ch.inboxes.iter_mut().zip(ch.delayed.iter_mut()).enumerate() {
        let t = ch.lo + k;
        let is_stalled = sh.stalled[t];
        if !is_stalled {
            inbox.clear();
        }
        // Dirty-target fast path: if no put touched any of `t`'s inbound
        // buckets this phase and no delayed put is parked, there is nothing
        // to route — skip the per-edge bucket scan entirely.
        let touched = sh.touched[t].load(Ordering::Relaxed);
        if !touched && dq.is_empty() {
            continue;
        }
        if touched {
            sh.touched[t].store(false, Ordering::Relaxed);
        }
        let tracing = trace.is_some();
        let mut record = |src: usize, class: CommClass| {
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(crate::trace::TraceEvent {
                    step: sh.step_idx,
                    phase: sh.phase,
                    src,
                    dst: t,
                    class,
                });
            }
        };
        let mut appended = false;
        let mut late = false;
        for &(origin, bid) in &sh.in_edges[t] {
            // SAFETY: `bid` is from `in_edges[t]`, and this thread holds
            // target `t`'s close chunk (see `CloseBuckets::bucket`).
            let bucket = unsafe { sh.buckets.bucket(bid) };
            if bucket.is_empty() {
                continue;
            }
            appended = true;
            if !message_faults {
                // Fault-free fast path: a straight ordered move.
                if tracing {
                    for env in bucket.iter() {
                        record(env.src, env.class);
                    }
                }
                inbox.append(bucket);
                continue;
            }
            for (idx, env) in bucket.drain(..).enumerate() {
                let fate = sh
                    .injector
                    .fate_at(sh.epoch, origin, t as u32, idx as u32, env.class);
                if fate.dropped {
                    ch.faults.dropped.add(env.class, 1);
                    continue;
                }
                if fate.duplicated {
                    ch.faults.duplicated.add(env.class, 1);
                    record(env.src, env.class);
                    inbox.push(env.clone());
                }
                if fate.delay > 0 {
                    ch.faults.delayed.add(env.class, 1);
                    dq.push(DelayedEnv {
                        due_epoch: sh.epoch + fate.delay as u64,
                        env,
                    });
                } else {
                    record(env.src, env.class);
                    inbox.push(env);
                }
            }
        }
        // Deliver expired delayed puts in deferral order.
        let due = sh.epoch;
        for d in dq.extract_if(.., |d| d.due_epoch <= due) {
            record(d.env.src, d.env.class);
            inbox.push(d.env);
            late = true;
        }
        // Re-sort only when a fate perturbed origin order: a late arrival,
        // or appends behind a stalled target's accumulated content. The
        // fresh fault-free fill is origin-major by construction (buckets
        // are drained origin-ascending), so it needs no sort at all.
        if late || (is_stalled && appended) {
            inbox.sort_by_key(|env| env.src);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy algorithm on a ring: each rank holds a value; every step it puts
    /// the value to its right neighbor in phase 0 and adds what it received
    /// (visible in phase 0 of the *next* step, per the epoch rule).
    struct Ring {
        id: usize,
        n: usize,
        value: u64,
        received_this_phase: Vec<u64>,
    }

    impl RankAlgorithm for Ring {
        type Msg = u64;
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
            self.received_this_phase = inbox.iter().map(|e| e.payload).collect();
            for e in inbox {
                self.value += e.payload;
            }
            for target in self.put_targets() {
                ctx.put(target, CommClass::Solve, self.value, 8);
            }
            ctx.add_flops(1);
            ctx.record_relaxations(1);
        }
        fn put_targets(&self) -> Vec<usize> {
            // A one-rank ring has no neighbour.
            (self.n > 1)
                .then_some((self.id + 1) % self.n)
                .into_iter()
                .collect()
        }
    }

    fn ring(n: usize) -> Vec<Ring> {
        (0..n)
            .map(|id| Ring {
                id,
                n,
                value: id as u64 + 1,
                received_this_phase: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn messages_delivered_next_phase_not_same() {
        let mut ex = Executor::new(ring(3), CostModel::default(), ExecMode::Sequential);
        let s1 = ex.step();
        // Nothing was in flight during the first step's phase 0.
        assert!(ex.ranks()[0].received_this_phase.is_empty());
        assert_eq!(s1.msgs.total(), 3);
        let _s2 = ex.step();
        // Now each rank saw exactly the value its left neighbor sent.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1]);
        assert_eq!(ex.ranks()[0].received_this_phase, vec![3]);
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let mut a = Executor::new(ring(7), CostModel::default(), ExecMode::Sequential);
        let mut b = Executor::new(ring(7), CostModel::default(), ExecMode::Threaded(3));
        for _ in 0..5 {
            a.step();
            b.step();
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
        assert_eq!(a.stats.total_msgs(), b.stats.total_msgs());
        assert_eq!(a.stats.msgs_per_rank, b.stats.msgs_per_rank);
    }

    /// Chunk edges: 1 rank, fewer ranks than `8 · workers` (one-rank
    /// chunks), an exact multiple, and a short last chunk — on every pool
    /// size, with the close both serial and pooled.
    #[test]
    fn all_modes_and_chunk_edges_agree() {
        for n in [1usize, 7, 64, 65] {
            let mut reference = Executor::new(ring(n), CostModel::default(), ExecMode::Sequential);
            for _ in 0..6 {
                reference.step();
            }
            let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
            for workers in [1usize, 2, 3] {
                for close in [u64::MAX, 0] {
                    let mode = ExecMode::Threaded(workers);
                    let mut ex = Executor::new(ring(n), CostModel::default(), mode);
                    ex.set_parallel_close_threshold(close);
                    for _ in 0..6 {
                        ex.step();
                    }
                    let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
                    assert_eq!(v, vref, "{n} ranks, {mode:?}, close {close}");
                    assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
                    for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                        assert_eq!(sa, sb, "{n} ranks, {mode:?}, close {close}");
                    }
                }
            }
        }
    }

    #[test]
    fn close_modes_agree_bit_for_bit() {
        // Where the close runs is pure scheduling: the serial close
        // (`u64::MAX` threshold) and the pooled close (zero threshold,
        // forcing the pool at this tiny size) must both match the
        // sequential reference.
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..6 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        for threshold in [u64::MAX, 0] {
            let mut ex = Executor::new(ring(13), CostModel::default(), ExecMode::Threaded(3));
            ex.set_parallel_close_threshold(threshold);
            for _ in 0..6 {
                ex.step();
            }
            let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
            assert_eq!(v, vref, "threshold {threshold}");
            assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
            for (sa, sb) in reference.stats.steps.iter().zip(&ex.stats.steps) {
                assert_eq!(sa, sb, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn timing_observables_populate() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let mut ex = Executor::new(ring(5), CostModel::default(), mode);
            let s = ex.step();
            assert_eq!(s.workers, ex.nworkers() as u32, "{mode:?}");
            assert!(s.compute_ns > 0, "{mode:?}: per-rank wall time measured");
            assert!(s.compute_ns_max_rank > 0, "{mode:?}");
            assert!(s.compute_ns_max_rank <= s.compute_ns, "{mode:?}");
            assert!(s.span_ns >= s.compute_ns_max_rank, "{mode:?}");
            assert!(s.imbalance(5) >= 1.0, "{mode:?}");
            assert!(
                ex.stats.rank_time_ns.iter().all(|&ns| ns > 0),
                "{mode:?}: every rank accumulated wall time"
            );
            assert!(
                ex.stats.worker_busy_ns.iter().sum::<u64>() > 0,
                "{mode:?}: workers accumulated busy time"
            );
            assert!(ex.stats.worker_utilization() > 0.0, "{mode:?}");
        }
    }

    /// Regression for pool-lifetime smear: two executors sharing one
    /// `SharedPool` back-to-back must each see only their own busy time.
    /// Before per-solve baselining, the second run's `worker_busy_ns`
    /// (and hence `worker_utilization`) absorbed the first run's work.
    #[test]
    fn shared_pool_busy_time_is_per_run() {
        let pool = SharedPool::new(2);

        let mut first = Executor::with_shared_pool(
            ring(64),
            CostModel::default(),
            ChaosConfig::default(),
            &pool,
        )
        .expect("valid executor");
        for _ in 0..20 {
            first.step();
        }
        let first_busy: u64 = first.stats.worker_busy_ns.iter().sum();
        assert!(first_busy > 0, "first run accumulated busy time");

        let mut second = Executor::with_shared_pool(
            ring(64),
            CostModel::default(),
            ChaosConfig::default(),
            &pool,
        )
        .expect("valid executor");
        let second_initial: u64 = second.stats.worker_busy_ns.iter().sum();
        assert_eq!(second_initial, 0, "fresh executor starts at zero busy");
        second.step();
        let second_busy: u64 = second.stats.worker_busy_ns.iter().sum();
        assert!(second_busy > 0);
        // One step on the same workload cannot plausibly cost as much as
        // the first executor's 20 steps — unless lifetime busy smeared in.
        assert!(
            second_busy < first_busy,
            "second run's busy ({second_busy}ns) must exclude the first \
             run's 20 steps ({first_busy}ns)"
        );
        assert!(second.stats.worker_utilization() <= 1.0);

        // Interleaved epochs: re-baselining at step start keeps each
        // executor's accounting isolated even when their steps alternate
        // on the shared pool. After a second.step() ran in between,
        // first.step() must still charge first only for its own work —
        // i.e. a single step's worth, not first's step plus second's.
        let before: u64 = first.stats.worker_busy_ns.iter().sum();
        second.step();
        first.step();
        let grew = first.stats.worker_busy_ns.iter().sum::<u64>() - before;
        assert!(grew > 0, "first's own interleaved step is charged");
        assert!(
            grew < first_busy,
            "one interleaved step ({grew}ns) charges less than 20 steps \
             ({first_busy}ns): second's work did not smear into first"
        );
    }

    /// `RunStats::take_epoch` drains per-solve accumulators and resets
    /// them in place, so consecutive harvests partition the run.
    #[test]
    fn run_stats_take_epoch_partitions_accumulators() {
        let mut ex = Executor::new(ring(8), CostModel::default(), ExecMode::Sequential);
        ex.step();
        ex.step();
        let lifetime_msgs: u64 = ex.stats.msgs_per_rank.iter().sum();
        let lifetime_rank_ns: u64 = ex.stats.rank_time_ns.iter().sum();

        let epoch1 = ex.stats.take_epoch();
        assert_eq!(epoch1.nsteps(), 2);
        assert_eq!(epoch1.msgs_per_rank.iter().sum::<u64>(), lifetime_msgs);
        assert_eq!(epoch1.rank_time_ns.iter().sum::<u64>(), lifetime_rank_ns);
        assert_eq!(ex.stats.nsteps(), 0);
        assert_eq!(ex.stats.msgs_per_rank.iter().sum::<u64>(), 0);
        assert_eq!(ex.stats.rank_time_ns.iter().sum::<u64>(), 0);
        assert_eq!(ex.stats.msgs_per_rank.len(), 8, "shape preserved");

        ex.step();
        let epoch2 = ex.stats.take_epoch();
        assert_eq!(epoch2.nsteps(), 1);
        assert!(epoch2.msgs_per_rank.iter().sum::<u64>() > 0);
    }

    #[test]
    fn counters_and_cost_model() {
        let model = CostModel {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            sync: 0.5,
        };
        let mut ex = Executor::new(ring(4), model, ExecMode::Sequential);
        let s = ex.step();
        assert_eq!(s.msgs.total(), 4);
        assert_eq!(s.msgs.of(CommClass::Solve), 4);
        assert_eq!(s.msgs.of(CommClass::Residual), 0);
        assert_eq!(s.bytes.total(), 32);
        assert_eq!(s.bytes.of(CommClass::Solve), 32);
        assert_eq!(s.bytes.of(CommClass::Residual), 0);
        assert_eq!(s.bytes.of(CommClass::Recovery), 0);
        assert_eq!(s.flops, 4);
        assert_eq!(s.active_ranks, 4);
        assert_eq!(s.relaxations, 4);
        // Each rank sends one message: max over ranks = 1 message * alpha,
        // plus the sync charge.
        assert!((s.time - 1.5).abs() < 1e-12);
        assert!((ex.stats.comm_cost() - 1.0).abs() < 1e-12);
    }

    /// Two-phase algorithm verifying that phase-1 messages arrive in
    /// phase 0 of the next step and phase-0 messages arrive in phase 1.
    struct TwoPhase {
        id: usize,
        log: Vec<(usize, Vec<u64>)>,
    }

    impl RankAlgorithm for TwoPhase {
        type Msg = u64;
        fn phases(&self) -> usize {
            2
        }
        fn phase(&mut self, phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
            self.log
                .push((phase, inbox.iter().map(|e| e.payload).collect()));
            let peer = 1 - self.id;
            // Tag the message with 10*phase so the receiver can tell which
            // phase it was sent in.
            ctx.put(peer, CommClass::Residual, (10 * phase) as u64, 8);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![1 - self.id]
        }
    }

    #[test]
    fn two_phase_visibility() {
        let ranks = vec![
            TwoPhase { id: 0, log: vec![] },
            TwoPhase { id: 1, log: vec![] },
        ];
        let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
        ex.step();
        ex.step();
        let log = &ex.ranks()[0].log;
        // Step 1: phase 0 sees nothing; phase 1 sees the phase-0 put (0).
        assert_eq!(log[0], (0, vec![]));
        assert_eq!(log[1], (1, vec![0]));
        // Step 2: phase 0 sees the phase-1 put (10) of step 1.
        assert_eq!(log[2], (0, vec![10]));
        assert_eq!(log[3], (1, vec![0]));
        assert_eq!(ex.stats.total_msgs_residual(), 8);
    }

    #[test]
    fn trace_records_deliveries() {
        let mut ex = Executor::new(ring(3), CostModel::default(), ExecMode::Sequential);
        ex.enable_trace(100);
        ex.step();
        ex.step();
        let trace = ex.trace.as_ref().unwrap();
        // First step's puts are delivered at its epoch close (3 events),
        // second step likewise.
        assert_eq!(trace.len(), 6);
        let m = trace.traffic_matrix(3);
        assert_eq!(m[0][1], 2);
        assert_eq!(m[2][0], 2);
        assert_eq!(m[0][2], 0);
        assert!(trace.to_csv().contains("0,0,0,1,Solve"));
    }

    /// Steps `ranks` once under `mode` and returns the panic message. On
    /// a pool the phase panics on a worker; the step must still return
    /// (by unwinding) rather than hang.
    fn step_panic_message<A: RankAlgorithm>(ranks: Vec<A>, mode: ExecMode) -> String {
        let mut ex = Executor::new(ranks, CostModel::default(), mode);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ex.step()))
            .expect_err("the step panics");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .expect("a string panic payload")
    }

    /// Every rank puts to itself.
    struct SelfPut {
        id: usize,
    }
    impl RankAlgorithm for SelfPut {
        type Msg = ();
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _p: usize, _i: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
            ctx.put(self.id, CommClass::Solve, (), 0);
        }
        fn put_targets(&self) -> Vec<usize> {
            Vec::new()
        }
    }

    /// Declares only its right neighbour on a 3-ring; puts left.
    struct Liar {
        id: usize,
    }
    impl RankAlgorithm for Liar {
        type Msg = ();
        fn phases(&self) -> usize {
            1
        }
        fn phase(&mut self, _p: usize, _i: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
            ctx.put((self.id + 2) % 3, CommClass::Solve, (), 0);
        }
        fn put_targets(&self) -> Vec<usize> {
            vec![(self.id + 1) % 3]
        }
    }

    fn liars() -> Vec<Liar> {
        (0..3).map(|id| Liar { id }).collect()
    }

    #[test]
    fn self_put_panics() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let msg = step_panic_message(vec![SelfPut { id: 0 }, SelfPut { id: 1 }], mode);
            assert!(msg.contains("must not put to itself"), "{mode:?}: {msg}");
        }
    }

    #[test]
    fn undeclared_target_put_panics() {
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let msg = step_panic_message(liars(), mode);
            assert!(
                msg.contains("not in its declared put_targets"),
                "{mode:?}: {msg}"
            );
        }
    }

    /// A phase that panicked on a shared pool leaves the pool serving:
    /// the next executor on it steps bit-identically to `Sequential`.
    #[test]
    fn shared_pool_serves_after_a_panicked_phase() {
        let pool = SharedPool::new(2);
        let mut liar =
            Executor::with_shared_pool(liars(), CostModel::default(), ChaosConfig::none(), &pool)
                .expect("valid executor");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| liar.step()));
        assert!(caught.is_err(), "the undeclared put panics");
        let mut ex =
            Executor::with_shared_pool(ring(13), CostModel::default(), ChaosConfig::none(), &pool)
                .expect("valid executor");
        let mut reference = Executor::new(ring(13), CostModel::default(), ExecMode::Sequential);
        for _ in 0..4 {
            assert_eq!(ex.step(), reference.step());
        }
        let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        assert_eq!(v, vref);
    }

    /// `Executor` is `Send` and `SharedPool` is `Clone + Send`, so safe
    /// code can step two executors on one pool from two threads. Their
    /// dispatches queue on the pool; both must finish and match the
    /// sequential reference exactly.
    #[test]
    fn executors_on_one_pool_step_concurrently() {
        let pool = SharedPool::new(2);
        let mut reference = Executor::new(ring(64), CostModel::default(), ExecMode::Sequential);
        for _ in 0..500 {
            reference.step();
        }
        let vref: Vec<u64> = reference.ranks().iter().map(|r| r.value).collect();
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    let mut ex = Executor::with_shared_pool(
                        ring(64),
                        CostModel::default(),
                        ChaosConfig::none(),
                        &pool,
                    )
                    .expect("valid executor");
                    ex.set_parallel_close_threshold(0);
                    start.wait();
                    for _ in 0..500 {
                        ex.step();
                    }
                    ex
                })
            })
            .collect();
        for t in threads {
            let ex = t.join().expect("stepping thread finished");
            let v: Vec<u64> = ex.ranks().iter().map(|r| r.value).collect();
            assert_eq!(v, vref);
            assert_eq!(ex.stats.msgs_per_rank, reference.stats.msgs_per_rank);
        }
    }

    #[test]
    fn with_chaos_rejects_bad_input_with_err() {
        let bad_chaos = ChaosConfig {
            drop_rate: 1.5,
            ..ChaosConfig::none()
        };
        let cases: [(&str, Vec<Ring>, ExecMode, ChaosConfig, &str); 3] = [
            (
                "no ranks",
                Vec::new(),
                ExecMode::Sequential,
                ChaosConfig::none(),
                "at least one rank",
            ),
            (
                "zero threads",
                ring(3),
                ExecMode::Threaded(0),
                ChaosConfig::none(),
                "at least one thread",
            ),
            (
                "bad chaos",
                ring(3),
                ExecMode::Sequential,
                bad_chaos,
                "drop_rate",
            ),
        ];
        for (tag, ranks, mode, chaos, needle) in cases {
            match Executor::with_chaos(ranks, CostModel::default(), mode, chaos) {
                Ok(_) => panic!("{tag}: accepted"),
                Err(e) => assert!(e.contains(needle), "{tag}: {e}"),
            }
        }
        // Rank 1 of two liars declares rank 2.
        let two_liars = vec![Liar { id: 0 }, Liar { id: 1 }];
        let err = Executor::with_chaos(
            two_liars,
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig::none(),
        );
        assert!(
            err.is_err_and(|e| e.contains("declared put target 2, which is out of range")),
            "out-of-range put target"
        );
        let shared = SharedPool::new(1);
        let err = Executor::<Ring>::with_shared_pool(
            Vec::new(),
            CostModel::default(),
            ChaosConfig::none(),
            &shared,
        );
        assert!(err.is_err(), "shared-pool constructor validates too");
    }

    #[test]
    #[should_panic(expected = "Executor::new: threaded mode needs at least one thread")]
    fn new_panics_with_the_error_text() {
        Executor::new(ring(3), CostModel::default(), ExecMode::Threaded(0));
    }

    #[test]
    fn inbox_ordered_by_origin_rank() {
        // Every rank sends to rank 0 in one phase; rank 0 must see origins
        // in increasing order in every exec mode.
        struct AllToZero {
            id: usize,
            seen: Vec<usize>,
        }
        impl RankAlgorithm for AllToZero {
            type Msg = ();
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: &[Envelope<()>], ctx: &mut PhaseCtx<()>) {
                if self.id == 0 {
                    self.seen = inbox.iter().map(|e| e.src).collect();
                } else {
                    ctx.put(0, CommClass::Solve, (), 1);
                }
            }
            fn put_targets(&self) -> Vec<usize> {
                if self.id == 0 {
                    vec![]
                } else {
                    vec![0]
                }
            }
        }
        for mode in [ExecMode::Sequential, ExecMode::Threaded(4)] {
            let ranks: Vec<AllToZero> = (0..9).map(|id| AllToZero { id, seen: vec![] }).collect();
            let mut ex = Executor::new(ranks, CostModel::default(), mode);
            ex.set_parallel_close_threshold(0);
            ex.step();
            ex.step();
            assert_eq!(ex.ranks()[0].seen, (1..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn drops_counted_per_class_in_stats() {
        let chaos = ChaosConfig {
            drop_rate: 1.0,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos)
                .expect("valid executor");
        ex.step();
        ex.step();
        // Everything dropped: nothing ever arrives.
        assert!(ex.ranks()[1].received_this_phase.is_empty());
        assert_eq!(ex.stats.total_msgs_dropped(), 6);
        assert_eq!(ex.stats.total_faults().dropped.of(CommClass::Solve), 6);
        // Send-side accounting is unaffected by delivery faults.
        assert_eq!(ex.stats.total_msgs(), 6);
        assert_eq!(ex.stats.msgs_per_rank, vec![2, 2, 2]);
    }

    #[test]
    fn duplicates_are_delivered_twice() {
        let chaos = ChaosConfig {
            duplicate_rate: 1.0,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos)
                .expect("valid executor");
        ex.step();
        ex.step();
        // Rank 1 sees its left neighbor's step-1 value twice.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1, 1]);
        assert_eq!(ex.stats.total_faults().duplicated.total(), 6);
    }

    #[test]
    fn delays_defer_delivery_by_configured_epochs() {
        let chaos = ChaosConfig {
            delay_rate: 1.0,
            max_delay_epochs: 1,
            seed: 3,
            ..ChaosConfig::none()
        };
        let mut ex =
            Executor::with_chaos(ring(3), CostModel::default(), ExecMode::Sequential, chaos)
                .expect("valid executor");
        ex.step();
        ex.step();
        // One-epoch delay: the step-1 put (normally visible in step 2) is
        // still in flight during step 2...
        assert!(ex.ranks()[1].received_this_phase.is_empty());
        ex.step();
        // ...and lands for step 3.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1]);
        assert_eq!(ex.stats.total_faults().delayed.total(), 9);
    }

    #[test]
    fn same_epoch_expirations_keep_deferral_order() {
        // Regression for the delayed-put drain: several puts from one
        // origin to one target, all deferred at the same epoch to the same
        // due epoch, must surface in their original put order (the drain is
        // a single order-preserving partition pass, not an index-shifting
        // remove loop).
        struct Burst {
            id: usize,
            step: u64,
            seen: Vec<u64>,
        }
        impl RankAlgorithm for Burst {
            type Msg = u64;
            fn phases(&self) -> usize {
                1
            }
            fn phase(&mut self, _p: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
                if self.id == 0 {
                    for k in 0..3 {
                        ctx.put(1, CommClass::Solve, self.step * 10 + k, 8);
                    }
                } else {
                    self.seen.extend(inbox.iter().map(|e| e.payload));
                }
                self.step += 1;
            }
            fn put_targets(&self) -> Vec<usize> {
                if self.id == 0 {
                    vec![1]
                } else {
                    vec![]
                }
            }
        }
        let chaos = ChaosConfig {
            delay_rate: 1.0,
            max_delay_epochs: 1,
            seed: 7,
            ..ChaosConfig::none()
        };
        for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
            let ranks = (0..2)
                .map(|id| Burst {
                    id,
                    step: 0,
                    seen: vec![],
                })
                .collect();
            let mut ex = Executor::with_chaos(ranks, CostModel::default(), mode, chaos)
                .expect("valid executor");
            ex.set_parallel_close_threshold(0);
            for _ in 0..5 {
                ex.step();
            }
            // Every step's burst is delayed one epoch, then arrives
            // intact and in put order.
            assert_eq!(
                ex.ranks()[1].seen,
                vec![0, 1, 2, 10, 11, 12, 20, 21, 22],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn stalled_rank_skips_compute_and_keeps_inbox() {
        let mut ex = Executor::new(ring(3), CostModel::default(), ExecMode::Sequential);
        ex.injector_mut().inject_stall(1, 2);
        let s1 = ex.step();
        assert_eq!(s1.faults.stalled_ranks, 1);
        assert_eq!(s1.relaxations, 2, "stalled rank does no work");
        assert_eq!(s1.active_ranks, 2);
        let s2 = ex.step();
        assert_eq!(s2.faults.stalled_ranks, 1);
        let s3 = ex.step();
        assert_eq!(s3.faults.stalled_ranks, 0);
        // While stalled, rank 1's inbox accumulated rank 0's puts from both
        // steps (values 1, then 1+3 after rank 0 absorbed rank 2's put);
        // nothing was lost, only late.
        assert_eq!(ex.ranks()[1].received_this_phase, vec![1, 4]);
        assert_eq!(ex.ranks()[1].value, 2 + 1 + 4);
    }

    #[test]
    fn full_chaos_identical_across_modes_and_routing_paths() {
        let chaos = ChaosConfig {
            drop_rate: 0.15,
            duplicate_rate: 0.15,
            delay_rate: 0.2,
            max_delay_epochs: 2,
            stall_rate: 0.1,
            stall_steps: 2,
            seed: 1234,
            ..ChaosConfig::none()
        };
        let mut a =
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Sequential, chaos)
                .expect("valid executor");
        let mut bs: Vec<Executor<Ring>> = vec![
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Threaded(3), chaos)
                .expect("valid executor"),
            Executor::with_chaos(ring(7), CostModel::default(), ExecMode::Threaded(3), chaos)
                .expect("valid executor"),
        ];
        bs[1].set_parallel_close_threshold(0);
        for _ in 0..12 {
            let sa = a.step();
            for b in &mut bs {
                let sb = b.step();
                assert_eq!(sa, sb, "per-step stats must match bit-for-bit");
            }
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        for b in &bs {
            let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
            assert_eq!(va, vb);
            assert_eq!(a.stats.msgs_per_rank, b.stats.msgs_per_rank);
        }
        let fa = a.stats.total_faults();
        assert!(
            fa.dropped.total() > 0,
            "chaos should have dropped something"
        );
        assert!(fa.duplicated.total() > 0);
        assert!(fa.delayed.total() > 0);
        assert!(fa.stalled_ranks > 0);
    }

    #[test]
    fn zero_rate_chaos_identical_to_no_chaos() {
        let mut a = Executor::new(ring(5), CostModel::default(), ExecMode::Sequential);
        let mut b = Executor::with_chaos(
            ring(5),
            CostModel::default(),
            ExecMode::Sequential,
            ChaosConfig {
                seed: 99,
                ..ChaosConfig::none()
            },
        )
        .expect("valid executor");
        for _ in 0..6 {
            assert_eq!(a.step(), b.step());
        }
        let va: Vec<u64> = a.ranks().iter().map(|r| r.value).collect();
        let vb: Vec<u64> = b.ranks().iter().map(|r| r.value).collect();
        assert_eq!(va, vb);
    }
}
