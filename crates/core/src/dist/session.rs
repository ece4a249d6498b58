//! Persistent solve sessions: distributed state that survives across
//! solves.
//!
//! The paper measures one solve; the ROADMAP's north star is heavy
//! traffic — many repeated solves of the same system with an evolving
//! right-hand side (Hong's D-iteration framing: the diffusion *continues
//! from current state* when `b` changes). A [`SolveSession`] keeps
//! everything that is expensive to set up — the partition-routed
//! [`LocalSystem`]s, the per-rank algorithm state, the executor's routing
//! index, the monitor scratch — alive across solves, so a repeated solve
//! warm-starts from the previous solution and only re-seeds residuals.
//! No re-partition, no re-route, zero steady-state allocation.
//!
//! # Warm-start semantics
//!
//! Re-solving with an **unchanged** `b` touches nothing: the session
//! simply continues stepping the existing rank states, so the resulting
//! iterates are bit-identical to having let the original run continue
//! (the `warm_start` proptests pin this).
//!
//! Re-solving with a **changed** `b` exploits `r = b − Ax`: a change in
//! `b` shifts the residual by exactly `Δb`, purely locally — `x` and
//! `Ax` are untouched. Each rank applies its owned slice of `Δb` to `b`
//! and `r` ([`WarmStart::reseed_rhs`]), recomputes its exact norm, and
//! mirrors the boundary-row deltas into the DS ghost layer `z`. Then the
//! cross-rank estimate state (PS/DS `Γ`, DS `Γ̃`) is re-seeded from the
//! exact post-reseed norms ([`WarmStart::reseed_estimates`]) — the same
//! out-of-band exchange the cold build performs — and the executor's
//! in-flight queues are discarded. Discarding is safe *only* at a step
//! boundary with `solve_msg_threshold == 0`, no chaos, and recovery off:
//! there, every residual delta sent in phase 0 was applied in phase 1 of
//! the same step, so in-flight messages carry norm estimates only — and
//! those are superseded by the exact exchange. Every warm-start executor —
//! a session's and a fused panel's — is built by one function that
//! asserts exactly these preconditions, plus the superstep backend and
//! no coded redundancy.
//!
//! # The solve API
//!
//! [`Session`] is the solve API, implemented once for every
//! [`SolveSession`]. A [`TenantSession`] — what a serving layer holds per
//! tenant — dereferences to `dyn Session`, so callers use one method set
//! whatever the method's rank type.
//!
//! # Quantum stepping
//!
//! [`Session::step_batch`] advances a bounded number of supersteps
//! and returns whether the solve reached a verdict, so a serving layer
//! can interleave many sessions on one shared [`SharedPool`] with
//! per-tenant quanta (see the `dsw-serve` crate). The loop *is* the
//! driver's run loop, bounded by the quantum — same measurement cadence,
//! same verdict rules, same run state — so a session solve and a
//! [`run_method`](super::run_method) solve of the same problem produce
//! identical records (`tests/drive_loops_agree.rs` pins this).

use super::block_jacobi::BlockJacobiRank;
use super::distributed_southwell::DistributedSouthwellRank;
use super::driver::{
    run_boundaries, with_method_ranks, DirectView, DistOptions, DistReport, ExecBackend, Method,
    MethodRanks, MonitorCore, RunState,
};
use super::layout::LocalSystem;
use super::panel::PanelRun;
use super::parallel_southwell::ParallelSouthwellRank;
use super::recovery::Recoverable;
use dsw_partition::Partition;
use dsw_rma::{Executor, RankAlgorithm, SharedPool};
use dsw_sparse::CsrMatrix;
use std::ops::{Deref, DerefMut};

/// A rank algorithm whose state can be warm-started in place when the
/// right-hand side changes between solves.
///
/// Implementations live next to each solver (private-field access); the
/// contract is shared: [`reseed_rhs`](WarmStart::reseed_rhs) applies the
/// owned slice of `Δb` to `b` and `r` and returns the recomputed exact
/// `‖r_p‖²`, and [`reseed_estimates`](WarmStart::reseed_estimates)
/// re-seeds all cross-rank estimate state from the exact per-rank norms,
/// exactly as the cold build's setup exchange does.
pub trait WarmStart: RankAlgorithm + Recoverable {
    /// The rank's local piece of the system (the driver's gather view).
    fn local(&self) -> &LocalSystem;

    /// Applies the global `Δb` to the owned rows' `b` and `r` (and any
    /// mirrored ghost residuals) and returns the exact recomputed
    /// `‖r_p‖²`.
    fn reseed_rhs(&mut self, delta_b: &[f64]) -> f64;

    /// Re-seeds cross-rank estimate state (`Γ`, `Γ̃`, last-sent norms)
    /// from the exact per-rank `‖r_q‖²` vector, indexed by rank.
    fn reseed_estimates(&mut self, norms_sq: &[f64]);

    /// Algorithm-level fused panel phase for multi-RHS solves, if the
    /// rank type provides one. The panel adapter then relaxes all
    /// columns in a single pass per phase (amortizing the sparse index
    /// walk and skipping per-column envelope reconstruction) instead of
    /// looping its per-column fallback. Implementations must be
    /// bit-identical per column to the fallback — see
    /// [`dsw_rma::panel::FusedPhaseFn`] for the contract.
    fn panel_fused() -> Option<dsw_rma::FusedPhaseFn<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// Scatter-back hook for a fused panel phase that keeps column lanes
    /// resident in the panel scratch across steps (see
    /// [`dsw_rma::FlushFn`]). Must be provided whenever
    /// [`panel_fused`](WarmStart::panel_fused) installs a phase that
    /// records residency; the panel driver calls it before any
    /// out-of-band read of per-column solve vectors.
    fn panel_flush() -> Option<dsw_rma::FlushFn<Self>>
    where
        Self: Sized,
    {
        None
    }

    /// Overwrites this rank's solver state with `other`'s. `other` is a
    /// clone-sibling: same rank id, matrix, topology, and local solver —
    /// only the per-solve vectors (`b`, `x`, `r`, norms, estimate state)
    /// may differ. A cached panel column uses this to re-adopt the
    /// session's current state without re-cloning the shared immutable
    /// structure. The default full clone is always correct; overrides
    /// must leave `self` equal to `other` in every field a subsequent
    /// solve can observe.
    fn copy_state_from(&mut self, other: &Self)
    where
        Self: Clone + Sized,
    {
        self.clone_from(other);
    }
}

/// Builds the executor a warm-start solve runs on — a session's or a
/// fused panel's: on the shared worker `pool` when one is given,
/// otherwise on a private one of the options' [`ExecBackend::Superstep`]
/// mode.
///
/// Panics unless `opts` satisfy the warm-start preconditions (module
/// docs); this is the one place they are checked.
pub(crate) fn warm_executor<A: RankAlgorithm>(
    ranks: Vec<A>,
    opts: &DistOptions,
    pool: Option<&SharedPool>,
) -> Executor<A> {
    let ExecBackend::Superstep(mode) = opts.backend else {
        panic!("warm-start solves require the superstep backend");
    };
    assert!(
        !opts.chaos.is_active(),
        "warm-start solves require a reliable transport (chaos off)"
    );
    assert!(
        opts.redundancy.is_none(),
        "warm-start solves do not support coded redundancy"
    );
    assert_eq!(
        opts.ds_config.solve_msg_threshold, 0.0,
        "warm-start solves require unbuffered solve messages (solve_msg_threshold == 0)"
    );
    assert!(
        !opts.ds_config.recovery.is_active(),
        "warm-start solves require the recovery layer off (discarding in-flight \
         messages would violate sequencing)"
    );
    match pool {
        Some(pool) => Executor::with_shared_pool(ranks, opts.cost_model, opts.chaos, pool),
        None => Executor::with_chaos(ranks, opts.cost_model, mode, opts.chaos),
    }
    .unwrap_or_else(|e| panic!("warm-start executor: {e}"))
}

/// A persistent solver instance: distributed state that survives across
/// solves with evolving right-hand sides.
///
/// Constructed through [`TenantSession::build`] (which picks the rank
/// type for the method), or directly from pre-built ranks. Its solve API
/// is the [`Session`] trait.
pub struct SolveSession<R: WarmStart> {
    method: Method,
    a: CsrMatrix,
    pub(crate) b: Vec<f64>,
    pub(crate) ex: Executor<R>,
    monitor: MonitorCore,
    opts: DistOptions,
    /// The current solve's progress, suspended between quanta.
    pub(crate) state: RunState,
    /// `Δb` scratch (global indexing), reused across reseeds.
    pub(crate) delta_b: Vec<f64>,
    /// Exact per-rank `‖r_p‖²` scratch, reused across reseeds.
    pub(crate) norms_sq: Vec<f64>,
    /// The in-progress fused multi-RHS solve, if one is active
    /// ([`Session::begin_panel`]).
    panel: Option<PanelRun<R>>,
    /// The most recently finished panel run, kept warm so the next
    /// same-shape [`begin_panel`](Session::begin_panel) reseeds it
    /// instead of re-cloning every rank and rebuilding the executor.
    panel_cache: Option<PanelRun<R>>,
}

impl<R: WarmStart> SolveSession<R> {
    fn view() -> DirectView<fn(&R) -> &LocalSystem> {
        DirectView(R::local as fn(&R) -> &LocalSystem)
    }

    /// Wraps `ranks` into a session ready to solve `b`. With `pool`, the
    /// executor runs its phases on the shared worker pool instead of
    /// spawning its own. Panics unless `opts` satisfy the
    /// [warm-start preconditions](self#warm-start-semantics).
    pub fn new(
        method: Method,
        a: CsrMatrix,
        b: Vec<f64>,
        ranks: Vec<R>,
        opts: DistOptions,
        pool: Option<&SharedPool>,
    ) -> Self {
        let mut ex = warm_executor(ranks, &opts, pool);
        let n = a.nrows();
        let nranks = ex.nranks();
        let mut monitor = MonitorCore::new(n);
        let state = RunState::start(&mut monitor, &a, &b, ex.ranks(), &Self::view());
        // Harvest setup-time accounting so the first solve's stats start
        // from a clean epoch (the distribute/build work and the set-up
        // measurement above are not part of any solve).
        let _ = ex.stats.take_epoch();
        monitor.stats = Default::default();
        SolveSession {
            method,
            a,
            b,
            ex,
            monitor,
            opts,
            state,
            delta_b: vec![0.0; n],
            norms_sq: vec![0.0; nranks],
            panel: None,
            panel_cache: None,
        }
    }

    /// Read access to the per-rank state (tests audit warm-start
    /// invariants through this).
    pub fn ranks(&self) -> &[R] {
        self.ex.ranks()
    }

    /// Mutable access to the per-rank state (test harnesses only;
    /// out-of-band mutation of a rank's residual requires the rank's own
    /// cache invalidation hooks).
    pub fn ranks_mut(&mut self) -> &mut [R] {
        self.ex.ranks_mut()
    }
}

/// The solve API of a persistent session, whatever its rank type:
/// warm-started scalar solves stepped in quanta, smoothing passes, and
/// fused multi-RHS panels. Implemented by every [`SolveSession`];
/// a [`TenantSession`] dereferences to `dyn Session`.
pub trait Session {
    /// Number of ranks (blocks) in the session's partition.
    fn nranks(&self) -> usize;

    /// The method this session runs.
    fn method(&self) -> Method;

    /// Whether the current solve has reached a verdict.
    fn is_done(&self) -> bool;

    /// Begins a solve of `A x = b_new`, warm-starting from the current
    /// `x`.
    ///
    /// If `b_new` is bitwise identical to the session's current `b`, the
    /// rank states are left completely untouched — the solve is a pure
    /// continuation of the previous one. Otherwise the residuals are
    /// re-seeded by the `Δb` shift, the cross-rank estimates by an exact
    /// out-of-band norm exchange, and stale in-flight norm messages are
    /// discarded.
    fn begin_solve(&mut self, b_new: &[f64]);

    /// Advances up to `quantum` supersteps of the current solve; returns
    /// `true` once the solve has reached a verdict (converged, deadlocked,
    /// diverged, or out of steps). This is the driver's run loop.
    fn step_batch(&mut self, quantum: usize) -> bool;

    /// Closes the current solve and returns its report. Stats cover this
    /// solve only: the executor's accumulators are harvested as an epoch
    /// ([`dsw_rma::RunStats::take_epoch`]), so back-to-back solves on one
    /// session never bleed into each other.
    fn finish(&mut self) -> DistReport;

    /// One full solve: begin, run to a verdict, report.
    fn solve(&mut self, b: &[f64]) -> DistReport {
        self.begin_solve(b);
        while !self.step_batch(usize::MAX) {}
        self.finish()
    }

    /// Runs the session as a *smoother*: exactly `steps` supersteps of
    /// `A x = b` with no residual target and no divergence cutoff — the
    /// multigrid contract of §4.1, where the relaxation budget, not a
    /// tolerance, ends the pass. The session's solve options are restored
    /// afterwards, so interleaved [`Session::solve`] calls are
    /// unaffected. Warm-start semantics are those of
    /// [`Session::begin_solve`]: an unchanged `b` continues the previous
    /// pass bit-identically, a changed `b` reseeds by `Δb`.
    fn smooth(&mut self, b: &[f64], steps: usize) -> DistReport;

    /// Batched right-hand sides, solved sequentially: each solve
    /// warm-starts from its predecessor's solution. The fused alternative
    /// is [`Session::solve_panel`].
    fn solve_many(&mut self, bs: &[Vec<f64>]) -> Vec<DistReport> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// Begins a fused panel solve of `A x_c = bs[c]` for every column at
    /// once, each warm-started from the session's current solution (see
    /// [`PanelRun`]). With `pool`, the panel executor runs on the shared
    /// worker pool. The session's scalar state is untouched until
    /// [`finish_panel`](Session::finish_panel) adopts the last column.
    fn begin_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>);

    /// Whether a panel solve is currently active.
    fn panel_active(&self) -> bool;

    /// Advances up to `quantum` fused supersteps of the active panel;
    /// returns `true` once every column has reached a verdict.
    fn step_panel(&mut self, quantum: usize) -> bool;

    /// Closes the active panel solve: one report per column, in `bs`
    /// order, and the last column's state adopted as the session's —
    /// subsequent scalar solves warm-start from it.
    fn finish_panel(&mut self) -> Vec<DistReport>;

    /// One full fused panel solve: begin, run to verdicts, report.
    fn solve_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>) -> Vec<DistReport> {
        self.begin_panel(bs, pool);
        while !self.step_panel(usize::MAX) {}
        self.finish_panel()
    }
}

impl<R: WarmStart + Clone> Session for SolveSession<R> {
    fn nranks(&self) -> usize {
        self.ex.nranks()
    }

    fn method(&self) -> Method {
        self.method
    }

    fn is_done(&self) -> bool {
        self.state.done
    }

    fn begin_solve(&mut self, b_new: &[f64]) {
        assert!(
            self.panel.is_none(),
            "finish the active panel solve before beginning a scalar solve"
        );
        assert_eq!(b_new.len(), self.a.nrows(), "rhs dimension mismatch");
        let changed = self.b != b_new;
        if changed {
            for ((d, &new), old) in self.delta_b.iter_mut().zip(b_new).zip(&mut self.b) {
                *d = new - *old;
                *old = new;
            }
            for (p, r) in self.ex.ranks_mut().iter_mut().enumerate() {
                self.norms_sq[p] = r.reseed_rhs(&self.delta_b);
            }
            for r in self.ex.ranks_mut() {
                r.reseed_estimates(&self.norms_sq);
            }
            // Only norm-estimate messages can be in flight at a step
            // boundary under the session preconditions; the exact
            // exchange above supersedes them.
            self.ex.discard_in_flight();
        }
        self.state = RunState::start(
            &mut self.monitor,
            &self.a,
            &self.b,
            self.ex.ranks(),
            &Self::view(),
        );
    }

    fn step_batch(&mut self, quantum: usize) -> bool {
        run_boundaries(
            &mut self.ex,
            &mut self.state,
            &mut self.monitor,
            &self.a,
            &self.b,
            &Self::view(),
            &self.opts,
            quantum,
        )
    }

    fn finish(&mut self) -> DistReport {
        self.state
            .close(self.method, &mut self.ex, &mut self.monitor, &Self::view())
    }

    fn smooth(&mut self, b: &[f64], steps: usize) -> DistReport {
        let saved = self.opts;
        self.opts.target_residual = None;
        self.opts.divergence_cutoff = None;
        self.opts.max_steps = steps;
        self.begin_solve(b);
        while !self.step_batch(steps.max(1)) {}
        let rep = self.finish();
        self.opts = saved;
        rep
    }

    fn begin_panel(&mut self, bs: &[Vec<f64>], pool: Option<&SharedPool>) {
        assert!(self.panel.is_none(), "a panel solve is already active");
        if let Some(mut run) = self.panel_cache.take() {
            // A cached run owns warm column clones, a built routing
            // index, and grown buffers; when the batch shape and pool
            // match, re-adopting the session state and reseeding is
            // bit-identical to a fresh build at a fraction of the cost.
            if run.k() == bs.len() && run.pool_id() == pool.map(SharedPool::id) {
                run.reseed(&self.a, &self.b, self.ex.ranks(), bs);
                self.panel = Some(run);
                return;
            }
        }
        self.panel = Some(PanelRun::new(
            self.method,
            &self.a,
            &self.b,
            self.ex.ranks(),
            bs,
            self.opts,
            pool,
        ));
    }

    fn panel_active(&self) -> bool {
        self.panel.is_some()
    }

    fn step_panel(&mut self, quantum: usize) -> bool {
        let run = self.panel.as_mut().expect("no active panel solve");
        run.step_batch(&self.a, quantum)
    }

    fn finish_panel(&mut self) -> Vec<DistReport> {
        let mut run = self.panel.take().expect("no active panel solve");
        let reports = run.finish_into(self);
        self.panel_cache = Some(run);
        reports
    }
}

/// A method-erased [`SolveSession`] — what a serving layer holds per
/// tenant. It dereferences to `dyn Session`, so the solve API is called
/// on it directly; the variants give tests typed rank access.
pub enum TenantSession {
    /// Algorithm 1.
    Bj(SolveSession<BlockJacobiRank>),
    /// Algorithm 2 (with or without explicit updates).
    Ps(SolveSession<ParallelSouthwellRank>),
    /// Algorithm 3.
    Ds(SolveSession<DistributedSouthwellRank>),
}

impl TenantSession {
    /// Distributes the system, builds the per-rank state for `method`,
    /// and wraps it in a session — the cold-start path, paid once per
    /// tenant. The session keeps its own copy of `a`. With `pool`, the
    /// executor runs its phases on the shared worker pool instead of
    /// spawning its own. Panics unless `opts` satisfy the
    /// [warm-start preconditions](self#warm-start-semantics).
    pub fn build(
        method: Method,
        a: &CsrMatrix,
        b: &[f64],
        x0: &[f64],
        partition: &Partition,
        opts: &DistOptions,
        pool: Option<&SharedPool>,
    ) -> TenantSession {
        let k = BuildSession {
            method,
            a: a.clone(),
            b,
            opts,
            pool,
        };
        with_method_ranks(method, a, b, x0, partition, opts, k)
    }
}

/// [`TenantSession::build`]'s continuation: wraps the built ranks in a
/// session.
struct BuildSession<'a> {
    method: Method,
    a: CsrMatrix,
    b: &'a [f64],
    opts: &'a DistOptions,
    pool: Option<&'a SharedPool>,
}

impl MethodRanks for BuildSession<'_> {
    type Out = TenantSession;

    fn run<R>(self, build: &dyn Fn() -> Vec<R>) -> TenantSession
    where
        R: WarmStart + Clone,
        TenantSession: From<SolveSession<R>>,
    {
        let BuildSession {
            method,
            a,
            b,
            opts,
            pool,
        } = self;
        SolveSession::new(method, a, b.to_vec(), build(), *opts, pool).into()
    }
}

impl From<SolveSession<BlockJacobiRank>> for TenantSession {
    fn from(s: SolveSession<BlockJacobiRank>) -> Self {
        TenantSession::Bj(s)
    }
}

impl From<SolveSession<ParallelSouthwellRank>> for TenantSession {
    fn from(s: SolveSession<ParallelSouthwellRank>) -> Self {
        TenantSession::Ps(s)
    }
}

impl From<SolveSession<DistributedSouthwellRank>> for TenantSession {
    fn from(s: SolveSession<DistributedSouthwellRank>) -> Self {
        TenantSession::Ds(s)
    }
}

impl Deref for TenantSession {
    type Target = dyn Session;

    fn deref(&self) -> &(dyn Session + 'static) {
        match self {
            TenantSession::Bj(s) => s,
            TenantSession::Ps(s) => s,
            TenantSession::Ds(s) => s,
        }
    }
}

impl DerefMut for TenantSession {
    fn deref_mut(&mut self) -> &mut (dyn Session + 'static) {
        match self {
            TenantSession::Bj(s) => s,
            TenantSession::Ps(s) => s,
            TenantSession::Ds(s) => s,
        }
    }
}
