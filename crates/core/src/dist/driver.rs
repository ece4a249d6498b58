//! Run loop for the distributed solvers: steps the executor, tracks the
//! true global residual out-of-band (the measurement hook, as in the
//! paper's harness), and detects convergence, divergence, and deadlock.

use super::block_jacobi::BlockJacobiRank;
use super::distributed_southwell::{DistributedSouthwellRank, DsConfig};
use super::layout::{distribute, LocalSystem};
use super::parallel_southwell::ParallelSouthwellRank;
use super::recovery::Recoverable;
use super::session::{SolveSession, TenantSession, WarmStart};
use crate::history::interpolate_crossing;
use dsw_partition::{Partition, Redundancy, ReplicaMap};
use dsw_rma::{
    AsyncExecutor, AsyncOptions, ChaosConfig, CostModel, ExecMode, Executor, MonitorStats,
    RankAlgorithm, RedundantHost, RunStats, StepStats,
};
use dsw_sparse::CsrMatrix;
use std::time::Instant;

/// Which distributed method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Algorithm 1.
    BlockJacobi,
    /// Algorithm 2 (with explicit residual updates).
    ParallelSouthwell,
    /// Algorithm 2 without explicit updates — the deadlock-prone ICCS'16
    /// scheme, kept as a foil.
    ParallelSouthwellPiggybackOnly,
    /// Algorithm 3 — the paper's contribution.
    DistributedSouthwell,
}

impl Method {
    /// Short display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::BlockJacobi => "BJ",
            Method::ParallelSouthwell => "PS",
            Method::ParallelSouthwellPiggybackOnly => "PS-iccs16",
            Method::DistributedSouthwell => "DS",
        }
    }
}

/// How the driver monitors global convergence between parallel steps.
///
/// The paper's whole point (§3) is that residual norms are tracked
/// *locally*, without global reductions — so a driver that gathers the
/// solution and recomputes `‖b − Ax‖₂` after every superstep spends its
/// wall-clock on exactly the global operation the method eliminates.
/// [`MonitorMode::Maintained`] instead sums the per-rank maintained norms
/// (`O(P)` scalars, no gather, no SpMV) and falls back to the exact
/// recompute only where correctness demands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Recompute the exact `‖b − Ax‖₂` at every step boundary (gather +
    /// SpMV — the original measurement hook; `O(n + nnz)` per step).
    Exact,
    /// Drive the step records from the `O(P)` maintained-norm sum. The
    /// exact norm is recomputed only
    ///
    /// * every `verify_every` steps (`0` disables the periodic check),
    /// * before any convergence, divergence, or deadlock verdict is
    ///   declared (**verified convergence** — under chaos drops or
    ///   threshold coalescing the maintained norms can drift, so a claim
    ///   from them alone is never trusted), and
    /// * at the final step, so the last record is always exact.
    ///
    /// Observed drift between the two is recorded in
    /// [`MonitorStats::max_rel_drift`]. With a reliable transport and
    /// coalescing off the maintained norms are exact at every boundary
    /// (up to round-off) and runs behave identically to
    /// [`MonitorMode::Exact`].
    Maintained {
        /// Periodic exact-verification cadence in steps (`0` = only on
        /// verdicts and at the end of the run).
        verify_every: usize,
    },
}

impl Default for MonitorMode {
    /// Maintained monitoring with a 10-step verification cadence: at the
    /// paper's 50-step horizon this bounds undetected drift to 10 steps
    /// while keeping 80–98% of the per-step gather + SpMV cost off the
    /// driver.
    fn default() -> Self {
        MonitorMode::Maintained { verify_every: 10 }
    }
}

/// Which execution substrate drives the ranks.
///
/// Both backends run the same [`RankAlgorithm`] programs and the same
/// driver stack (verified monitoring, watchdog, recovery accounting) —
/// what changes is *when* phases run and puts land:
///
/// * [`ExecBackend::Superstep`] is the lock-step [`Executor`]: every rank
///   runs every phase each parallel step, puts become visible at the next
///   epoch close. Records are per parallel step.
/// * [`ExecBackend::Async`] is the [`AsyncExecutor`]: per-rank phase
///   clocks, a pseudo-random subset advances each scheduler tick (bounded
///   by `max_lag`, optionally skewed by the straggler model), and puts
///   land at the target's next phase boundary. Records are per tick, and
///   `max_steps` counts *logical* full steps — the run ends when the
///   slowest rank has completed that many.
#[derive(Debug, Clone, Copy)]
pub enum ExecBackend {
    /// Lock-step supersteps, sequential or on the persistent worker pool.
    Superstep(ExecMode),
    /// Independent per-rank phase clocks under a probabilistic scheduler.
    Async(AsyncOptions),
}

impl Default for ExecBackend {
    fn default() -> Self {
        ExecBackend::Superstep(ExecMode::Sequential)
    }
}

impl From<ExecMode> for ExecBackend {
    fn from(mode: ExecMode) -> Self {
        ExecBackend::Superstep(mode)
    }
}

/// Options for a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Maximum parallel steps (the paper uses 50). On the async backend
    /// these are logical full steps of the slowest rank.
    pub max_steps: usize,
    /// Stop once the global residual norm reaches this value.
    pub target_residual: Option<f64>,
    /// The α–β–γ time model.
    pub cost_model: CostModel,
    /// Execution substrate: lock-step supersteps (sequential or threaded,
    /// identical results) or the asynchronous per-rank scheduler.
    pub backend: ExecBackend,
    /// Configuration for Distributed Southwell (ablations). Its
    /// `local_solver` field is also honored by Block Jacobi and Parallel
    /// Southwell.
    pub ds_config: DsConfig,
    /// Stop once the residual exceeds this multiple of the initial norm
    /// (`None` runs through divergence, as the paper's 50-step sweeps do).
    pub divergence_cutoff: Option<f64>,
    /// Fault injection at the substrate's epoch boundaries (drops,
    /// duplicates, delays, stalls). [`ChaosConfig::none`] — the default —
    /// is a perfectly reliable transport.
    pub chaos: ChaosConfig,
    /// How the global residual norm is obtained between steps
    /// (incremental by default; see [`MonitorMode`]).
    pub monitor: MonitorMode,
    /// Redundancy-coded block placement: `Some(r)` hosts every block on
    /// `r` ranks (replica sets derived deterministically from the
    /// placement seed; see [`dsw_partition::ReplicaMap`]), routes every
    /// logical message to all hosts with first-arrival-wins
    /// reconciliation, and treats a replica set as one logical owner in
    /// the solver protocol. `None` (default) and `Some(r = 1)` are the
    /// uncoded identity placement (`r = 1` still validates the factor).
    /// Extra replica traffic is accounted under
    /// [`dsw_rma::CommClass::Redundancy`].
    pub redundancy: Option<Redundancy>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            max_steps: 50,
            target_residual: Some(0.1),
            cost_model: CostModel::default(),
            backend: ExecBackend::default(),
            ds_config: DsConfig::default(),
            divergence_cutoff: Some(1e12),
            chaos: ChaosConfig::none(),
            monitor: MonitorMode::default(),
            redundancy: None,
        }
    }
}

/// The `O(P)` maintained view of the global residual norm.
#[derive(Debug, Clone, Copy)]
pub struct MaintainedNorm {
    /// `√Σ_p ‖r_p‖²` over the per-rank maintained residuals.
    pub norm: f64,
    /// `√Σ_p` undelivered-delta² — the root-sum-square of every parked
    /// and in-flight ghost delta. On a reliable link the true norm
    /// differs from `norm` by at most the norm of the summed deltas;
    /// `slack` equals that when deltas hit disjoint rows and understates
    /// it by at most a small overlap factor otherwise, so the monitor
    /// uses it to *widen* its verify trigger, never as a proof — every
    /// verdict is confirmed by an exact recompute regardless.
    pub slack: f64,
}

/// Out-of-band residual measurement with reusable scratch, lifetime-free.
///
/// Owns the gather and SpMV buffers (allocated once per run, not per
/// step) and the [`MonitorStats`] counters, but *not* the system: every
/// measurement takes `(a, b)` as arguments. This lets a persistent
/// [`SolveSession`] — which owns its matrix and right-hand side — hold
/// monitor scratch across solves without a self-referential borrow.
pub struct MonitorCore {
    /// Gather scratch: every owned row is overwritten on each gather (the
    /// parts partition `0..n`), so no per-use zeroing is needed.
    x: Vec<f64>,
    /// SpMV output scratch.
    ax: Vec<f64>,
    /// Cost and drift observables (copied into `RunStats` by the driver).
    pub stats: MonitorStats,
}

impl MonitorCore {
    /// Allocates the scratch for `‖b − Ax‖` measurements on an
    /// `n`-dimensional system.
    pub fn new(n: usize) -> Self {
        MonitorCore {
            x: vec![0.0; n],
            ax: vec![0.0; n],
            stats: MonitorStats::default(),
        }
    }

    /// The `O(P)` maintained global norm: a sum of per-rank scalars, no
    /// gather, no SpMV, independent of `n` and `nnz`. `None` if the
    /// algorithm does not maintain local norms
    /// ([`RankAlgorithm::maintained_norm_sq`]). Takes the rank slice, not
    /// an executor, so the superstep and async backends share it.
    pub fn maintained<R: RankAlgorithm>(&mut self, ranks: &[R]) -> Option<MaintainedNorm> {
        self.timed_maintained(|| rank_sums(ranks))
    }

    /// The exact `‖b − Ax‖₂`: gather into the reusable scratch, one SpMV,
    /// one norm — `O(n + nnz)`.
    pub fn exact<R: RankAlgorithm>(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        local_of: &impl Fn(&R) -> &LocalSystem,
    ) -> f64 {
        self.exact_view(a, b, ranks, &DirectView(local_of))
    }

    /// Gathers the current global solution (reuses the scratch buffer,
    /// clones out once — for the end-of-run report).
    pub fn gather<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        local_of: &impl Fn(&R) -> &LocalSystem,
    ) -> Vec<f64> {
        self.gather_view(ranks, &DirectView(local_of))
    }

    /// View-based [`MonitorCore::maintained`]: the drive loops read global
    /// state through a [`NormView`], so the uncoded run (one block per
    /// rank), a redundancy-coded run (one representative per replica set)
    /// and a panel column share one loop body and one accounting path.
    pub(crate) fn maintained_view<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> Option<MaintainedNorm> {
        self.timed_maintained(|| view.maintained_sums(ranks))
    }

    fn timed_maintained(
        &mut self,
        sums: impl FnOnce() -> Option<(f64, f64)>,
    ) -> Option<MaintainedNorm> {
        let t0 = Instant::now();
        let (norm_sq, slack_sq) = sums()?;
        self.stats.evals += 1;
        self.stats.eval_ns += t0.elapsed().as_nanos() as u64;
        Some(MaintainedNorm {
            norm: norm_sq.sqrt(),
            slack: slack_sq.sqrt(),
        })
    }

    /// View-based [`MonitorCore::exact`].
    pub(crate) fn exact_view<R: RankAlgorithm>(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> f64 {
        let t0 = Instant::now();
        view.scatter_into(ranks, &mut self.x);
        a.spmv(&self.x, &mut self.ax);
        let norm_sq: f64 = b
            .iter()
            .zip(&self.ax)
            .map(|(&b, &ax)| {
                let d = b - ax;
                d * d
            })
            .sum();
        self.stats.verifications += 1;
        self.stats.verify_ns += t0.elapsed().as_nanos() as u64;
        norm_sq.sqrt()
    }

    /// An exact verification of a boundary whose maintained norm was
    /// `maintained` (if the algorithm keeps one): the drift between the
    /// two is recorded.
    pub(crate) fn verify_view<R: RankAlgorithm>(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        view: &impl NormView<R>,
        maintained: Option<f64>,
    ) -> f64 {
        let e = self.exact_view(a, b, ranks, view);
        if let Some(m) = maintained {
            self.stats.record_drift(e, m);
        }
        e
    }

    /// View-based [`MonitorCore::gather`].
    pub(crate) fn gather_view<R: RankAlgorithm>(
        &mut self,
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> Vec<f64> {
        view.scatter_into(ranks, &mut self.x);
        self.x.clone()
    }
}

/// `(Σ norm², Σ slack²)` over ranks that each own one block, or `None` if
/// the algorithm maintains no norms.
fn rank_sums<R: RankAlgorithm>(ranks: &[R]) -> Option<(f64, f64)> {
    let mut norm_sq = 0.0;
    let mut slack_sq = 0.0;
    for r in ranks {
        norm_sq += r.maintained_norm_sq()?;
        slack_sq += r.undelivered_delta_sq();
    }
    Some((norm_sq, slack_sq))
}

/// How a drive loop reads global solver state out of a rank set: each
/// logical block contributes exactly once, whatever the physical hosting.
///
/// The uncoded [`DirectView`] is the identity (rank = block). The coded
/// [`ReplicaView`] reads each block from its freshest replica and declares
/// the replica sets as scheduler lag groups.
pub(crate) trait NormView<R: RankAlgorithm> {
    /// Writes every global row's current value into `x` (each logical
    /// block exactly once).
    fn scatter_into(&self, ranks: &[R], x: &mut [f64]);

    /// `(Σ norm², Σ slack²)` over logical blocks — the inputs of
    /// [`MaintainedNorm`] — or `None` if the algorithm maintains no norms.
    fn maintained_sums(&self, ranks: &[R]) -> Option<(f64, f64)>;

    /// Lag groups for the asynchronous scheduler: ranks hosting a common
    /// block progress as one logical owner, so a replica-covered straggler
    /// stops gating the lag bound. `None` keeps per-rank gating.
    fn lag_groups(&self) -> Option<Vec<Vec<u32>>> {
        None
    }
}

/// The uncoded identity view: one block per rank, read via the solver's
/// `local_of` projection.
pub(crate) struct DirectView<F>(pub(crate) F);

impl<R, F> NormView<R> for DirectView<F>
where
    R: RankAlgorithm,
    F: Fn(&R) -> &LocalSystem,
{
    fn scatter_into(&self, ranks: &[R], x: &mut [f64]) {
        for r in ranks {
            let ls = (self.0)(r);
            for (li, &g) in ls.rows.iter().enumerate() {
                x[g] = ls.x[li];
            }
        }
    }

    fn maintained_sums(&self, ranks: &[R]) -> Option<(f64, f64)> {
        rank_sums(ranks)
    }
}

/// The coded view over [`RedundantHost`] ranks: block `b` is read from
/// its *representative* — the furthest-along host (first on ties, so
/// lock-step runs always read the primary). Every replica holds a valid
/// estimate state; the representative is simply the freshest one, which is
/// exactly the first-arrival semantics the message plane uses.
struct ReplicaView<F> {
    /// Hosts per logical block, primary first.
    replicas: Vec<Vec<usize>>,
    /// Projects the inner solver to its local system.
    local_of: F,
}

impl<F> ReplicaView<F> {
    fn representative<A: RankAlgorithm>(&self, ranks: &[RedundantHost<A>], b: usize) -> usize {
        let mut best = self.replicas[b][0];
        for &h in &self.replicas[b][1..] {
            if ranks[h].clock() > ranks[best].clock() {
                best = h;
            }
        }
        best
    }
}

impl<A, F> NormView<RedundantHost<A>> for ReplicaView<F>
where
    A: RankAlgorithm,
    F: Fn(&A) -> &LocalSystem,
{
    fn scatter_into(&self, ranks: &[RedundantHost<A>], x: &mut [f64]) {
        for b in 0..self.replicas.len() {
            let h = self.representative(ranks, b);
            let ls = (self.local_of)(ranks[h].solver_for(b).expect("host carries its block"));
            for (li, &g) in ls.rows.iter().enumerate() {
                x[g] = ls.x[li];
            }
        }
    }

    fn maintained_sums(&self, ranks: &[RedundantHost<A>]) -> Option<(f64, f64)> {
        let mut norm_sq = 0.0;
        let mut slack_sq = 0.0;
        for b in 0..self.replicas.len() {
            let h = self.representative(ranks, b);
            let sv = ranks[h].solver_for(b).expect("host carries its block");
            norm_sq += sv.maintained_norm_sq()?;
            slack_sq += sv.undelivered_delta_sq();
        }
        Some((norm_sq, slack_sq))
    }

    fn lag_groups(&self) -> Option<Vec<Vec<u32>>> {
        Some(
            self.replicas
                .iter()
                .map(|hs| hs.iter().map(|&h| h as u32).collect())
                .collect(),
        )
    }
}

/// One row of the per-step record (all counters cumulative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Parallel step index (0 = initial state).
    pub step: usize,
    /// True global residual norm ‖b − Ax‖₂ at this boundary.
    pub residual_norm: f64,
    /// Cumulative row relaxations.
    pub relaxations: u64,
    /// Cumulative messages (all classes).
    pub msgs: u64,
    /// Cumulative solve-class messages.
    pub msgs_solve: u64,
    /// Cumulative explicit-residual messages.
    pub msgs_residual: u64,
    /// Cumulative recovery messages (audits, watchdog rebroadcasts).
    pub msgs_recovery: u64,
    /// Cumulative redundancy messages (replica fan-out copies of coded
    /// placements; zero on uncoded runs).
    pub msgs_redundancy: u64,
    /// Cumulative transfer messages (inter-level grid transfers of the
    /// distributed multigrid cycle; zero outside multigrid runs).
    pub msgs_transfer: u64,
    /// Cumulative modelled payload bytes (all classes).
    pub bytes: u64,
    /// Cumulative solve-class payload bytes.
    pub bytes_solve: u64,
    /// Cumulative explicit-residual payload bytes.
    pub bytes_residual: u64,
    /// Cumulative recovery payload bytes.
    pub bytes_recovery: u64,
    /// Cumulative redundancy payload bytes (replica fan-out copies).
    pub bytes_redundancy: u64,
    /// Cumulative transfer payload bytes (inter-level grid transfers).
    pub bytes_transfer: u64,
    /// Cumulative modelled wall-clock seconds.
    pub time: f64,
    /// Ranks that relaxed in this step.
    pub active_ranks: u64,
    /// Cumulative *measured* compute wall-time across all ranks, ns
    /// (observability only — the modelled clock is `time`).
    pub compute_ns: u64,
    /// Load imbalance of this step: slowest rank's measured compute time
    /// over the mean (1.0 = perfectly balanced, 0 steps → 1.0).
    pub imbalance: f64,
}

/// The full report of one distributed run.
#[derive(Debug, Clone)]
pub struct DistReport {
    /// Which method ran.
    pub method: Method,
    /// Problem size (rows).
    pub n: usize,
    /// Number of ranks.
    pub nranks: usize,
    /// Per-step records, starting with the initial state at step 0.
    pub records: Vec<StepRecord>,
    /// Raw substrate statistics.
    pub stats: RunStats,
    /// Step at which the target was first met.
    pub converged_at: Option<usize>,
    /// The run froze: a step moved no data and relaxed nothing, so no
    /// future step can act (deadlock). With the freeze watchdog enabled
    /// this is only set after nudging failed to restore progress.
    pub deadlocked: bool,
    /// The residual exceeded 10¹² × initial (divergence cut-off).
    pub diverged: bool,
    /// Times the freeze watchdog nudged the ranks after an idle step.
    pub watchdog_nudges: u64,
    /// Boundary residual rows overwritten by the invariant audit, summed
    /// over ranks.
    pub drift_repairs: u64,
    /// Messages discarded as duplicate / stale / subsumed, summed over
    /// ranks.
    pub stale_discards: u64,
    /// Final gathered solution.
    pub x: Vec<f64>,
}

impl DistReport {
    /// The last cumulative record. Infallible: every report carries the
    /// step-0 baseline record from construction.
    fn last_record(&self) -> &StepRecord {
        self.records
            .last()
            .expect("a report holds at least the step-0 baseline record")
    }

    /// Final residual norm.
    pub fn final_residual(&self) -> f64 {
        self.last_record().residual_norm
    }

    /// Convergence-monitor accounting: how many cheap maintained
    /// evaluations ran, how many exact verifications, and the worst
    /// relative drift observed between the two.
    pub fn monitor_stats(&self) -> &MonitorStats {
        &self.stats.monitor
    }

    /// The paper's communication cost: total messages / ranks.
    pub fn comm_cost(&self) -> f64 {
        self.last_record().msgs as f64 / self.nranks as f64
    }

    /// Modelled payload volume per rank, bytes (all classes).
    pub fn byte_cost(&self) -> f64 {
        self.last_record().bytes as f64 / self.nranks as f64
    }

    /// Solve-class payload volume per rank, bytes.
    pub fn byte_cost_solve(&self) -> f64 {
        self.last_record().bytes_solve as f64 / self.nranks as f64
    }

    /// Explicit-residual payload volume per rank, bytes.
    pub fn byte_cost_residual(&self) -> f64 {
        self.last_record().bytes_residual as f64 / self.nranks as f64
    }

    /// Recovery payload volume per rank, bytes.
    pub fn byte_cost_recovery(&self) -> f64 {
        self.last_record().bytes_recovery as f64 / self.nranks as f64
    }

    /// Redundancy payload volume per rank, bytes (replica fan-out copies;
    /// zero on uncoded runs).
    pub fn byte_cost_redundancy(&self) -> f64 {
        self.last_record().bytes_redundancy as f64 / self.nranks as f64
    }

    /// Redundancy messages per rank (the coded placement's overhead in the
    /// paper's communication metric).
    pub fn comm_cost_redundancy(&self) -> f64 {
        self.last_record().msgs_redundancy as f64 / self.nranks as f64
    }

    /// Transfer payload volume per rank, bytes (inter-level grid
    /// transfers; zero outside distributed multigrid runs).
    pub fn byte_cost_transfer(&self) -> f64 {
        self.last_record().bytes_transfer as f64 / self.nranks as f64
    }

    /// Transfer messages per rank (inter-level grid transfers).
    pub fn comm_cost_transfer(&self) -> f64 {
        self.last_record().msgs_transfer as f64 / self.nranks as f64
    }

    /// Mean fraction of active ranks per executed step.
    pub fn active_fraction(&self) -> f64 {
        let steps = self.records.len() - 1;
        if steps == 0 {
            return 0.0;
        }
        self.records[1..]
            .iter()
            .map(|r| r.active_ranks as f64)
            .sum::<f64>()
            / (steps as f64 * self.nranks as f64)
    }

    fn crossing(&self, target: f64, f: impl Fn(&StepRecord) -> f64) -> Option<f64> {
        interpolate_crossing(
            self.records.iter().map(|rec| (f(rec), rec.residual_norm)),
            target,
        )
    }

    /// Parallel steps to reach `target` (log-interpolated, Table 2 rule).
    pub fn steps_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.step as f64)
    }

    /// Modelled wall-clock seconds to reach `target`.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.time)
    }

    /// Communication cost (msgs/rank) expended to reach `target`.
    pub fn comm_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.msgs as f64 / self.nranks as f64)
    }

    /// Relaxations per unknown expended to reach `target`.
    pub fn relaxations_to_reach(&self, target: f64) -> Option<f64> {
        self.crossing(target, |r| r.relaxations as f64 / self.n as f64)
    }

    /// Mean per-step load imbalance (slowest rank / mean rank measured
    /// compute time; 1.0 = balanced). Reflects the paper's regime where
    /// most ranks idle while the winning ranks relax.
    pub fn mean_imbalance(&self) -> f64 {
        self.stats.mean_imbalance()
    }

    /// Executor worker utilization: busy time / (dispatch span × workers).
    /// 0.0 when timing was not measured.
    pub fn worker_utilization(&self) -> f64 {
        self.stats.worker_utilization()
    }
}

/// Distributes `(a, b, x0)` over `partition` and runs `method`.
///
/// The global residual is evaluated out-of-band after every parallel step —
/// the same measurement the paper's harness performs — and is *not*
/// counted as solver communication.
pub fn run_method(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
    opts: &DistOptions,
) -> DistReport {
    // `r = 1` is the identity placement: run the uncoded path. The
    // wrapper at r = 1 would be message-for-message identical except that
    // its slot reconciliation absorbs chaos *duplicates* before the
    // solver's own sequencing sees them — so the uncoded path is the one
    // that keeps `Some(Redundancy::new(1))` bit-identical to `None` under
    // every chaos mix.
    let map = opts
        .redundancy
        .map(|red| {
            ReplicaMap::try_new(partition.nparts(), red)
                .unwrap_or_else(|e| panic!("DistOptions::redundancy: {e}"))
        })
        .filter(|map| map.r() > 1);
    let run = RunMethod {
        method,
        a,
        b,
        opts,
        map,
    };
    with_method_ranks(method, a, b, x0, partition, opts, run)
}

/// A computation over whichever solver rank type a [`Method`] names —
/// the continuation [`with_method_ranks`] calls.
pub(crate) trait MethodRanks {
    type Out;

    /// Runs on the rank type `R`. Each call of `build` distributes the
    /// system afresh and returns one full, freshly built rank set.
    fn run<R>(self, build: &dyn Fn() -> Vec<R>) -> Self::Out
    where
        R: WarmStart + Clone,
        TenantSession: From<SolveSession<R>>;
}

/// Maps `method` to its rank constructor and hands the constructor to
/// `k`: the one place a [`Method`] picks a rank type.
pub(crate) fn with_method_ranks<K: MethodRanks>(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    partition: &Partition,
    opts: &DistOptions,
    k: K,
) -> K::Out {
    // Every call distributes afresh, so each rank set it builds is new.
    let locals = || {
        let ls = distribute(a, b, x0, partition).expect("valid distribution");
        let norms: Vec<f64> = ls.iter().map(LocalSystem::residual_norm_sq).collect();
        (ls, norms)
    };
    let cfg = opts.ds_config;
    match method {
        Method::BlockJacobi => {
            k.run(&|| BlockJacobiRank::build_with_solver(locals().0, cfg.local_solver))
        }
        Method::ParallelSouthwell | Method::ParallelSouthwellPiggybackOnly => {
            let explicit = method == Method::ParallelSouthwell;
            k.run(&|| {
                let (ls, norms) = locals();
                ParallelSouthwellRank::build_cfg(ls, &norms, explicit, cfg.local_solver)
            })
        }
        Method::DistributedSouthwell => {
            let r0 = a.residual(b, x0);
            k.run(&|| {
                let (ls, norms) = locals();
                DistributedSouthwellRank::build_with(ls, &norms, &r0, cfg)
            })
        }
    }
}

/// [`run_method`]'s continuation: one rank set driven directly, or — with
/// a coded placement of `r > 1` — `r` bit-identical sets dealt out to the
/// replica hosts and driven through [`RedundantHost`] wrappers with a
/// [`ReplicaView`].
///
/// Every replica of a block must start from identical state, so `r` full
/// solver sets are built from `r` identical distributions; block `b`'s
/// `j`-th replica instance goes to host `map.hosts_of(b)[j]`. The DS
/// deadlock-avoidance protocol needs no changes: the wrapper translates
/// physical ↔ logical addresses, so Γ̃-set negotiation and recovery audits
/// run purely in logical block space and see a replica set as one owner.
struct RunMethod<'a> {
    method: Method,
    a: &'a CsrMatrix,
    b: &'a [f64],
    opts: &'a DistOptions,
    /// The coded placement, present only for `r > 1`.
    map: Option<ReplicaMap>,
}

impl MethodRanks for RunMethod<'_> {
    type Out = DistReport;

    fn run<R>(self, build: &dyn Fn() -> Vec<R>) -> DistReport
    where
        R: WarmStart + Clone,
    {
        let Some(map) = self.map else {
            return drive(self.method, build(), R::local, self.a, self.b, self.opts);
        };
        let mut per_host: Vec<Vec<(usize, R)>> = (0..map.nblocks()).map(|_| Vec::new()).collect();
        for j in 0..map.r() {
            for (block, solver) in build().into_iter().enumerate() {
                per_host[map.hosts_of(block)[j]].push((block, solver));
            }
        }
        let replicas_u32: Vec<Vec<u32>> = map
            .replicas()
            .iter()
            .map(|hs| hs.iter().map(|&h| h as u32).collect())
            .collect();
        let hosts: Vec<RedundantHost<R>> = per_host
            .into_iter()
            .enumerate()
            .map(|(p, solvers)| RedundantHost::new(p, replicas_u32.clone(), solvers))
            .collect();
        let view = ReplicaView {
            replicas: map.replicas().to_vec(),
            local_of: R::local,
        };
        drive_view(self.method, hosts, &view, self.a, self.b, self.opts)
    }
}

/// Runs any solver rank type to a verdict on either substrate
/// ([`DistOptions::backend`]).
///
/// When the run hits a globally idle step (zero relaxations, zero
/// messages, residual above target) while no rank is stalled, the freeze
/// watchdog first [`Recoverable::nudge`]s every rank — a nudged solver
/// forces an explicit residual-norm rebroadcast next step, which restores
/// exact norms and un-freezes estimate-induced deadlocks. Only when no
/// rank reacts, or repeated nudges fail to produce a relaxation, is the
/// run declared deadlocked.
pub fn drive<R>(
    method: Method,
    ranks: Vec<R>,
    local_of: impl Fn(&R) -> &LocalSystem,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
{
    drive_view(method, ranks, &DirectView(local_of), a, b, opts)
}

/// The backend dispatch over an arbitrary state view (uncoded or coded).
fn drive_view<R, V>(
    method: Method,
    ranks: Vec<R>,
    view: &V,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
    V: NormView<R>,
{
    match opts.backend {
        ExecBackend::Superstep(mode) => {
            let ex = Executor::with_chaos(ranks, opts.cost_model, mode, opts.chaos);
            drive_backend(method, ex, view, a, b, opts)
        }
        ExecBackend::Async(aopts) => {
            let backend = AsyncBackend::new(ranks, aopts, opts, view.lag_groups());
            drive_backend(method, backend, view, a, b, opts)
        }
    }
}

/// One solve on a built backend: exact initial measurement, the run loop
/// to a verdict, the report.
fn drive_backend<R, B, V>(
    method: Method,
    mut backend: B,
    view: &V,
    a: &CsrMatrix,
    b: &[f64],
    opts: &DistOptions,
) -> DistReport
where
    R: RankAlgorithm + Recoverable,
    B: StepBackend<R>,
    V: NormView<R>,
{
    let mut monitor = MonitorCore::new(a.nrows());
    let mut run = RunState::start(&mut monitor, a, b, backend.ranks(), view);
    run_boundaries(
        &mut backend,
        &mut run,
        &mut monitor,
        a,
        b,
        view,
        opts,
        usize::MAX,
    );
    run.close(method, &mut backend, &mut monitor, view)
}

/// One boundary (a parallel step on the superstep backend, a scheduler
/// tick on the async one) as one solve sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Boundary {
    /// The substrate's counters for the step or tick.
    pub(crate) stats: StepStats,
    /// Rows this solve relaxed: the whole step's, or one panel column's.
    pub(crate) relaxed: u64,
    /// Nothing moved and nothing is in flight, so nothing can change any
    /// more: a deadlock verdict is imminent and the norm must be exact.
    pub(crate) idle: bool,
    /// The run's final boundary, which is always measured exactly.
    pub(crate) last: bool,
}

/// An execution substrate the run loop can step one boundary at a time.
pub(crate) trait StepBackend<R: RankAlgorithm> {
    /// The rank states, for measurement and the watchdog.
    fn ranks(&self) -> &[R];
    /// Mutable rank states (watchdog nudges).
    fn ranks_mut(&mut self) -> &mut [R];
    /// The substrate's accumulated statistics.
    fn stats_mut(&mut self) -> &mut RunStats;
    /// Boundaries a run of `max_steps` parallel steps may take.
    fn budget(&self, max_steps: usize) -> usize {
        max_steps
    }
    /// Runs one boundary. `last` is set when the backend itself knows the
    /// run is over; the loop adds the budget's own end.
    fn advance(&mut self) -> Boundary;
}

/// The lock-step backend: one parallel step per boundary. A step with no
/// relaxations, no messages and no stalled rank is idle (a stalled rank
/// could still hold undelivered puts).
impl<R: RankAlgorithm> StepBackend<R> for Executor<R> {
    fn ranks(&self) -> &[R] {
        Executor::ranks(self)
    }

    fn ranks_mut(&mut self) -> &mut [R] {
        Executor::ranks_mut(self)
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    fn advance(&mut self) -> Boundary {
        let s = self.step();
        Boundary {
            stats: s,
            relaxed: s.relaxations,
            idle: s.relaxations == 0 && s.msgs == 0 && s.faults.stalled_ranks == 0,
            last: false,
        }
    }
}

/// The asynchronous backend: one scheduler tick per boundary.
///
/// Each tick gets a cumulative [`StepRecord`] (so `converged_at` and the
/// `*_to_reach` interpolations are in ticks), and the `verify_every`
/// cadence counts ticks. The run ends when the *slowest* logical owner
/// has completed `max_steps` full parallel steps, or on a verdict, or when
/// a generous tick budget derived from the realized advance probabilities
/// runs out.
///
/// Freeze detection cannot use single ticks (a tick where every coin flip
/// fails is idle by accident): relaxations and messages accumulate over a
/// *sweep window* — the span in which *every* logical owner advances
/// through at least one full step's worth of phases — and a window with
/// no work and nothing in flight is idle. That is the superstep idle
/// guarantee verbatim: each rank ran all its phases on empty inboxes and
/// neither relaxed nor sent, so rerunning them can only repeat the
/// silence.
struct AsyncBackend<R: RankAlgorithm> {
    ex: AsyncExecutor<R>,
    nphases: usize,
    /// Clock goal: `max_steps` full steps of the slowest logical owner.
    goal: usize,
    budget: usize,
    window_relax: u64,
    window_msgs: u64,
    /// Logical clocks at the start of the current sweep window.
    window_start: Vec<usize>,
}

impl<R: RankAlgorithm> AsyncBackend<R> {
    fn new(
        ranks: Vec<R>,
        aopts: AsyncOptions,
        opts: &DistOptions,
        lag_groups: Option<Vec<Vec<u32>>>,
    ) -> Self {
        let nphases = ranks[0].phases();
        let mut ex = match AsyncExecutor::with_chaos(ranks, aopts, opts.chaos) {
            Ok(ex) => ex,
            Err(e) => panic!("ExecBackend::Async: {e}"),
        };
        // Under a coded placement the replica sets progress as logical
        // owners: the lag bound and the run goal track each block's
        // freshest replica, so a replica-covered straggler no longer gates
        // the whole run.
        if let Some(groups) = lag_groups {
            ex.set_lag_groups(groups);
        }
        let goal = opts.max_steps * nphases;
        // Expected ticks to the goal are `goal / p`, where `p` is the
        // pacing probability of the slowest logical owner; eight times
        // that (plus slack for tiny runs) is unreachable unless the
        // scheduler genuinely cannot make progress.
        let p_min = ex.pacing_probability().max(1e-3);
        let budget = ((goal as f64 / p_min) * 8.0).ceil() as usize + 64;
        let window_start = ex.logical_clocks();
        AsyncBackend {
            ex,
            nphases,
            goal,
            budget,
            window_relax: 0,
            window_msgs: 0,
            window_start,
        }
    }
}

impl<R: RankAlgorithm> StepBackend<R> for AsyncBackend<R> {
    fn ranks(&self) -> &[R] {
        self.ex.ranks()
    }

    fn ranks_mut(&mut self) -> &mut [R] {
        self.ex.ranks_mut()
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.ex.stats
    }

    /// The tick budget fixed at construction from the run's `max_steps`.
    fn budget(&self, _max_steps: usize) -> usize {
        self.budget
    }

    fn advance(&mut self) -> Boundary {
        self.ex.tick();
        let s = *self
            .ex
            .stats
            .steps
            .last()
            .expect("tick pushes a step record");
        self.window_relax += s.relaxations;
        self.window_msgs += s.msgs;
        let clocks = self.ex.logical_clocks();
        let last = clocks.iter().all(|&c| c >= self.goal);
        let swept = clocks
            .iter()
            .zip(&self.window_start)
            .all(|(&c, &from)| c - from >= self.nphases);
        let idle =
            swept && self.window_relax == 0 && self.window_msgs == 0 && self.ex.in_flight() == 0;
        if swept {
            self.window_relax = 0;
            self.window_msgs = 0;
            self.window_start = clocks;
        }
        Boundary {
            stats: s,
            relaxed: s.relaxations,
            idle,
            last,
        }
    }
}

/// The run loop: advances `backend` one boundary at a time, measures each
/// boundary and applies it to `run`, until a verdict, the backend's
/// boundary budget, or `quantum` boundaries — whichever comes first.
/// Returns whether the solve is done. One-shot drives pass an unbounded
/// quantum; a [`SolveSession`] steps the same loop in quanta.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_boundaries<R, B, V>(
    backend: &mut B,
    run: &mut RunState,
    monitor: &mut MonitorCore,
    a: &CsrMatrix,
    b: &[f64],
    view: &V,
    opts: &DistOptions,
    quantum: usize,
) -> bool
where
    R: RankAlgorithm + Recoverable,
    B: StepBackend<R>,
    V: NormView<R>,
{
    let budget = backend.budget(opts.max_steps);
    let mut left = quantum;
    while !run.done && left > 0 && run.step < budget {
        left -= 1;
        let mut bd = backend.advance();
        bd.last |= run.step + 1 == budget;
        // `verified`: the record carries the exact norm (verdicts need it).
        let (norm, verified) = match run.reading(monitor, backend.ranks(), view, opts, &bd) {
            Ok(norm) => (norm, false),
            Err(m) => (monitor.verify_view(a, b, backend.ranks(), view, m), true),
        };
        run.apply(opts, &bd, norm, verified, || nudge_all(backend.ranks_mut()));
    }
    if run.step >= budget {
        run.done = true;
    }
    run.done
}

/// Nudges every rank (no short-circuit); whether any reacted.
pub(crate) fn nudge_all<'a, R: Recoverable + 'a>(
    ranks: impl IntoIterator<Item = &'a mut R>,
) -> bool {
    ranks.into_iter().fold(false, |any, r| r.nudge() | any)
}

/// Rank-cumulative `(drift_repairs, stale_discards)`.
pub(crate) fn recovery_totals<'a, R: Recoverable + 'a>(
    ranks: impl IntoIterator<Item = &'a R>,
) -> (u64, u64) {
    ranks.into_iter().fold((0, 0), |(d, s), r| {
        (d + r.drift_repairs(), s + r.stale_discards())
    })
}

/// The progress of one solve: records, verdict flags, watchdog counters
/// and the recovery baselines. Every entry point keeps one — the one-shot
/// drive, a session between quanta, each column of a fused panel — and
/// applies each measured boundary to it, so the verdict rules exist once.
pub(crate) struct RunState {
    records: Vec<StepRecord>,
    initial: f64,
    nranks: usize,
    /// Boundaries applied so far.
    step: usize,
    converged_at: Option<usize>,
    deadlocked: bool,
    diverged: bool,
    watchdog_nudges: u64,
    /// Nudges issued since the last boundary with an actual relaxation;
    /// two fruitless nudges in a row mean nudging cannot help.
    nudges_since_relax: u32,
    /// A verdict was reached or the step budget ran out.
    pub(crate) done: bool,
    /// Rank-cumulative recovery counters at solve start, so the report
    /// carries per-solve deltas.
    recovery_base: (u64, u64),
}

impl RunState {
    /// A fresh solve from an exactly measured initial norm. Even a
    /// below-target initial state steps at least once: verdicts are only
    /// checked at boundaries.
    pub(crate) fn new(initial: f64, nranks: usize, recovery_base: (u64, u64)) -> Self {
        RunState {
            records: vec![initial_record(initial)],
            initial,
            nranks,
            step: 0,
            converged_at: None,
            deadlocked: false,
            diverged: false,
            watchdog_nudges: 0,
            nudges_since_relax: 0,
            done: false,
            recovery_base,
        }
    }

    /// Measures the initial state exactly (in every monitor mode — a
    /// one-time cost) and starts a solve from it.
    pub(crate) fn start<R: RankAlgorithm + Recoverable>(
        monitor: &mut MonitorCore,
        a: &CsrMatrix,
        b: &[f64],
        ranks: &[R],
        view: &impl NormView<R>,
    ) -> Self {
        let initial = monitor.exact_view(a, b, ranks, view);
        RunState::new(initial, ranks.len(), recovery_totals(ranks))
    }

    /// The cheap half of measuring the next boundary: `Ok(norm)` when the
    /// `O(P)` maintained norm may stand in the record, `Err(maintained)`
    /// when the mode or a possible verdict demands the exact
    /// `O(n + nnz)` recompute (`maintained` is the norm to record drift
    /// against, if the algorithm keeps one). This is the one exact-verify
    /// rule: the `verify_every` cadence, a possible convergence or
    /// divergence claim, an idle boundary, and the final boundary.
    pub(crate) fn reading<R: RankAlgorithm>(
        &self,
        monitor: &mut MonitorCore,
        ranks: &[R],
        view: &impl NormView<R>,
        opts: &DistOptions,
        bd: &Boundary,
    ) -> Result<f64, Option<f64>> {
        let MonitorMode::Maintained { verify_every } = opts.monitor else {
            return Err(None);
        };
        // The algorithm maintains no norms: fall back to exact.
        let m = monitor.maintained_view(ranks, view).ok_or(None)?;
        let due = verify_every > 0 && (self.step + 1).is_multiple_of(verify_every);
        // Trigger on a *possible* convergence claim: on a reliable link
        // the true norm is within `slack` of the maintained one (plus a
        // relative margin for summation round-off), so only
        // `norm − slack ≤ t` can hide a converged state.
        let claims_convergence = opts
            .target_residual
            .is_some_and(|t| m.norm - m.slack <= t * (1.0 + 1e-9));
        let claims_divergence = !m.norm.is_finite()
            || opts
                .divergence_cutoff
                .is_some_and(|cut| m.norm > cut * self.initial.max(1e-300));
        if due || claims_convergence || claims_divergence || bd.idle || bd.last {
            Err(Some(m.norm))
        } else {
            Ok(m.norm)
        }
    }

    /// Applies one measured boundary: appends its cumulative record and
    /// checks the verdicts in order — converged, then idle (watchdog
    /// `nudge`, else deadlock; see [`drive`]), then diverged. Every
    /// verdict requires the exact norm except the idle one, whose boundary
    /// the exact-verify rule always verifies. Returns whether the solve is
    /// done: a verdict, or the final boundary without a nudge.
    pub(crate) fn apply(
        &mut self,
        opts: &DistOptions,
        bd: &Boundary,
        norm: f64,
        verified: bool,
        nudge: impl FnOnce() -> bool,
    ) -> bool {
        self.step += 1;
        push_record(&mut self.records, self.step, norm, &bd.stats, self.nranks);
        if bd.relaxed > 0 {
            self.nudges_since_relax = 0;
        }
        if verified && opts.target_residual.is_some_and(|t| norm <= t) {
            self.converged_at = Some(self.step);
        } else if bd.idle {
            let frozen = norm > opts.target_residual.unwrap_or(0.0).max(1e-300);
            if frozen && self.nudges_since_relax < 2 && nudge() {
                self.watchdog_nudges += 1;
                self.nudges_since_relax += 1;
                return false;
            }
            self.deadlocked = frozen;
        } else if verified
            && (!norm.is_finite()
                || opts
                    .divergence_cutoff
                    .is_some_and(|cut| norm > cut * self.initial.max(1e-300)))
        {
            self.diverged = true;
        } else {
            self.done = bd.last;
            return self.done;
        }
        self.done = true;
        true
    }

    /// Assembles the solve's report. `stats` are the substrate counters of
    /// this solve, `recovery` the rank-cumulative recovery totals now.
    pub(crate) fn report(
        &mut self,
        method: Method,
        mut stats: RunStats,
        monitor: MonitorStats,
        x: Vec<f64>,
        recovery: (u64, u64),
    ) -> DistReport {
        stats.monitor = monitor;
        DistReport {
            method,
            n: x.len(),
            nranks: self.nranks,
            records: std::mem::take(&mut self.records),
            stats,
            converged_at: self.converged_at,
            deadlocked: self.deadlocked,
            diverged: self.diverged,
            watchdog_nudges: self.watchdog_nudges,
            drift_repairs: recovery.0 - self.recovery_base.0,
            stale_discards: recovery.1 - self.recovery_base.1,
            x,
        }
    }

    /// Closes a solve on a backend: gathers the solution, harvests the
    /// substrate's stats epoch and the monitor counters, and reports.
    pub(crate) fn close<R, B, V>(
        &mut self,
        method: Method,
        backend: &mut B,
        monitor: &mut MonitorCore,
        view: &V,
    ) -> DistReport
    where
        R: RankAlgorithm + Recoverable,
        B: StepBackend<R>,
        V: NormView<R>,
    {
        let x = monitor.gather_view(backend.ranks(), view);
        let stats = backend.stats_mut().take_epoch();
        let recovery = recovery_totals(backend.ranks());
        self.report(
            method,
            stats,
            std::mem::take(&mut monitor.stats),
            x,
            recovery,
        )
    }
}

/// The step-0 record: the exactly measured initial state, zero counters.
fn initial_record(initial: f64) -> StepRecord {
    StepRecord {
        step: 0,
        residual_norm: initial,
        relaxations: 0,
        msgs: 0,
        msgs_solve: 0,
        msgs_residual: 0,
        msgs_recovery: 0,
        msgs_redundancy: 0,
        msgs_transfer: 0,
        bytes: 0,
        bytes_solve: 0,
        bytes_residual: 0,
        bytes_recovery: 0,
        bytes_redundancy: 0,
        bytes_transfer: 0,
        time: 0.0,
        active_ranks: 0,
        compute_ns: 0,
        imbalance: 1.0,
    }
}

/// Appends the cumulative record for one boundary.
fn push_record(
    records: &mut Vec<StepRecord>,
    step: usize,
    norm: f64,
    s: &StepStats,
    nranks: usize,
) {
    let prev = *records
        .last()
        .expect("push_record runs after the step-0 record is seeded");
    records.push(StepRecord {
        step,
        residual_norm: norm,
        relaxations: prev.relaxations + s.relaxations,
        msgs: prev.msgs + s.msgs,
        msgs_solve: prev.msgs_solve + s.msgs_solve,
        msgs_residual: prev.msgs_residual + s.msgs_residual,
        msgs_recovery: prev.msgs_recovery + s.msgs_recovery,
        msgs_redundancy: prev.msgs_redundancy + s.msgs_redundancy,
        msgs_transfer: prev.msgs_transfer + s.msgs_transfer,
        bytes: prev.bytes + s.bytes,
        bytes_solve: prev.bytes_solve + s.bytes_solve,
        bytes_residual: prev.bytes_residual + s.bytes_residual,
        bytes_recovery: prev.bytes_recovery + s.bytes_recovery,
        bytes_redundancy: prev.bytes_redundancy + s.bytes_redundancy,
        bytes_transfer: prev.bytes_transfer + s.bytes_transfer,
        time: prev.time + s.time,
        active_ranks: s.active_ranks,
        compute_ns: prev.compute_ns + s.compute_ns,
        imbalance: s.imbalance(nranks),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
    use dsw_sparse::gen;

    fn poisson_setup(nx: usize, ny: usize, p: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
        let mut a = gen::grid2d_poisson(nx, ny);
        a.scale_unit_diagonal().unwrap();
        let n = a.nrows();
        let b = vec![0.0; n];
        // Random guess scaled so the initial residual has unit norm (§4.2).
        let mut x0 = gen::random_guess(n, 11);
        let r0 = a.residual(&b, &x0);
        let scale = 1.0 / dsw_sparse::vecops::norm2(&r0);
        for v in x0.iter_mut() {
            *v *= scale;
        }
        let g = Graph::from_matrix(&a);
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        (a, b, x0, part)
    }

    #[test]
    fn initial_residual_is_unit() {
        let (a, b, x0, _) = poisson_setup(16, 16, 4);
        let r0 = a.residual(&b, &x0);
        assert!((dsw_sparse::vecops::norm2(&r0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_methods_reach_point_one_on_poisson() {
        let (a, b, x0, part) = poisson_setup(16, 16, 4);
        let opts = DistOptions {
            max_steps: 50,
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} failed: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
        }
    }

    #[test]
    fn ds_beats_ps_on_communication() {
        let (a, b, x0, part) = poisson_setup(24, 24, 8);
        let opts = DistOptions {
            max_steps: 200,
            ..DistOptions::default()
        };
        let ds = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let ps = run_method(Method::ParallelSouthwell, &a, &b, &x0, &part, &opts);
        let dsc = ds.comm_to_reach(0.1).expect("DS converged");
        let psc = ps.comm_to_reach(0.1).expect("PS converged");
        assert!(dsc < psc, "DS comm {dsc} !< PS comm {psc}");
    }

    #[test]
    fn piggyback_only_deadlocks_and_is_reported() {
        let (a, b, x0, part) = poisson_setup(16, 16, 8);
        let opts = DistOptions {
            max_steps: 300,
            target_residual: Some(1e-6),
            ..DistOptions::default()
        };
        let rep = run_method(
            Method::ParallelSouthwellPiggybackOnly,
            &a,
            &b,
            &x0,
            &part,
            &opts,
        );
        assert!(rep.deadlocked, "expected deadlock report");
        assert!(rep.converged_at.is_none());
    }

    #[test]
    fn report_metrics_are_consistent() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions::default();
        let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let last = rep.records.last().unwrap();
        assert_eq!(
            last.msgs,
            last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
        );
        assert_eq!(rep.stats.total_msgs(), last.msgs);
        assert_eq!(
            last.bytes,
            last.bytes_solve + last.bytes_residual + last.bytes_recovery + last.bytes_redundancy
        );
        assert_eq!(rep.stats.total_bytes(), last.bytes);
        assert_eq!(
            last.msgs_redundancy, 0,
            "uncoded runs have no redundancy traffic"
        );
        assert!(last.bytes > 0, "messages carry payload bytes");
        assert!((rep.byte_cost() - last.bytes as f64 / rep.nranks as f64).abs() < 1e-12);
        assert!((rep.stats.total_time() - last.time).abs() < 1e-12);
        assert!(rep.active_fraction() > 0.0 && rep.active_fraction() <= 1.0);
        // Crossing metrics are monotone sensible.
        let s = rep.steps_to_reach(0.1).unwrap();
        assert!(s > 0.0 && s <= rep.records.len() as f64);
        // Measured-timing observables populate and are sane.
        assert!(rep.records.last().unwrap().compute_ns > 0);
        assert!(rep.mean_imbalance() >= 1.0);
        assert!(rep.worker_utilization() > 0.0 && rep.worker_utilization() <= 1.0);
        assert!(rep.records[1..].iter().all(|r| r.imbalance >= 1.0));
    }

    #[test]
    fn watchdog_unfreezes_the_no_avoidance_variant() {
        // Without deadlock avoidance DS freezes on this setup (see
        // `no_deadlock_avoidance_can_freeze`). The freeze watchdog's forced
        // rebroadcast restores exact norms, so the run converges anyway.
        let (a, b, x0, part) = poisson_setup(16, 16, 8);
        let base = DistOptions {
            max_steps: 400,
            target_residual: Some(1e-6),
            ds_config: DsConfig {
                deadlock_avoidance: false,
                ..DsConfig::default()
            },
            ..DistOptions::default()
        };
        let frozen = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
        assert!(frozen.deadlocked, "expected the foil to freeze");
        assert_eq!(frozen.watchdog_nudges, 0);

        let mut healed_opts = base;
        healed_opts.ds_config.recovery = crate::dist::RecoveryConfig {
            watchdog: true,
            ..crate::dist::RecoveryConfig::off()
        };
        let healed = run_method(
            Method::DistributedSouthwell,
            &a,
            &b,
            &x0,
            &part,
            &healed_opts,
        );
        assert!(
            healed.converged_at.is_some(),
            "watchdog should rescue the run: final {}, deadlocked {}",
            healed.final_residual(),
            healed.deadlocked
        );
        assert!(healed.watchdog_nudges > 0);
        assert!(healed.stats.total_msgs_recovery() > 0);
    }

    #[test]
    fn threaded_matches_sequential() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let o1 = DistOptions {
            max_steps: 20,
            target_residual: None,
            ..DistOptions::default()
        };
        let o2 = DistOptions {
            backend: ExecBackend::Superstep(ExecMode::Threaded(3)),
            ..o1
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &o1);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &o2);
        assert_eq!(r1.x, r2.x, "threaded and sequential must be bit-identical");
        assert_eq!(
            r1.records.last().unwrap().msgs,
            r2.records.last().unwrap().msgs
        );
    }

    #[test]
    fn async_backend_converges_with_populated_report() {
        let (a, b, x0, part) = poisson_setup(16, 16, 4);
        let opts = DistOptions {
            max_steps: 200,
            backend: ExecBackend::Async(AsyncOptions {
                advance_probability: 0.6,
                max_lag: 6,
                seed: 5,
                straggler_skew: 0.5,
            }),
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} failed under async scheduling: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
            // The report is as observable as a superstep run: per-class
            // counters, monitor accounting, consistent cumulative records.
            let last = rep.records.last().unwrap();
            assert!(last.msgs_solve > 0, "{}", m.label());
            assert!(last.bytes > 0);
            assert_eq!(
                last.msgs,
                last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
            );
            assert_eq!(rep.stats.total_msgs(), last.msgs);
            let mon = rep.monitor_stats();
            assert!(mon.evals > 0, "maintained sums must drive the records");
            assert!(mon.verifications > 0, "verdicts must be verified");
            // Final record is exact (the last boundary always verifies).
            let true_norm = dsw_sparse::vecops::norm2(&a.residual(&b, &rep.x));
            assert!(
                (true_norm - rep.final_residual()).abs() <= 1e-12 * true_norm.max(1.0),
                "{}: final record {} vs true {}",
                m.label(),
                rep.final_residual(),
                true_norm
            );
        }
    }

    #[test]
    fn async_backend_is_deterministic_per_seed() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            max_steps: 60,
            backend: ExecBackend::Async(AsyncOptions {
                straggler_skew: 0.7,
                ..AsyncOptions::default()
            }),
            ..DistOptions::default()
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.converged_at, r2.converged_at);
        assert_eq!(
            r1.records.last().unwrap().msgs,
            r2.records.last().unwrap().msgs
        );
    }

    #[test]
    fn async_backend_accepts_stall_injection() {
        // Tick-window stalls on the async backend: accepted (they freeze
        // whole scheduler windows), counted, and deterministic per seed.
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            max_steps: 120,
            backend: ExecBackend::Async(AsyncOptions::default()),
            chaos: ChaosConfig {
                stall_rate: 0.2,
                stall_steps: 2,
                seed: 9,
                ..ChaosConfig::none()
            },
            ..DistOptions::default()
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.converged_at, r2.converged_at);
        assert!(
            r1.stats.total_faults().stalled_ranks > 0,
            "stall windows must be drawn and counted"
        );
        assert!(!r1.deadlocked && !r1.diverged);
    }

    /// A coded placement on the lock-step backend: converges, pays a
    /// visible redundancy overhead in its own comm class, reconciles every
    /// extra copy exactly, and stays bit-identical per seed.
    #[test]
    fn redundant_superstep_converges_with_accounted_overhead() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let base = DistOptions {
            max_steps: 80,
            ..DistOptions::default()
        };
        let uncoded = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
        for r in [2, 3] {
            let opts = DistOptions {
                redundancy: Some(Redundancy::new(r)),
                ..base
            };
            let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "r = {r} failed: final {}",
                rep.final_residual()
            );
            let last = rep.records.last().unwrap();
            assert!(last.msgs_redundancy > 0, "replica fan-out must be counted");
            assert!(last.bytes_redundancy > 0);
            assert_eq!(
                last.msgs,
                last.msgs_solve + last.msgs_residual + last.msgs_recovery + last.msgs_redundancy
            );
            assert_eq!(
                last.bytes,
                last.bytes_solve
                    + last.bytes_residual
                    + last.bytes_recovery
                    + last.bytes_redundancy
            );
            assert!(rep.byte_cost_redundancy() > 0.0);
            assert!(
                rep.stale_discards > 0,
                "first-arrival reconciliation must discard replica copies"
            );
            // Lock-step replicas are bit-identical, so the representative
            // solution is exactly the uncoded one and convergence lands on
            // the same step.
            assert_eq!(rep.x, uncoded.x, "r = {r}");
            assert_eq!(rep.converged_at, uncoded.converged_at);
            // Same seed ⇒ same report, for every r.
            let again = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
            assert_eq!(rep.x, again.x);
            assert_eq!(
                rep.records.last().unwrap().msgs,
                again.records.last().unwrap().msgs
            );
        }
    }

    /// `Some(Redundancy::new(1))` is the identity placement and must stay
    /// bit-identical to `None` — including under chaos, where the r = 1
    /// dispatch keeps chaos duplicates visible to the solver's sequencing.
    #[test]
    fn redundancy_r1_is_bit_identical_to_uncoded() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        for chaos in [
            ChaosConfig::none(),
            ChaosConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                seed: 3,
                ..ChaosConfig::none()
            },
        ] {
            let base = DistOptions {
                max_steps: 40,
                chaos,
                ds_config: DsConfig {
                    recovery: crate::dist::RecoveryConfig::standard(),
                    ..DsConfig::default()
                },
                ..DistOptions::default()
            };
            let coded = DistOptions {
                redundancy: Some(Redundancy::new(1)),
                ..base
            };
            let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
            let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &coded);
            assert_eq!(r1.x, r2.x);
            // Deterministic record fields only (`compute_ns` / `imbalance`
            // are measured wall-time observables).
            let key = |rep: &DistReport| {
                rep.records
                    .iter()
                    .map(|r| {
                        (
                            r.step,
                            r.residual_norm.to_bits(),
                            r.relaxations,
                            r.msgs,
                            r.msgs_solve,
                            r.msgs_residual,
                            r.msgs_recovery,
                            r.msgs_redundancy,
                            r.bytes,
                            r.active_ranks,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&r1), key(&r2));
            assert_eq!(r1.converged_at, r2.converged_at);
        }
    }

    /// Coded placements on the async backend: all methods converge, the
    /// run is deterministic per seed, and with replica lag groups a
    /// heavily skewed straggler no longer stalls the run.
    #[test]
    fn redundant_async_converges_and_is_deterministic() {
        let (a, b, x0, part) = poisson_setup(16, 16, 6);
        let opts = DistOptions {
            max_steps: 200,
            backend: ExecBackend::Async(AsyncOptions {
                advance_probability: 0.6,
                max_lag: 6,
                seed: 5,
                straggler_skew: 0.7,
            }),
            redundancy: Some(Redundancy::new(2)),
            ..DistOptions::default()
        };
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let rep = run_method(m, &a, &b, &x0, &part, &opts);
            assert!(
                rep.converged_at.is_some(),
                "{} (r = 2, async) failed: final {}",
                m.label(),
                rep.final_residual()
            );
            assert!(!rep.deadlocked && !rep.diverged);
            assert!(rep.records.last().unwrap().msgs_redundancy > 0);
            let again = run_method(m, &a, &b, &x0, &part, &opts);
            assert_eq!(rep.x, again.x, "{}", m.label());
            assert_eq!(rep.converged_at, again.converged_at);
            // The final record is exact for the representative solution.
            let true_norm = dsw_sparse::vecops::norm2(&a.residual(&b, &rep.x));
            assert!(
                (true_norm - rep.final_residual()).abs() <= 1e-12 * true_norm.max(1.0),
                "{}: final record {} vs true {}",
                m.label(),
                rep.final_residual(),
                true_norm
            );
        }
    }

    /// Degenerate redundancy factors fail fast with the partition error.
    #[test]
    #[should_panic(expected = "redundancy")]
    fn invalid_redundancy_factor_panics_with_clear_message() {
        let (a, b, x0, part) = poisson_setup(12, 12, 4);
        let opts = DistOptions {
            redundancy: Some(Redundancy::new(9)),
            ..DistOptions::default()
        };
        run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
    }
}
