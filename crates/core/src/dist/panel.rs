//! Fused multi-RHS panel solves: `k` right-hand sides of one system,
//! relaxed per sweep with one packed message per (edge, phase, class).
//!
//! A [`PanelRun`] fuses `k` warm-started solves of `A x = b_c` into one
//! executor of [`PanelRank`]s: every rank hosts `k` clones of its solver
//! state — one per column — and the rma-layer adapter packs each phase's
//! per-column puts edge-by-edge, so message counts amortize `k`-fold
//! while every column's floating-point trajectory stays bit-identical to
//! the scalar session path (the `multirhs` proptests pin `k = 1`
//! end-to-end and `k > 1` column-for-column against independent solves).
//!
//! Per-column bookkeeping is the scalar session's:
//!
//! * each column has its own [`MonitorCore`], maintained-norm view
//!   (`PanelColView`) and driver run state (records, verdicts, watchdog
//!   counters);
//! * each boundary goes through the driver's exact-verify rule and its
//!   verdict rules per column, including the two-strikes freeze watchdog
//!   (nudges target one column's clones only);
//! * a column that reaches a verdict **drops out**: its solution is
//!   gathered, its clones are deactivated on every rank, and later panel
//!   messages simply stop carrying (and stop charging for) its parts.
//!   Deactivation mid-flight is safe for the same reason warm-start
//!   reseeding is — under the session preconditions the only in-flight
//!   payloads at a step boundary are norm estimates.
//!
//! Exact residual verification is *blocked*: when two or more columns
//! need an exact `‖b_c − A x_c‖₂` at the same boundary (always, in
//! [`MonitorMode::Exact`](super::MonitorMode::Exact)), the panel
//! interleaves their iterates row-major and runs one
//! [`CsrMatrix::spmv_panel`] — a single CSR index walk for all columns —
//! then reduces per-column norms with
//! [`norm2_sq_cols`]. Both kernels keep the repo's ordered-accumulation
//! contract, so each column's exact norm is bit-identical to the scalar
//! monitor's gather + SpMV.
//!
//! When the run finishes, the **last** column's solver state is swapped
//! into the owning session (and re-seeded by the same exact out-of-band
//! norm exchange a changed-`b` warm start performs), so subsequent scalar
//! solves continue from the panel's final solution.

use super::driver::{
    nudge_all, recovery_totals, Boundary, DistOptions, DistReport, Method, MonitorCore, NormView,
    RunState,
};
use super::session::{warm_executor, SolveSession, WarmStart};
use dsw_rma::{Executor, PanelRank, SharedPool, StepStats};
use dsw_sparse::vecops::norm2_sq_cols;
use dsw_sparse::CsrMatrix;
use std::time::Instant;

/// The per-column [`NormView`]: reads column `c`'s local systems and
/// maintained norms out of a [`PanelRank`] set, exactly as the scalar
/// session's `DirectView` reads its single solve.
pub(crate) struct PanelColView(pub(crate) usize);

impl<R: WarmStart> NormView<PanelRank<R>> for PanelColView {
    fn scatter_into(&self, ranks: &[PanelRank<R>], x: &mut [f64]) {
        for r in ranks {
            let ls = r.col(self.0).local();
            for (li, &g) in ls.rows.iter().enumerate() {
                x[g] = ls.x[li];
            }
        }
    }

    fn maintained_sums(&self, ranks: &[PanelRank<R>]) -> Option<(f64, f64)> {
        let mut norm_sq = 0.0;
        let mut slack_sq = 0.0;
        for r in ranks {
            norm_sq += r.col(self.0).maintained_norm_sq()?;
            slack_sq += r.col(self.0).undelivered_delta_sq();
        }
        Some((norm_sq, slack_sq))
    }
}

/// Per-column solve progress: the driver's run state plus the column's
/// own monitor scratch.
struct ColState {
    monitor: MonitorCore,
    run: RunState,
    /// Gathered at drop-out time, while the column's state is still warm.
    x: Option<Vec<f64>>,
}

/// An in-progress fused panel solve over `k` right-hand sides.
///
/// Owned by a [`SolveSession`] between
/// [`begin_panel`](super::Session::begin_panel) and
/// [`finish_panel`](super::Session::finish_panel); stepped in quanta via
/// [`step_panel`](super::Session::step_panel) so a serving layer can
/// schedule a whole tenant batch as one fair-share job.
pub struct PanelRun<R: WarmStart> {
    pub(crate) ex: Executor<PanelRank<R>>,
    cols: Vec<ColState>,
    bs: Vec<Vec<f64>>,
    step: usize,
    method: Method,
    opts: DistOptions,
    n: usize,
    // Per-step scratch (k-sized; no steady-state allocation).
    relax_sum: Vec<u64>,
    msgs_sum: Vec<u64>,
    need_exact: Vec<usize>,
    /// Maintained norms to record drift against, per column needing an
    /// exact recompute.
    drift_ref: Vec<Option<f64>>,
    col_norms: Vec<f64>,
    col_verified: Vec<bool>,
    // Blocked-verification scratch (n·|need_exact|, grown on demand).
    x_panel: Vec<f64>,
    ax_panel: Vec<f64>,
    sq_scratch: Vec<f64>,
    /// Identity of the shared pool the executor was built on (`None` =
    /// private executor), so a cached run is only reused against the
    /// same pool.
    pool_id: Option<usize>,
}

impl<R: WarmStart> PanelRun<R> {
    /// Builds a fused panel run from a session's current rank state: `k`
    /// clones per rank, each column warm-started by the same `Δb` reseed +
    /// exact norm exchange a scalar changed-`b` solve performs.
    ///
    /// Panics unless the options satisfy the warm-start preconditions
    /// ([`warm_executor`] checks them).
    pub(crate) fn new(
        method: Method,
        a: &CsrMatrix,
        session_b: &[f64],
        base_ranks: &[R],
        bs: &[Vec<f64>],
        opts: DistOptions,
        pool: Option<&SharedPool>,
    ) -> Self
    where
        R: Clone,
    {
        assert!(!bs.is_empty(), "a panel solve needs at least one rhs");
        let n = a.nrows();
        for b in bs {
            assert_eq!(b.len(), n, "rhs dimension mismatch");
        }
        let k = bs.len();
        assert!(
            k <= 64,
            "panel width is capped at 64 columns (shared-part column masks)"
        );
        let nranks = base_ranks.len();
        let ranks: Vec<PanelRank<R>> = base_ranks
            .iter()
            .map(|r| {
                let mut panel = PanelRank::new(vec![r.clone(); k], nranks);
                // Algorithm-level fusion, when the rank type provides it
                // (bit-identical per column to the fallback loop — the
                // `multirhs` proptests pin both paths).
                panel.set_fused(R::panel_fused());
                panel.set_flush(R::panel_flush());
                panel
            })
            .collect();
        let ex = warm_executor(ranks, &opts, pool);

        let mut run = PanelRun {
            ex,
            cols: Vec::with_capacity(k),
            bs: Vec::new(),
            step: 0,
            method,
            opts,
            n,
            relax_sum: vec![0; k],
            msgs_sum: vec![0; k],
            need_exact: Vec::with_capacity(k),
            drift_ref: vec![None; k],
            col_norms: vec![0.0; k],
            col_verified: vec![false; k],
            x_panel: Vec::new(),
            ax_panel: Vec::new(),
            sq_scratch: Vec::new(),
            pool_id: pool.map(SharedPool::id),
        };
        run.reseed(a, session_b, base_ranks, bs);
        run
    }

    /// Re-arms the panel for a fresh batch of `k` right-hand sides,
    /// re-adopting `base_ranks`' current state into every column clone —
    /// the warm path a cached run takes instead of re-cloning every
    /// rank's matrix and topology and rebuilding the executor's routing
    /// index. Bit-identical to [`PanelRun::new`] from the same session
    /// state: a clone and a [`WarmStart::copy_state_from`] leave the
    /// column in the same state, and the per-column Δb reseed + estimate
    /// exchange below is the constructor's own.
    pub(crate) fn reseed(
        &mut self,
        a: &CsrMatrix,
        session_b: &[f64],
        base_ranks: &[R],
        bs: &[Vec<f64>],
    ) where
        R: Clone,
    {
        let n = self.n;
        let k = self.k();
        let nranks = base_ranks.len();
        assert_eq!(bs.len(), k, "panel width mismatch");
        for b in bs {
            assert_eq!(b.len(), n, "rhs dimension mismatch");
        }
        self.bs = bs.to_vec();
        self.step = 0;
        // In-flight messages describe the previous batch's systems; the
        // exact exchange below supersedes them, exactly as a changed-b
        // warm start's does.
        self.ex.discard_in_flight();
        for (p, base) in base_ranks.iter().enumerate() {
            let panel = &mut self.ex.ranks_mut()[p];
            // Every column's state is overwritten below; stale resident
            // lanes from the previous batch must not scatter over it.
            panel.clear_resident();
            for c in 0..k {
                panel.col_mut(c).copy_state_from(base);
                panel.set_active(c, true);
            }
        }

        // Warm-start every column exactly like a changed-b scalar solve:
        // Δb reseed (Δ may be zero) for the exact local norms, then the
        // out-of-band estimate exchange.
        let mut delta = vec![0.0; n];
        let mut norms = vec![0.0; nranks];
        for (c, b_new) in bs.iter().enumerate() {
            for ((d, &new), &old) in delta.iter_mut().zip(b_new).zip(session_b) {
                *d = new - old;
            }
            for (p, panel) in self.ex.ranks_mut().iter_mut().enumerate() {
                norms[p] = panel.col_mut(c).reseed_rhs(&delta);
            }
            for panel in self.ex.ranks_mut() {
                panel.col_mut(c).reseed_estimates(&norms);
            }
        }

        // Every column starts from the session's current solution, so one
        // gather + SpMV prices all k initial exact norms; the per-column
        // sum keeps the scalar monitor's row-order fold bit for bit.
        let t0 = Instant::now();
        let mut x0 = vec![0.0; n];
        PanelColView(0).scatter_into(self.ex.ranks(), &mut x0);
        let mut ax0 = vec![0.0; n];
        a.spmv(&x0, &mut ax0);
        let init_ns_share = (t0.elapsed().as_nanos() as u64) / k as u64;

        self.cols.clear();
        for (c, b) in bs.iter().enumerate() {
            let t0 = Instant::now();
            let norm_sq: f64 = b
                .iter()
                .zip(&ax0)
                .map(|(&b, &ax)| {
                    let d = b - ax;
                    d * d
                })
                .sum();
            let initial = norm_sq.sqrt();
            let mut monitor = MonitorCore::new(n);
            monitor.stats.verifications += 1;
            monitor.stats.verify_ns += init_ns_share + t0.elapsed().as_nanos() as u64;
            let recovery = recovery_totals(self.ex.ranks().iter().map(|r| r.col(c)));
            self.cols.push(ColState {
                monitor,
                run: RunState::new(initial, nranks, recovery),
                x: None,
            });
        }
        // Clean stats epoch: build and reseed work is not a step.
        let _ = self.ex.stats.take_epoch();
    }

    /// Number of columns in the panel.
    pub fn k(&self) -> usize {
        self.ex.ranks()[0].k()
    }

    /// Identity of the shared pool the panel executor runs on (`None`
    /// for a private executor) — the cache-reuse compatibility key.
    pub(crate) fn pool_id(&self) -> Option<usize> {
        self.pool_id
    }

    /// Whether every column has reached a verdict.
    pub fn all_done(&self) -> bool {
        self.cols.iter().all(|c| c.run.done)
    }

    /// One blocked exact verification over every column in `need_exact`:
    /// interleave the iterates row-major, one `spmv_panel`, per-column
    /// ordered norm reduction. Bit-identical per column to the scalar
    /// monitor's `exact_view`.
    fn blocked_exact(&mut self, a: &CsrMatrix) {
        let t0 = Instant::now();
        let kk = self.need_exact.len();
        let n = self.n;
        self.x_panel.resize(n * kk, 0.0);
        self.ax_panel.resize(n * kk, 0.0);
        for r in self.ex.ranks() {
            for (j, &c) in self.need_exact.iter().enumerate() {
                let ls = r.col(c).local();
                for (li, &g) in ls.rows.iter().enumerate() {
                    self.x_panel[g * kk + j] = ls.x[li];
                }
            }
        }
        a.spmv_panel(&self.x_panel[..n * kk], kk, &mut self.ax_panel[..n * kk]);
        for (i, row) in self.ax_panel[..n * kk].chunks_exact_mut(kk).enumerate() {
            for (j, &c) in self.need_exact.iter().enumerate() {
                row[j] = self.bs[c][i] - row[j];
            }
        }
        self.sq_scratch.resize(kk, 0.0);
        norm2_sq_cols(&self.ax_panel[..n * kk], kk, &mut self.sq_scratch[..kk]);
        // The walk is shared; charge each column an equal share of it.
        let ns_share = t0.elapsed().as_nanos() as u64 / kk as u64;
        for (j, &c) in self.need_exact.iter().enumerate() {
            let e = self.sq_scratch[j].sqrt();
            let stats = &mut self.cols[c].monitor.stats;
            stats.verifications += 1;
            stats.verify_ns += ns_share;
            if let Some(m) = self.drift_ref[c] {
                stats.record_drift(e, m);
            }
            self.col_norms[c] = e;
        }
    }

    /// Scatters every rank's resident panel lanes back into per-column
    /// state, so out-of-band readers (exact verification, solution
    /// gathers) see current vectors. No-op when nothing is resident.
    fn flush_resident_lanes(&mut self) {
        for r in self.ex.ranks_mut() {
            r.flush_resident();
        }
    }

    /// A column reached a verdict: gather its solution while the state is
    /// warm, then deactivate its clones so it drops out of every
    /// subsequent sweep and packed message.
    fn finish_col(&mut self, c: usize) {
        self.flush_resident_lanes();
        let x = self.cols[c]
            .monitor
            .gather_view(self.ex.ranks(), &PanelColView(c));
        self.cols[c].x = Some(x);
        self.cols[c].run.done = true;
        for r in self.ex.ranks_mut() {
            r.set_active(c, false);
        }
    }

    /// The fused step's boundary as column `c` sees it: the panel's
    /// shared counters, the column's own relaxations, and idle when the
    /// column neither relaxed nor sent (no chaos, so nothing is stalled).
    fn col_boundary(&self, c: usize, stats: StepStats, last: bool) -> Boundary {
        Boundary {
            stats,
            relaxed: self.relax_sum[c],
            idle: self.relax_sum[c] == 0 && self.msgs_sum[c] == 0,
            last,
        }
    }

    /// Advances up to `quantum` fused supersteps; returns `true` once
    /// every column has reached a verdict. Per column, the measurement
    /// rule and the verdicts are the driver's run loop's.
    pub(crate) fn step_batch(&mut self, a: &CsrMatrix, quantum: usize) -> bool {
        let k = self.bs.len();
        let mut left = quantum;
        while !self.all_done() && left > 0 && self.step < self.opts.max_steps {
            left -= 1;
            self.step += 1;
            for r in self.ex.ranks_mut() {
                r.begin_step();
            }
            let s = self.ex.step();
            let last = self.step == self.opts.max_steps;

            self.relax_sum.fill(0);
            self.msgs_sum.fill(0);
            for r in self.ex.ranks() {
                for c in 0..k {
                    self.relax_sum[c] += r.col_relaxations(c);
                    self.msgs_sum[c] += r.col_msgs(c);
                }
            }

            // Stage 1: per-column maintained readings, with the exact
            // recomputes deferred so they can be blocked.
            self.need_exact.clear();
            for c in 0..k {
                if self.cols[c].run.done {
                    continue;
                }
                let bd = self.col_boundary(c, s, last);
                let col = &mut self.cols[c];
                let view = PanelColView(c);
                match col
                    .run
                    .reading(&mut col.monitor, self.ex.ranks(), &view, &self.opts, &bd)
                {
                    Ok(norm) => {
                        self.col_norms[c] = norm;
                        self.col_verified[c] = false;
                    }
                    Err(maintained) => {
                        self.drift_ref[c] = maintained;
                        self.col_verified[c] = true;
                        self.need_exact.push(c);
                    }
                }
            }

            // Stage 2: exact recomputes — blocked when 2+ columns need
            // one, the scalar monitor path when exactly one does. Both
            // read iterates out-of-band, so resident lanes scatter back
            // first.
            if !self.need_exact.is_empty() {
                self.flush_resident_lanes();
            }
            if self.need_exact.len() >= 2 {
                self.blocked_exact(a);
            } else if let Some(&c) = self.need_exact.first() {
                self.col_norms[c] = self.cols[c].monitor.verify_view(
                    a,
                    &self.bs[c],
                    self.ex.ranks(),
                    &PanelColView(c),
                    self.drift_ref[c],
                );
            }

            // Stage 3: per-column records and verdicts; a column with a
            // verdict drops out.
            for c in 0..k {
                if self.cols[c].run.done {
                    continue;
                }
                let bd = self.col_boundary(c, s, last);
                let ex = &mut self.ex;
                let done = self.cols[c].run.apply(
                    &self.opts,
                    &bd,
                    self.col_norms[c],
                    self.col_verified[c],
                    || nudge_all(ex.ranks_mut().iter_mut().map(|r| r.col_mut(c))),
                );
                if done {
                    self.finish_col(c);
                }
            }
        }
        if self.step >= self.opts.max_steps {
            for c in 0..k {
                if !self.cols[c].run.done {
                    self.finish_col(c);
                }
            }
        }
        self.all_done()
    }

    /// Closes the panel: one [`DistReport`] per column (records, verdicts,
    /// monitor stats, and recovery deltas are per-column; the run-level
    /// communication stats are the *panel's* — shared across the batch,
    /// which is the whole point), then adopts the **last** column's solver
    /// state into `session` so subsequent scalar solves warm-start from
    /// the panel's final solution.
    pub(crate) fn finish_into(&mut self, session: &mut SolveSession<R>) -> Vec<DistReport> {
        let k = self.bs.len();
        for c in 0..k {
            if !self.cols[c].run.done {
                self.finish_col(c);
            }
        }
        let panel_stats = self.ex.stats.take_epoch();
        let mut reports = Vec::with_capacity(k);
        for c in 0..k {
            let recovery = recovery_totals(self.ex.ranks().iter().map(|r| r.col(c)));
            let col = &mut self.cols[c];
            reports.push(col.run.report(
                self.method,
                panel_stats.clone(),
                std::mem::take(&mut col.monitor.stats),
                col.x.take().expect("finished column has a gathered x"),
                recovery,
            ));
        }

        // Adoption: swap the last column into the session's ranks and
        // re-seed estimates by the exact exchange (Δb = 0), exactly like a
        // changed-b warm start — the session's previous state is the
        // panel's base, so its in-flight messages are superseded.
        session.b.copy_from_slice(&self.bs[k - 1]);
        session.delta_b.fill(0.0);
        for (p, sr) in session.ex.ranks_mut().iter_mut().enumerate() {
            std::mem::swap(sr, self.ex.ranks_mut()[p].col_mut(k - 1));
            session.norms_sq[p] = sr.reseed_rhs(&session.delta_b);
        }
        for sr in session.ex.ranks_mut() {
            sr.reseed_estimates(&session.norms_sq);
        }
        session.ex.discard_in_flight();
        session.state.done = true;
        reports
    }
}
