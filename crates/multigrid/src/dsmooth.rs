//! Row-granular Distributed Southwell on the distributed substrate — the
//! multigrid smoother of §4.1 run as a real message-passing program.
//!
//! The scalar reference
//! (`dsw_core::scalar::distributed_southwell_scalar`) plays every row as
//! its own process inside one address space. Here the level's rows are
//! partitioned over ranks: each rank owns a contiguous row range, the
//! per-directed-edge estimates `z(i→j)` / `t(i→j)` of the rows it owns,
//! and runs the same selection / relaxation / deadlock-avoidance protocol
//! with every cross-rank interaction as an executor `put`
//! (`CommClass::Solve` for relaxation records, `CommClass::Residual` for
//! the explicit deadlock-avoidance updates).
//!
//! # Bit-identity to the scalar reference
//!
//! The contract (and the `dist_vcycle_matches_scalar` proptests) is that
//! a smoothing pass is **bit-identical** to the scalar routine for any
//! partition and any [`ExecMode`]. Three mechanisms carry that:
//!
//! * **Three executor steps per logical DS step.** `SELECT` applies the
//!   previous step's explicit residual updates and selects against local
//!   estimates; the *driver* then enforces the exact relaxation budget
//!   (below); `RELAX` applies the chosen rows and sends relaxation
//!   records; `DELIVER` applies them and runs the phase-B deadlock scan.
//!   One-sided epoch visibility (puts land next step) matches the scalar
//!   routine's "decide everything, then deliver" structure exactly.
//! * **Driver-mediated budget.** The scalar routine subsamples an
//!   over-budget final step with one shared `StdRng`. A rank cannot do
//!   that locally, so the driver gathers the per-rank selections between
//!   `SELECT` and `RELAX` (rank order = ascending row order, so the
//!   concatenation equals the scalar `selected` vector), shuffles with
//!   the same seed, and writes each rank's allowance back.
//! * **Origin-sorted residual merges.** The scalar routine applies
//!   `r_j −= a_ij·δ_i` in ascending-`i` order. Every relaxation's
//!   contributions (local ones included, the diagonal included) are
//!   therefore *staged* as `(origin, target, value)` records and applied
//!   only in `DELIVER`, merged with the inbox and sorted by origin row —
//!   the floating-point sum order is the scalar one regardless of how
//!   many ranks the contributions crossed.
//!
//! The estimate-layer writes need no such care: each directed edge's
//! slots are written by at most one party per step, and the scalar
//! routine's read/write sets are disjoint by the `sent_b` guard (see
//! `southwell_dist.rs`), so delivery order cannot change them.
//!
//! Smoothing setup (scattering `x` and the exact residual, reseeding the
//! edge estimates) goes through `ranks_mut` out of band — it is the
//! paper's "setup exchange", not counted, exactly like the scalar
//! routine's `EdgeState::new` and the driver's `distribute`.

use dsw_partition::Partition;
use dsw_rma::{CommClass, CostModel, Envelope, ExecMode, Executor, PhaseCtx, RankAlgorithm};
use dsw_sparse::{vecops, CsrMatrix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Arc;

use crate::MultigridError;

/// Modelled payload bytes of one relaxation / residual-update record: two
/// `u32` row ids and two `f64` values.
const REC_BYTES: u64 = 24;

/// `true` if the owner of `mine` wins the Southwell selection against a
/// neighbor of magnitude `theirs` (rank-id tie-break) — the scalar
/// `beats` criterion, restated here verbatim.
#[inline]
fn beats(mine: f64, my_idx: usize, theirs: f64, their_idx: usize) -> bool {
    mine > theirs || (mine == theirs && my_idx < their_idx)
}

/// One relaxation's effect on one row: `r[target] −= value`, plus the
/// sender's refined estimate for the receiver's edge bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct RelaxRec {
    /// The relaxed row `i`.
    pub origin: u32,
    /// The row `j` whose residual the relaxation touches (`j == i` for
    /// the diagonal contribution).
    pub target: u32,
    /// `a_ij · δ_i`, to be subtracted from `r_j`.
    pub value: f64,
    /// `z(i→j)` after the sender's refinement pass — the estimate the
    /// message piggybacks (unused on diagonal records).
    pub z_est: f64,
}

/// One explicit residual update (phase B): row `i` tells `j` its exact
/// residual because `j` overestimates it.
#[derive(Debug, Clone, Copy)]
pub struct ResRec {
    /// The correcting row `i`.
    pub origin: u32,
    /// The deadlock-prone neighbor `j`.
    pub target: u32,
    /// Signed `r_i` after phase A.
    pub r_i: f64,
    /// `z(i→j)` at decision time, piggybacked for `j`'s `Γ̃` record.
    pub z_est: f64,
}

/// Messages between smoother ranks: a batch of relaxation records or a
/// batch of explicit residual updates, one put per (origin rank, target
/// rank) pair per step.
#[derive(Debug, Clone)]
pub enum DsSmootherMsg {
    /// Phase-A relaxation records (`CommClass::Solve`).
    Relax(Vec<RelaxRec>),
    /// Phase-B explicit residual updates (`CommClass::Residual`).
    Res(Vec<ResRec>),
}

/// The executor stage within one logical DS step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Select,
    Relax,
    Deliver,
}

/// One rank of the row-granular DS smoother: a contiguous row range of
/// the level grid plus the directed-edge estimate layer of those rows.
pub struct DsSmootherRank {
    rank: usize,
    a: Arc<CsrMatrix>,
    /// Global row → owner rank (the level partition's assignment).
    owner: Arc<Vec<usize>>,
    /// Owned global rows (contiguous).
    rows: Range<usize>,
    /// CSR position of the first owned entry; owned edge `k` lives at
    /// local index `k − edge_base`.
    edge_base: usize,
    /// Owned slices of the iterate and true residual.
    x: Vec<f64>,
    r: Vec<f64>,
    /// `z[k]`: this row's signed estimate of its neighbor's residual.
    z: Vec<f64>,
    /// `t[k]`: this row's record of what the neighbor believes about it.
    t: Vec<f64>,
    /// Neighbor ranks (owners of any off-rank neighbor row), sorted.
    neighbors: Vec<usize>,
    /// Rows passing local selection this step (ascending).
    selected: Vec<usize>,
    /// Post-budget allowance (ascending; written by the driver when the
    /// global selection exceeds the remaining budget).
    allowed: Vec<usize>,
    /// Relaxation deltas for `allowed`, snapshotted before any update.
    deltas: Vec<f64>,
    /// Locally-targeted relaxation records, deferred to `DELIVER` so the
    /// merge with remote records can replay the scalar update order.
    staged: Vec<RelaxRec>,
    /// Record-merge scratch.
    merge: Vec<RelaxRec>,
    /// CSR edge positions that sent an explicit residual update in the
    /// last `DELIVER` (sorted) — the receiver-side guard for crossing
    /// updates, consumed at the next `SELECT`.
    sent_b: Vec<usize>,
    /// Per-neighbor outgoing record batches (scratch, index-aligned with
    /// `neighbors`).
    out_relax: Vec<Vec<RelaxRec>>,
    out_res: Vec<Vec<ResRec>>,
    stage: Stage,
}

impl DsSmootherRank {
    /// Builds the rank set for `a` under `partition`. Requires every part
    /// to be a nonempty contiguous row range in ascending part order (the
    /// strip/agglomerated layout), so that concatenating per-rank state
    /// in rank order reproduces global row order.
    pub fn build(
        a: &Arc<CsrMatrix>,
        partition: &Partition,
    ) -> Result<Vec<DsSmootherRank>, MultigridError> {
        let ranges = contiguous_ranges(partition)?;
        let owner = Arc::new(partition.assignment().to_vec());
        let mut ranks = Vec::with_capacity(ranges.len());
        for (p, rows) in ranges.into_iter().enumerate() {
            let edge_base = a.row_ptr()[rows.start];
            let nedges = a.row_ptr()[rows.end] - edge_base;
            let mut neighbors: Vec<usize> = Vec::new();
            for i in rows.clone() {
                for &j in a.row_cols(i) {
                    let q = owner[j];
                    if q != p {
                        neighbors.push(q);
                    }
                }
            }
            neighbors.sort_unstable();
            neighbors.dedup();
            let nn = neighbors.len();
            let nrows = rows.len();
            ranks.push(DsSmootherRank {
                rank: p,
                a: Arc::clone(a),
                owner: Arc::clone(&owner),
                rows,
                edge_base,
                x: vec![0.0; nrows],
                r: vec![0.0; nrows],
                z: vec![0.0; nedges],
                t: vec![0.0; nedges],
                neighbors,
                selected: Vec::new(),
                allowed: Vec::new(),
                deltas: Vec::new(),
                staged: Vec::new(),
                merge: Vec::new(),
                sent_b: Vec::new(),
                out_relax: (0..nn).map(|_| Vec::new()).collect(),
                out_res: (0..nn).map(|_| Vec::new()).collect(),
                stage: Stage::Select,
            });
        }
        Ok(ranks)
    }

    /// Out-of-band smoothing setup: adopts the owned slices of `x` and the
    /// exact residual `r`, reseeds every owned edge estimate from the
    /// exact neighbor residuals (the scalar `EdgeState::new` setup
    /// exchange), and resets the per-step protocol state.
    fn reseed(&mut self, x: &[f64], r: &[f64]) {
        self.x.copy_from_slice(&x[self.rows.clone()]);
        self.r.copy_from_slice(&r[self.rows.clone()]);
        for i in self.rows.clone() {
            let base = self.a.row_ptr()[i];
            for (off, &j) in self.a.row_cols(i).iter().enumerate() {
                if j == i {
                    continue;
                }
                let k = base + off - self.edge_base;
                self.z[k] = r[j];
                self.t[k] = r[i];
            }
        }
        self.selected.clear();
        self.allowed.clear();
        self.staged.clear();
        self.sent_b.clear();
        self.stage = Stage::Select;
    }

    /// The CSR position of edge `(i → j)` (both rows global, `i` owned).
    #[inline]
    fn edge_pos(&self, i: usize, j: usize) -> usize {
        let base = self.a.row_ptr()[i];
        let off = self
            .a
            .row_cols(i)
            .binary_search(&j)
            .expect("structurally symmetric matrix: reciprocal edge exists");
        base + off
    }

    #[inline]
    fn local_row(&self, i: usize) -> usize {
        i - self.rows.start
    }

    /// Neighbor-rank slot of rank `q`.
    #[inline]
    fn nb_slot(&self, q: usize) -> usize {
        self.neighbors
            .binary_search(&q)
            .expect("message target is a declared neighbor rank")
    }

    /// `SELECT`: apply the previous step's explicit residual updates,
    /// then select owned rows against the local estimates.
    fn run_select(&mut self, inbox: &[Envelope<DsSmootherMsg>]) {
        for env in inbox {
            if let DsSmootherMsg::Res(recs) = &env.payload {
                for rec in recs {
                    let (i, j) = (rec.origin as usize, rec.target as usize);
                    let k_ji = self.edge_pos(j, i);
                    self.z[k_ji - self.edge_base] = rec.r_i;
                    if self.sent_b.binary_search(&k_ji).is_err() {
                        self.t[k_ji - self.edge_base] = rec.z_est;
                    }
                }
            }
        }
        self.sent_b.clear();
        self.selected.clear();
        for i in self.rows.clone() {
            let mine = self.r[self.local_row(i)].abs();
            if mine == 0.0 {
                continue;
            }
            let base = self.a.row_ptr()[i];
            let mut wins = true;
            for (off, &j) in self.a.row_cols(i).iter().enumerate() {
                if j != i {
                    let theirs = self.z[base + off - self.edge_base].abs();
                    if !beats(mine, i, theirs, j) {
                        wins = false;
                        break;
                    }
                }
            }
            if wins {
                self.selected.push(i);
            }
        }
        // Default allowance: the full selection. The driver overwrites it
        // before `RELAX` when the global selection exceeds the budget.
        self.allowed.clear();
        self.allowed.extend_from_slice(&self.selected);
    }

    /// `RELAX`: apply the allowed rows (deltas snapshotted first), refine
    /// the sender-side estimates, and stage/send every residual
    /// contribution as an origin-tagged record.
    fn run_relax(&mut self, ctx: &mut PhaseCtx<DsSmootherMsg>) {
        self.staged.clear();
        for out in &mut self.out_relax {
            out.clear();
        }
        if self.allowed.is_empty() {
            return;
        }
        self.deltas.clear();
        for &i in &self.allowed {
            let li = self.local_row(i);
            self.deltas.push(self.r[li] / self.a.get(i, i));
        }
        // Update pass: iterates and the sender-side estimate refinement
        // (`z −= a_ij·δ`, piggyback record `t = 0`). The owned residual
        // updates are NOT applied here — they are staged below so
        // `DELIVER` can merge them with remote contributions in global
        // origin order.
        let mut flops = 0u64;
        for (&i, &delta) in self.allowed.iter().zip(&self.deltas) {
            let li = self.local_row(i);
            self.x[li] += delta;
            let base = self.a.row_ptr()[i];
            for (off, &j) in self.a.row_cols(i).iter().enumerate() {
                if j == i {
                    continue;
                }
                let aij = self.a.row_values(i)[off];
                let k = base + off - self.edge_base;
                self.z[k] -= aij * delta;
                self.t[k] = 0.0;
            }
            flops += 2 * self.a.row_cols(i).len() as u64 + 1;
        }
        ctx.add_flops(flops);
        ctx.record_relaxations(self.allowed.len() as u64);
        // Record pass: every contribution `(i, j, a_ij·δ)` with the
        // post-refinement `z(i→j)` riding along, routed by `j`'s owner.
        for (&i, &delta) in self.allowed.iter().zip(&self.deltas) {
            let base = self.a.row_ptr()[i];
            for (off, &j) in self.a.row_cols(i).iter().enumerate() {
                let aij = self.a.row_values(i)[off];
                let rec = RelaxRec {
                    origin: i as u32,
                    target: j as u32,
                    value: aij * delta,
                    z_est: if j == i {
                        0.0
                    } else {
                        self.z[base + off - self.edge_base]
                    },
                };
                let q = self.owner[j];
                if q == self.rank {
                    self.staged.push(rec);
                } else {
                    let slot = self.nb_slot(q);
                    self.out_relax[slot].push(rec);
                }
            }
        }
        for (slot, &q) in self.neighbors.clone().iter().enumerate() {
            if !self.out_relax[slot].is_empty() {
                let recs = std::mem::take(&mut self.out_relax[slot]);
                let bytes = REC_BYTES * recs.len() as u64;
                ctx.put(q, CommClass::Solve, DsSmootherMsg::Relax(recs), bytes);
            }
        }
    }

    /// `DELIVER`: merge staged + inbox relaxation records in origin order
    /// and apply them, then run the phase-B deadlock scan against the
    /// post-phase-A state.
    fn run_deliver(
        &mut self,
        inbox: &[Envelope<DsSmootherMsg>],
        ctx: &mut PhaseCtx<DsSmootherMsg>,
    ) {
        self.merge.clear();
        self.merge.append(&mut self.staged);
        for env in inbox {
            if let DsSmootherMsg::Relax(recs) = &env.payload {
                self.merge.extend_from_slice(recs);
            }
        }
        // One record per directed (origin, target) pair, so this order is
        // total — and ascending origin replays the scalar update order
        // for every target row.
        self.merge
            .sort_unstable_by_key(|rec| (rec.origin, rec.target));
        for idx in 0..self.merge.len() {
            let rec = self.merge[idx];
            let (i, j) = (rec.origin as usize, rec.target as usize);
            let lj = self.local_row(j);
            self.r[lj] -= rec.value;
            if i != j {
                // Receiver-side estimate bookkeeping: the sender's view
                // of the receiver is the piggybacked 0; the receiver
                // adopts the sender's refined estimate only if it did not
                // relax itself this step.
                let k_ji = self.edge_pos(j, i) - self.edge_base;
                self.z[k_ji] = 0.0;
                if self.allowed.binary_search(&j).is_err() {
                    self.t[k_ji] = rec.z_est;
                }
            }
        }
        // ---- Phase B: deadlock detection, decided against the
        // post-phase-A state before any update is applied. ----
        self.sent_b.clear();
        for i in self.rows.clone() {
            let cur = self.r[self.local_row(i)].abs();
            let base = self.a.row_ptr()[i];
            for (off, &j) in self.a.row_cols(i).iter().enumerate() {
                if j != i && cur < self.t[base + off - self.edge_base].abs() {
                    self.sent_b.push(base + off);
                }
            }
        }
        for out in &mut self.out_res {
            out.clear();
        }
        for idx in 0..self.sent_b.len() {
            let k = self.sent_b[idx];
            let i = self
                .a
                .row_ptr()
                .partition_point(|&p| p <= k)
                .saturating_sub(1);
            let off = k - self.a.row_ptr()[i];
            let j = self.a.row_cols(i)[off];
            let cur = self.r[self.local_row(i)];
            let z_est = self.z[k - self.edge_base];
            self.t[k - self.edge_base] = cur;
            let q = self.owner[j];
            if q == self.rank {
                // Local delivery, guarded exactly like the scalar
                // routine: the reciprocal edge's own explicit update (if
                // any) supersedes the piggybacked estimate.
                let k_ji = self.edge_pos(j, i);
                self.z[k_ji - self.edge_base] = cur;
                if self.sent_b.binary_search(&k_ji).is_err() {
                    self.t[k_ji - self.edge_base] = z_est;
                }
            } else {
                let slot = self.nb_slot(q);
                self.out_res[slot].push(ResRec {
                    origin: i as u32,
                    target: j as u32,
                    r_i: cur,
                    z_est,
                });
            }
        }
        for (slot, &q) in self.neighbors.clone().iter().enumerate() {
            if !self.out_res[slot].is_empty() {
                let recs = std::mem::take(&mut self.out_res[slot]);
                let bytes = REC_BYTES * recs.len() as u64;
                ctx.put(q, CommClass::Residual, DsSmootherMsg::Res(recs), bytes);
            }
        }
    }
}

impl RankAlgorithm for DsSmootherRank {
    type Msg = DsSmootherMsg;

    fn phases(&self) -> usize {
        1
    }

    fn phase(
        &mut self,
        _phase: usize,
        inbox: &[Envelope<DsSmootherMsg>],
        ctx: &mut PhaseCtx<DsSmootherMsg>,
    ) {
        match self.stage {
            Stage::Select => {
                self.run_select(inbox);
                self.stage = Stage::Relax;
            }
            Stage::Relax => {
                self.run_relax(ctx);
                self.stage = Stage::Deliver;
            }
            Stage::Deliver => {
                self.run_deliver(inbox, ctx);
                self.stage = Stage::Select;
            }
        }
    }

    fn put_targets(&self) -> Vec<usize> {
        self.neighbors.clone()
    }
}

/// Validates that `partition` assigns contiguous, ascending, nonempty row
/// ranges (part `p` before part `p+1`) and returns them.
pub(crate) fn contiguous_ranges(
    partition: &Partition,
) -> Result<Vec<Range<usize>>, MultigridError> {
    let asg = partition.assignment();
    let nparts = partition.nparts();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(nparts);
    let mut row = 0usize;
    for p in 0..nparts {
        let start = row;
        while row < asg.len() && asg[row] == p {
            row += 1;
        }
        if row == start {
            return Err(MultigridError::Setup(format!(
                "level partition part {p} is empty or out of ascending order"
            )));
        }
        ranges.push(start..row);
    }
    if row != asg.len() {
        return Err(MultigridError::Setup(
            "level partition is not contiguous-ascending (strip/agglomerated layout required)"
                .to_string(),
        ));
    }
    Ok(ranges)
}

/// Per-pass statistics of a distributed DS smoothing application.
#[derive(Debug, Clone, Copy, Default)]
pub struct DsSmoothStats {
    /// Rows relaxed (equals the budget unless the residual hit zero).
    pub relaxations: u64,
    /// Logical DS steps (each is three executor supersteps).
    pub steps: u64,
    /// Relaxation-record messages (`CommClass::Solve` puts).
    pub solve_msgs: u64,
    /// Explicit residual-update messages (`CommClass::Residual` puts).
    pub res_msgs: u64,
    /// Total payload bytes across both classes.
    pub bytes: u64,
    /// The pass was cut short by the scalar routine's divergence guard.
    pub diverged: bool,
}

/// A persistent distributed DS smoother for one multigrid level: the
/// executor and rank state survive across smoothing applications; each
/// application reseeds out of band and then runs entirely on the
/// substrate.
pub struct DsLevelSmoother {
    ex: Executor<DsSmootherRank>,
    n: usize,
    /// Global residual gather scratch.
    r_scratch: Vec<f64>,
}

impl DsLevelSmoother {
    /// Builds the per-rank state for `a` under `partition` and wraps it
    /// in an executor (`mode` is the superstep scheduling mode; results
    /// are bit-identical across modes).
    pub fn new(
        a: &Arc<CsrMatrix>,
        partition: &Partition,
        mode: ExecMode,
        model: CostModel,
    ) -> Result<Self, MultigridError> {
        let ranks = DsSmootherRank::build(a, partition)?;
        let n = a.nrows();
        Ok(DsLevelSmoother {
            ex: Executor::new(ranks, model, mode),
            n,
            r_scratch: vec![0.0; n],
        })
    }

    /// Number of ranks smoothing this level.
    pub fn nranks(&self) -> usize {
        self.ex.nranks()
    }

    /// Assembles the global residual from the rank slices and returns its
    /// norm (same vector layout and summation order as the scalar
    /// routine's `residual_norm`).
    fn gather_r_norm(&mut self) -> f64 {
        for rank in self.ex.ranks() {
            self.r_scratch[rank.rows.clone()].copy_from_slice(&rank.r);
        }
        vecops::norm2(&self.r_scratch)
    }

    /// One smoothing pass of `A x = b` with an exact relaxation `budget`,
    /// bit-identical to `distributed_southwell_scalar` with
    /// `max_relaxations = budget`, `target_residual = None`, and
    /// `seed`. Harvests the executor stats accrued by the pass.
    pub fn smooth(
        &mut self,
        a: &CsrMatrix,
        b: &[f64],
        x: &mut [f64],
        budget: u64,
        seed: u64,
    ) -> DsSmoothStats {
        let mut stats = DsSmoothStats::default();
        if budget == 0 {
            return stats;
        }
        // Setup exchange (not counted): exact residual, scattered with
        // ghost values so every estimate starts exact.
        let r = a.residual(b, x);
        for rank in self.ex.ranks_mut() {
            rank.reseed(x, &r);
        }
        self.ex.discard_in_flight();
        let _ = self.ex.stats.take_epoch();
        let mut rng = StdRng::seed_from_u64(seed);
        let initial_norm = vecops::norm2(&r);
        let mut relaxations = 0u64;
        let mut all: Vec<usize> = Vec::new();
        // Hang guard only — the protocol's phase B guarantees progress,
        // and the scalar reference loops unboundedly on a positive
        // budget. Generous: every logical step either relaxes or resolves
        // at least one deadlocked edge.
        let max_logical_steps = 16 * (self.n as u64 + budget) + 64;
        loop {
            if relaxations >= budget {
                break;
            }
            if stats.steps >= max_logical_steps {
                debug_assert!(false, "DS smoother failed to make progress");
                break;
            }
            stats.steps += 1;
            self.ex.step(); // SELECT
            let remaining = (budget - relaxations) as usize;
            all.clear();
            for rank in self.ex.ranks() {
                all.extend_from_slice(&rank.selected);
            }
            if all.len() > remaining {
                // The scalar routine's exact-budget subsample, replayed
                // with the same RNG over the same (ascending) selection.
                all.shuffle(&mut rng);
                all.truncate(remaining);
                all.sort_unstable();
                let mut lo = 0usize;
                for rank in self.ex.ranks_mut() {
                    let hi = all.partition_point(|&i| i < rank.rows.end);
                    rank.allowed.clear();
                    rank.allowed.extend_from_slice(&all[lo..hi]);
                    lo = hi;
                }
                relaxations += all.len() as u64;
            } else {
                relaxations += all.len() as u64;
            }
            self.ex.step(); // RELAX
            self.ex.step(); // DELIVER
            let norm = self.gather_r_norm();
            if norm == 0.0 {
                break;
            }
            if !norm.is_finite() || norm > 1e12 * initial_norm.max(1e-300) {
                stats.diverged = true;
                break;
            }
        }
        for rank in self.ex.ranks() {
            x[rank.rows.clone()].copy_from_slice(&rank.x);
        }
        let epoch = self.ex.stats.take_epoch();
        stats.relaxations = relaxations;
        stats.solve_msgs = epoch.total_msgs_solve();
        stats.res_msgs = epoch.total_msgs_residual();
        stats.bytes = epoch.total_bytes();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsw_core::scalar::{distributed_southwell_scalar, ScalarOptions};
    use dsw_partition::partition_strip;
    use dsw_sparse::gen;

    fn smooth_pair(dim: usize, nparts: usize, budget: u64, seed: u64, mode: ExecMode) {
        let a = Arc::new(gen::grid2d_poisson(dim, dim));
        let n = a.nrows();
        let b = gen::random_rhs(n, seed ^ 0x5151);
        let x0 = gen::random_guess(n, seed ^ 0xA0A0);
        let part = partition_strip(n, nparts);
        let mut sm =
            DsLevelSmoother::new(&a, &part, mode, CostModel::default()).expect("valid level");
        let mut x = x0.clone();
        let stats = sm.smooth(&a, &b, &mut x, budget, seed);
        let opts = ScalarOptions {
            max_relaxations: budget,
            target_residual: None,
            record_stride: u64::MAX,
            seed,
        };
        let rep = distributed_southwell_scalar(&a, &b, &x0, &opts);
        assert_eq!(x, rep.x, "iterates must be bit-identical");
        assert_eq!(stats.relaxations, rep.history.total_relaxations);
        assert_eq!(stats.diverged, rep.diverged);
    }

    #[test]
    fn matches_scalar_reference_bitwise() {
        for &(dim, nparts) in &[(7usize, 1usize), (7, 3), (15, 4), (15, 7)] {
            for seed in [0u64, 1, 7] {
                let n = (dim * dim) as u64;
                smooth_pair(dim, nparts, n, seed, ExecMode::Sequential);
                smooth_pair(dim, nparts, n / 2, seed, ExecMode::Sequential);
            }
        }
    }

    #[test]
    fn threaded_mode_is_bit_identical_too() {
        smooth_pair(15, 4, 15 * 15, 3, ExecMode::Threaded(3));
        smooth_pair(15, 5, (15 * 15) / 2, 9, ExecMode::Threaded(2));
    }

    #[test]
    fn repeated_passes_reseed_cleanly() {
        // Two passes through one persistent smoother equal two fresh
        // scalar runs chained through the iterate.
        let a = Arc::new(gen::grid2d_poisson(9, 9));
        let n = a.nrows();
        let b = gen::random_rhs(n, 11);
        let part = partition_strip(n, 3);
        let mut sm =
            DsLevelSmoother::new(&a, &part, ExecMode::Sequential, CostModel::default()).unwrap();
        let mut x = vec![0.0; n];
        sm.smooth(&a, &b, &mut x, n as u64, 5);
        sm.smooth(&a, &b, &mut x, n as u64, 6);

        let opts = |seed| ScalarOptions {
            max_relaxations: n as u64,
            target_residual: None,
            record_stride: u64::MAX,
            seed,
        };
        let r1 = distributed_southwell_scalar(&a, &b, &vec![0.0; n], &opts(5));
        let r2 = distributed_southwell_scalar(&a, &b, &r1.x, &opts(6));
        assert_eq!(x, r2.x);
    }

    #[test]
    fn counts_messages_on_the_substrate() {
        let a = Arc::new(gen::grid2d_poisson(9, 9));
        let n = a.nrows();
        let b = gen::random_rhs(n, 2);
        let part = partition_strip(n, 3);
        let mut sm =
            DsLevelSmoother::new(&a, &part, ExecMode::Sequential, CostModel::default()).unwrap();
        let mut x = vec![0.0; n];
        let stats = sm.smooth(&a, &b, &mut x, n as u64, 1);
        assert!(stats.solve_msgs > 0, "cross-rank relaxations must message");
        assert!(stats.bytes > 0);
        // A single rank never messages.
        let part1 = partition_strip(n, 1);
        let mut sm1 =
            DsLevelSmoother::new(&a, &part1, ExecMode::Sequential, CostModel::default()).unwrap();
        let mut x1 = vec![0.0; n];
        let s1 = sm1.smooth(&a, &b, &mut x1, n as u64, 1);
        assert_eq!(s1.solve_msgs + s1.res_msgs, 0);
        assert_eq!(x, x1, "rank count must not change the iterate");
    }

    #[test]
    fn rejects_non_contiguous_partitions() {
        let a = Arc::new(gen::grid2d_poisson(3, 3));
        let scrambled = Partition::new(2, vec![0, 1, 0, 1, 0, 1, 0, 1, 0]);
        assert!(matches!(
            DsSmootherRank::build(&a, &scrambled),
            Err(MultigridError::Setup(_))
        ));
    }
}
