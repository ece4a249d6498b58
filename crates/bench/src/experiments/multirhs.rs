//! Fused multi-RHS panel study (beyond the paper's tables): one tenant's
//! batch of `k` right-hand sides solved as a fused panel versus `k`
//! sequential warm-started solves.
//!
//! Both sides run the §4.2 serve workload — the 64-rank unit-diagonal
//! Poisson system of [`serve_problem`], warmed by one untimed priming
//! solve, then `k` drifted right-hand sides per timed window. The
//! sequential side is [`solve_many`]: each rhs re-seeds the session and
//! runs to its own verdict, paying the full superstep cadence (epoch
//! close, monitor boundary, per-put routing) `k` separate times. The
//! fused side is [`solve_panel`]: one executor of `k`-column panel ranks
//! relaxes every column per sweep, packs all columns' puts into one
//! message per (edge, class), and verifies convergence with one blocked
//! SpMV across the columns that need it — so the per-superstep fixed
//! costs and the per-message α amortize `k`-fold while each column's
//! trajectory stays bit-identical to its scalar solve (pinned by the
//! `multirhs` proptests).
//!
//! Messages are the paper's metric, so the table reconciles them
//! directly: `seq_msgs_per_rank` sums the `k` scalar solves,
//! `fused_msgs_per_rank` is the panel's shared count, and the gate
//! requires the ratio ≥ [`GATE_MSG_REDUCTION`] at `k =` [`GATE_K`]
//! alongside a solves/sec speedup ≥ [`GATE_SPEEDUP`].
//!
//! [`serve_problem`]: super::serve::serve_problem
//! [`solve_many`]: dsw_core::dist::Session::solve_many
//! [`solve_panel`]: dsw_core::dist::Session::solve_panel

use super::serve::{serve_opts, serve_problem, tenant_rhs, RANKS};
use crate::harness::{write_csv, ExperimentCtx};
use dsw_core::dist::{Method, TenantSession};
use std::time::Instant;

/// Panel widths swept by the study.
pub const KS: [usize; 3] = [4, 8, 16];

/// The gated panel width.
pub const GATE_K: usize = 8;

/// Full-run CI gate: fused solves/sec ≥ this multiple of sequential at
/// `k =` [`GATE_K`].
pub const GATE_SPEEDUP: f64 = 2.0;

/// Quick-mode (CI) gate on the same ratio — looser because quick mode
/// runs one window on shared runners.
pub const GATE_SPEEDUP_QUICK: f64 = 1.5;

/// CI gate: sequential msgs/rank must be at least this multiple of the
/// fused panel's at `k =` [`GATE_K`].
pub const GATE_MSG_REDUCTION: f64 = 3.0;

/// Timed windows per point: each window draws `k` fresh drifted
/// right-hand sides and both sides continue from their previous window's
/// final state, so the measurement stays in the warm steady state the
/// serving layer cares about.
pub const WINDOWS: usize = 3;

/// The gate's method, matching the serve bench: Block Jacobi's short
/// convergence tail keeps the measurement on the batching layer instead
/// of the solver's input-sensitive asymptotics. Distributed Southwell is
/// recorded alongside, ungated.
pub const GATE_METHOD: Method = Method::BlockJacobi;

/// One (method, k) point of the multi-RHS sweep.
pub struct MultiRhsRow {
    /// The solver both sides run.
    pub method: Method,
    /// Panel width (right-hand sides per batch).
    pub k: usize,
    /// Fused-panel throughput, solves/sec.
    pub fused_solves_per_sec: f64,
    /// Sequential warm-started throughput, solves/sec.
    pub seq_solves_per_sec: f64,
    /// `fused / seq` throughput ratio.
    pub speedup: f64,
    /// Panel messages per rank over the timed windows.
    pub fused_msgs_per_rank: f64,
    /// Summed scalar-solve messages per rank over the same windows.
    pub seq_msgs_per_rank: f64,
    /// `seq / fused` message ratio.
    pub msg_reduction: f64,
    /// Panel wire bytes per rank (headers + tags + payloads).
    pub fused_bytes_per_rank: f64,
    /// Summed scalar wire bytes per rank.
    pub seq_bytes_per_rank: f64,
    /// Fused supersteps over the windows (the panel runs to the slowest
    /// column's verdict).
    pub fused_steps: u64,
    /// Summed sequential supersteps over the windows.
    pub seq_steps: u64,
}

/// The drifted batch for window `w`: `k` right-hand sides that differ
/// from each other and from the previous window's final solution, so
/// both sides do real warm-restart work on every column.
fn window_rhs(n: usize, w: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k).map(|c| tenant_rhs(n, w * k + c, 1 + c)).collect()
}

/// Measures one (method, k) point: two identically-primed sessions, one
/// timed on `solve_many`, the other on `solve_panel`, over [`WINDOWS`]
/// batches of `k` drifted right-hand sides.
pub fn run_point(method: Method, k: usize, windows: usize) -> MultiRhsRow {
    let (a, _b, x0, part) = serve_problem();
    let n = a.nrows();
    let opts = serve_opts();
    let prime = tenant_rhs(n, 0, 0);

    let mut seq = TenantSession::build(method, &a, &prime, &x0, &part, &opts, None);
    seq.solve(&prime);
    let mut fused = TenantSession::build(method, &a, &prime, &x0, &part, &opts, None);
    fused.solve(&prime);

    // One untimed warmup window per side (criterion-style): the first
    // fused window grows the panel's staging, scratch, and executor
    // buffers from cold; the steady state is what a serving layer sees.
    let warm = window_rhs(n, windows, k);
    let _ = seq.solve_many(&warm);
    let _ = fused.solve_panel(&warm, None);

    let mut seq_secs = 0.0;
    let mut fused_secs = 0.0;
    let mut seq_msgs = 0u64;
    let mut fused_msgs = 0u64;
    let mut seq_bytes = 0u64;
    let mut fused_bytes = 0u64;
    let mut seq_steps = 0u64;
    let mut fused_steps = 0u64;
    for w in 0..windows {
        let bs = window_rhs(n, w, k);

        let t0 = Instant::now();
        let reports = seq.solve_many(&bs);
        seq_secs += t0.elapsed().as_secs_f64();
        for r in &reports {
            seq_msgs += r.stats.total_msgs();
            seq_bytes += r.stats.total_bytes();
            seq_steps += r.stats.nsteps() as u64;
        }

        let t0 = Instant::now();
        let reports = fused.solve_panel(&bs, None);
        fused_secs += t0.elapsed().as_secs_f64();
        // Panel communication stats are shared across the batch — every
        // column's report carries the same run-level counters, so charge
        // them once per window, not once per column.
        let shared = &reports[0].stats;
        fused_msgs += shared.total_msgs();
        fused_bytes += shared.total_bytes();
        fused_steps += shared.nsteps() as u64;
    }

    let solves = (windows * k) as f64;
    let fused_sps = solves / fused_secs;
    let seq_sps = solves / seq_secs;
    MultiRhsRow {
        method,
        k,
        fused_solves_per_sec: fused_sps,
        seq_solves_per_sec: seq_sps,
        speedup: fused_sps / seq_sps,
        fused_msgs_per_rank: fused_msgs as f64 / RANKS as f64,
        seq_msgs_per_rank: seq_msgs as f64 / RANKS as f64,
        msg_reduction: seq_msgs as f64 / (fused_msgs as f64).max(1.0),
        fused_bytes_per_rank: fused_bytes as f64 / RANKS as f64,
        seq_bytes_per_rank: seq_bytes as f64 / RANKS as f64,
        fused_steps,
        seq_steps,
    }
}

/// Runs the sweep and writes `results/multirhs.csv`: the gate method at
/// every `k` in [`KS`], plus one Distributed Southwell point at
/// [`GATE_K`] for paper fidelity.
pub fn run_multirhs(ctx: &ExperimentCtx) -> Vec<MultiRhsRow> {
    let mut rows: Vec<MultiRhsRow> = KS
        .iter()
        .map(|&k| run_point(GATE_METHOD, k, WINDOWS))
        .collect();
    rows.push(run_point(Method::DistributedSouthwell, GATE_K, WINDOWS));

    println!(
        "\n=== multirhs — fused k-column panels vs k sequential warm solves \
         ({RANKS} ranks, {WINDOWS} windows) ==="
    );
    println!(
        "{:>6} {:>4} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>10} {:>10}",
        "method",
        "k",
        "fused s/s",
        "seq s/s",
        "speedup",
        "fused m/r",
        "seq m/r",
        "msg red",
        "fused st",
        "seq st"
    );
    let mut csv = Vec::new();
    for row in &rows {
        println!(
            "{:>6} {:>4} {:>11.1} {:>11.1} {:>7.2}x {:>11.1} {:>11.1} {:>7.2}x {:>10} {:>10}",
            row.method.label(),
            row.k,
            row.fused_solves_per_sec,
            row.seq_solves_per_sec,
            row.speedup,
            row.fused_msgs_per_rank,
            row.seq_msgs_per_rank,
            row.msg_reduction,
            row.fused_steps,
            row.seq_steps
        );
        csv.push(vec![
            row.method.label().to_string(),
            row.k.to_string(),
            format!("{:.2}", row.fused_solves_per_sec),
            format!("{:.2}", row.seq_solves_per_sec),
            format!("{:.3}", row.speedup),
            format!("{:.1}", row.fused_msgs_per_rank),
            format!("{:.1}", row.seq_msgs_per_rank),
            format!("{:.3}", row.msg_reduction),
            format!("{:.1}", row.fused_bytes_per_rank),
            format!("{:.1}", row.seq_bytes_per_rank),
            row.fused_steps.to_string(),
            row.seq_steps.to_string(),
        ]);
    }
    write_csv(
        &ctx.out_dir,
        "multirhs",
        &[
            "method",
            "k",
            "fused_solves_per_sec",
            "seq_solves_per_sec",
            "speedup",
            "fused_msgs_per_rank",
            "seq_msgs_per_rank",
            "msg_reduction",
            "fused_bytes_per_rank",
            "seq_bytes_per_rank",
            "fused_steps",
            "seq_steps",
        ],
        &csv,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_mechanics_are_sane() {
        // One tiny window pins the accounting (counters populated, msgs
        // strictly reduced, both sides complete), not the throughput gate
        // — that is CI's bench gate on `BENCH_multirhs.json`.
        let row = run_point(GATE_METHOD, 4, 1);
        assert_eq!(row.k, 4);
        assert!(row.fused_solves_per_sec > 0.0);
        assert!(row.seq_solves_per_sec > 0.0);
        assert!(row.fused_msgs_per_rank > 0.0);
        assert!(
            row.msg_reduction > 1.0,
            "fusing must reduce messages: {:.2}x",
            row.msg_reduction
        );
        assert!(
            row.fused_steps < row.seq_steps,
            "the panel runs to the slowest column, not the sum"
        );
    }
}
