//! Tables 2, 3, and 4: the full-suite comparison of Block Jacobi,
//! Parallel Southwell, and Distributed Southwell at a fixed rank count.
//!
//! One 50-step run per (matrix, method) — no early stopping, no divergence
//! cutoff, exactly like the paper's sweeps — feeds all three tables:
//!
//! * **Table 2**: wall-clock time, communication cost, parallel steps,
//!   relaxations/n, and active-process fraction to reach ‖r‖₂ = 0.1
//!   (log-interpolated; `†` if never reached in 50 steps),
//! * **Table 3**: the communication cost split into solve messages and
//!   explicit residual updates,
//! * **Table 4**: mean wall-clock time and communication cost per parallel
//!   step over the 50 steps.

use crate::harness::{fmt_or_dagger, setup_problem, suite_partition, write_csv, ExperimentCtx};
use dsw_core::dist::{run_method, DistOptions, DistReport, Method};
use dsw_rma::CommClass;
use dsw_sparse::suite::suite;

/// The three methods of the comparison, in the paper's column order.
pub const METHODS: [Method; 3] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::DistributedSouthwell,
];

/// All runs for one matrix.
pub struct SuiteRun {
    /// Matrix name.
    pub name: &'static str,
    /// Rows.
    pub n: usize,
    /// Reports in [`METHODS`] order.
    pub reports: Vec<DistReport>,
}

/// Runs the full suite (one 50-step run per matrix and method).
pub fn suite_runs(ctx: &ExperimentCtx) -> Vec<SuiteRun> {
    let p = ctx.scaled_ranks();
    let mut out = Vec::new();
    for e in suite() {
        let a = ctx.build_suite_matrix(&e);
        let prob = setup_problem(a, 0xD15C0 + e.paper_nnz);
        let part = suite_partition(&prob.a, p, 1);
        let opts = DistOptions {
            max_steps: ctx.max_steps,
            target_residual: None,
            divergence_cutoff: None,
            ..DistOptions::default()
        };
        let reports = METHODS
            .iter()
            .map(|&m| run_method(m, &prob.a, &prob.b, &prob.x0, &part, &opts))
            .collect();
        out.push(SuiteRun {
            name: e.name,
            n: prob.n(),
            reports,
        });
    }
    out
}

/// Prints Table 2 from the shared runs.
pub fn table2(ctx: &ExperimentCtx, runs: &[SuiteRun]) {
    const TARGET: f64 = 0.1;
    println!(
        "\n=== table2 — reaching ‖r‖₂ = {TARGET} with {} ranks (BJ | PS | DS) ===",
        ctx.scaled_ranks()
    );
    println!(
        "{:<12} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "matrix", "t_BJ", "t_PS", "t_DS", "c_BJ", "c_PS", "c_DS", "s_BJ", "s_PS", "s_DS",
        "rx_BJ", "rx_PS", "rx_DS", "a_BJ", "a_PS", "a_DS"
    );
    let mut rows = Vec::new();
    for run in runs {
        let t: Vec<Option<f64>> = run
            .reports
            .iter()
            .map(|r| r.time_to_reach(TARGET))
            .collect();
        let c: Vec<Option<f64>> = run
            .reports
            .iter()
            .map(|r| r.comm_to_reach(TARGET))
            .collect();
        let s: Vec<Option<f64>> = run
            .reports
            .iter()
            .map(|r| r.steps_to_reach(TARGET))
            .collect();
        let rx: Vec<Option<f64>> = run
            .reports
            .iter()
            .map(|r| r.relaxations_to_reach(TARGET))
            .collect();
        let act: Vec<Option<f64>> = run
            .reports
            .iter()
            .zip(&s)
            .map(|(r, reached)| reached.map(|_| r.active_fraction()))
            .collect();
        println!(
            "{:<12} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
            run.name,
            fmt_or_dagger(t[0].map(|v| v * 1e3), 2),
            fmt_or_dagger(t[1].map(|v| v * 1e3), 2),
            fmt_or_dagger(t[2].map(|v| v * 1e3), 2),
            fmt_or_dagger(c[0], 1),
            fmt_or_dagger(c[1], 1),
            fmt_or_dagger(c[2], 1),
            fmt_or_dagger(s[0], 1),
            fmt_or_dagger(s[1], 1),
            fmt_or_dagger(s[2], 1),
            fmt_or_dagger(rx[0], 2),
            fmt_or_dagger(rx[1], 2),
            fmt_or_dagger(rx[2], 2),
            fmt_or_dagger(act[0], 3),
            fmt_or_dagger(act[1], 3),
            fmt_or_dagger(act[2], 3),
        );
        for (i, m) in METHODS.iter().enumerate() {
            rows.push(vec![
                run.name.to_string(),
                m.label().to_string(),
                fmt_or_dagger(t[i], 6),
                fmt_or_dagger(c[i], 3),
                fmt_or_dagger(s[i], 3),
                fmt_or_dagger(rx[i], 3),
                fmt_or_dagger(act[i], 4),
            ]);
        }
    }
    println!("(t in modelled milliseconds; c = messages/rank; s = parallel steps;");
    println!(" rx = relaxations/n; a = mean active-process fraction; † = not reached in 50 steps)");
    write_csv(
        &ctx.out_dir,
        "table2",
        &[
            "matrix",
            "method",
            "time_s",
            "comm_cost",
            "parallel_steps",
            "relaxations_per_n",
            "active_fraction",
        ],
        &rows,
    );
}

/// One method's Table 3 cells: solve/residual message costs, then the
/// matching per-class byte volumes (`None` = target never reached).
type Table3Cells = (Option<f64>, Option<f64>, Option<f64>, Option<f64>);

/// Prints Table 3 (communication breakdown to the 0.1 target).
pub fn table3(ctx: &ExperimentCtx, runs: &[SuiteRun]) {
    const TARGET: f64 = 0.1;
    println!("\n=== table3 — communication breakdown to ‖r‖₂ = {TARGET} (PS vs DS) ===");
    println!(
        "{:<12} | {:>10} {:>10} | {:>10} {:>10}",
        "matrix", "solve PS", "solve DS", "res PS", "res DS"
    );
    let mut rows = Vec::new();
    for run in runs {
        // PS is index 1, DS index 2 in METHODS order. Messages carry the
        // paper's cost metric; the per-class byte columns record the
        // modelled payload volume behind those messages.
        let vals: Vec<Table3Cells> = [1usize, 2]
            .iter()
            .map(|&i| {
                let r = &run.reports[i];
                let p = r.nranks as f64;
                let solve = crossing_of(r, TARGET, |rec| rec.msgs_solve as f64 / p);
                let res = crossing_of(r, TARGET, |rec| rec.msgs_residual as f64 / p);
                let solve_b = bytes_crossing_of(r, TARGET, CommClass::Solve);
                let res_b = bytes_crossing_of(r, TARGET, CommClass::Residual);
                (solve, res, solve_b, res_b)
            })
            .collect();
        println!(
            "{:<12} | {:>10} {:>10} | {:>10} {:>10}",
            run.name,
            fmt_or_dagger(vals[0].0, 3),
            fmt_or_dagger(vals[1].0, 3),
            fmt_or_dagger(vals[0].1, 3),
            fmt_or_dagger(vals[1].1, 3),
        );
        for (k, &i) in [1usize, 2].iter().enumerate() {
            rows.push(vec![
                run.name.to_string(),
                run.reports[i].method.label().to_string(),
                fmt_or_dagger(vals[k].0, 4),
                fmt_or_dagger(vals[k].1, 4),
                fmt_or_dagger(vals[k].2, 4),
                fmt_or_dagger(vals[k].3, 4),
            ]);
        }
    }
    write_csv(
        &ctx.out_dir,
        "table3",
        &[
            "matrix",
            "method",
            "solve_comm",
            "res_comm",
            "solve_bytes",
            "res_bytes",
        ],
        &rows,
    );
}

/// Prints Table 4 (mean per-step cost over the 50-step run).
pub fn table4(ctx: &ExperimentCtx, runs: &[SuiteRun]) {
    println!(
        "\n=== table4 — mean per-parallel-step cost over {} steps (BJ | PS | DS) ===",
        ctx.max_steps
    );
    println!(
        "{:<12} | {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "matrix", "t_BJ(ms)", "t_PS(ms)", "t_DS(ms)", "c_BJ", "c_PS", "c_DS"
    );
    let mut rows = Vec::new();
    for run in runs {
        let mt: Vec<f64> = run
            .reports
            .iter()
            .map(|r| {
                let steps = (r.records.len() - 1).max(1) as f64;
                r.records.last().unwrap().time / steps
            })
            .collect();
        let mc: Vec<f64> = run
            .reports
            .iter()
            .map(|r| {
                let steps = (r.records.len() - 1).max(1) as f64;
                r.records.last().unwrap().msgs as f64 / r.nranks as f64 / steps
            })
            .collect();
        println!(
            "{:<12} | {:>9.4} {:>9.4} {:>9.4} | {:>8.3} {:>8.3} {:>8.3}",
            run.name,
            mt[0] * 1e3,
            mt[1] * 1e3,
            mt[2] * 1e3,
            mc[0],
            mc[1],
            mc[2]
        );
        for (i, m) in METHODS.iter().enumerate() {
            rows.push(vec![
                run.name.to_string(),
                m.label().to_string(),
                format!("{:.6e}", mt[i]),
                format!("{:.4}", mc[i]),
            ]);
        }
    }
    write_csv(
        &ctx.out_dir,
        "table4",
        &[
            "matrix",
            "method",
            "mean_step_time_s",
            "mean_step_comm_cost",
        ],
        &rows,
    );
}

/// Crossing helper over an arbitrary cumulative x-axis.
fn crossing_of(
    r: &DistReport,
    target: f64,
    f: impl Fn(&dsw_core::dist::StepRecord) -> f64,
) -> Option<f64> {
    dsw_core::history::interpolate_crossing(
        r.records.iter().map(|rec| (f(rec), rec.residual_norm)),
        target,
    )
}

/// Per-rank payload bytes of `class` expended to reach `target`. Record
/// `i` is the prefix sum of the first `i` step tables, so the per-class
/// byte volume at each record is rebuilt from `r.stats.steps`.
fn bytes_crossing_of(r: &DistReport, target: f64, class: CommClass) -> Option<f64> {
    assert_eq!(
        r.records.len(),
        r.stats.steps.len() + 1,
        "one record per step"
    );
    let p = r.nranks as f64;
    let mut bytes = 0;
    let per_record = std::iter::once(0).chain(r.stats.steps.iter().map(|s| {
        bytes += s.bytes.of(class);
        bytes
    }));
    dsw_core::history::interpolate_crossing(
        per_record
            .zip(&r.records)
            .map(|(b, rec)| (b as f64 / p, rec.residual_norm)),
        target,
    )
}

/// Convenience entry points (each recomputes the shared runs).
pub fn run_table2(ctx: &ExperimentCtx) -> Vec<SuiteRun> {
    let runs = suite_runs(ctx);
    table2(ctx, &runs);
    runs
}

/// Table 3 entry point.
pub fn run_table3(ctx: &ExperimentCtx) -> Vec<SuiteRun> {
    let runs = suite_runs(ctx);
    table3(ctx, &runs);
    runs
}

/// Table 4 entry point.
pub fn run_table4(ctx: &ExperimentCtx) -> Vec<SuiteRun> {
    let runs = suite_runs(ctx);
    table4(ctx, &runs);
    runs
}
