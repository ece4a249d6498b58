//! The tentpole comparison: what it costs to know the global residual at
//! every superstep.
//!
//! `*_step_exact` is one superstep plus the old monitor — gather the
//! distributed solution into a scratch vector, SpMV, norm: `O(n + nnz)`
//! work per step regardless of how many ranks are still active.
//! `*_step_maintained` is one superstep plus the incremental monitor —
//! sum two cached scalars per rank: `O(P)` work. Each pair runs on the
//! same problem, so the difference is purely the monitoring strategy;
//! this is the per-step cost the driver's `MonitorMode` selects between.
//!
//! The problem is the Southwell methods' motivating regime: a large
//! system (80³ Poisson, 512 000 rows, 3.5 M nonzeros, 512 ranks) whose
//! residual is concentrated in a small region — a 16³ cube of initial
//! error, the "local update after a localized change" scenario of §1 of
//! the paper. The Southwell selection keeps only the ranks near the
//! error front active (≈ 5–15 of 512 at steady state), so a superstep is
//! cheap — and the old exact monitor, which pays the full `O(n + nnz)`
//! gather + SpMV every step regardless of activity, dominates the wall
//! clock. That is precisely the overhead the tentpole removes.
//!
//! `eval_exact_512` / `eval_maintained_512` time the monitor calls alone
//! (no superstep) on two nnz sizes to expose the asymptotics directly:
//! the maintained cost depends only on `P`, the exact cost on `n + nnz`.

use criterion::{criterion_group, criterion_main, Criterion};
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, LocalSystem, MonitorCore,
    ParallelSouthwellRank,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CostModel, ExecMode, Executor, RankAlgorithm};
use dsw_sparse::{gen, CsrMatrix};

/// The monitor-bench problem: a `dim³` Poisson system over 512 ranks
/// with the initial error confined to a 16³ cube, so the Southwell
/// selection keeps activity local while the exact monitor still pays for
/// the whole system.
fn monitor_problem_512(dim: usize) -> (CsrMatrix, Vec<f64>, Vec<LocalSystem>, Vec<f64>, Vec<f64>) {
    let mut a = gen::grid3d_poisson(dim, dim, dim);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let full = gen::random_guess(n, 3);
    let mut x0 = vec![0.0; n];
    for z in 0..16 {
        for y in 0..16 {
            for x in 0..16 {
                let i = (z * dim + y) * dim + x;
                x0[i] = full[i];
            }
        }
    }
    let g = Graph::from_matrix(&a);
    let part = partition_multilevel(&g, 512, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    (a, b, locals, norms, r0)
}

/// Supersteps run before timing starts. The first steps of a run are
/// atypical (the seeded error has not yet shaped the activity pattern);
/// a long run spends almost all of its steps in the steady-state regime
/// the warm-up reaches, where the Southwell selection keeps only the
/// error-front ranks working and the monitor is the per-step fixed cost.
const WARMUP_STEPS: usize = 100;

/// Benches one method under both monitor modes: each iteration is one
/// superstep followed by one monitor evaluation, exactly the work the
/// driver does per step. Separate executors per mode so each advances
/// its own run.
fn bench_method_pair<A, F, L>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    a: &CsrMatrix,
    b: &[f64],
    build: F,
    local_of: L,
) where
    A: RankAlgorithm,
    F: Fn() -> Vec<A>,
    L: Fn(&A) -> &LocalSystem,
{
    let mut ex = Executor::new(build(), CostModel::default(), ExecMode::Sequential);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    let mut mon = MonitorCore::new(a.nrows());
    group.bench_function(&format!("{name}_step_exact"), |bench| {
        bench.iter(|| {
            ex.step();
            mon.exact(a, b, ex.ranks(), &local_of)
        })
    });
    let mut ex = Executor::new(build(), CostModel::default(), ExecMode::Sequential);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    let mut mon = MonitorCore::new(a.nrows());
    group.bench_function(&format!("{name}_step_maintained"), |bench| {
        bench.iter(|| {
            ex.step();
            mon.maintained(ex.ranks()).map(|m| m.norm)
        })
    });
}

fn bench_monitor_512(c: &mut Criterion) {
    let (a, b, locals, norms, r0) = monitor_problem_512(80);
    let mut group = c.benchmark_group("monitor_512");
    group.sample_size(20);
    bench_method_pair(
        &mut group,
        "ds",
        &a,
        &b,
        || DistributedSouthwellRank::build(locals.clone(), &norms, &r0),
        |r: &DistributedSouthwellRank| &r.ls,
    );
    bench_method_pair(
        &mut group,
        "ps",
        &a,
        &b,
        || ParallelSouthwellRank::build(locals.clone(), &norms),
        |r: &ParallelSouthwellRank| &r.ls,
    );
    bench_method_pair(
        &mut group,
        "bj",
        &a,
        &b,
        || BlockJacobiRank::build(locals.clone()),
        |r: &BlockJacobiRank| &r.ls,
    );

    // The monitor calls in isolation, at two problem sizes with the same
    // rank count: the maintained evaluation reads two scalars per rank
    // (O(P) — the `_80` and `_40` numbers coincide), while the exact one
    // gathers `n` entries and multiplies `nnz` nonzeros (O(n + nnz) —
    // 512 000 rows / 3.5 M nnz vs 64 000 rows / 439 K nnz).
    for (tag, prob) in [
        ("80", (a, b, locals, norms, r0)),
        ("40", monitor_problem_512(40)),
    ] {
        let (a, b, locals, norms, r0) = prob;
        let ex = Executor::new(
            DistributedSouthwellRank::build(locals, &norms, &r0),
            CostModel::default(),
            ExecMode::Sequential,
        );
        let mut mon = MonitorCore::new(a.nrows());
        group.bench_function(&format!("eval_exact_512_grid{tag}"), |bench| {
            bench.iter(|| mon.exact(&a, &b, ex.ranks(), &|r: &DistributedSouthwellRank| &r.ls))
        });
        group.bench_function(&format!("eval_maintained_512_grid{tag}"), |bench| {
            bench.iter(|| mon.maintained(ex.ranks()).map(|m| m.norm))
        });
    }
    group.finish();
}

criterion_group!(monitor, bench_monitor_512);
criterion_main!(monitor);
