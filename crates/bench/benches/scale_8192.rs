//! Paper-scale step throughput: the arena/SoA + SIMD + slab-payload hot
//! paths at 4096 and 8192 ranks.
//!
//! Rows mirror `epoch_close` so the two files stay directly comparable:
//!
//! * `route_serial_{P}` — the pure-routing grid program (`GridRoute`
//!   from `benches/common`: 4 solve puts to every 4-neighbor, no
//!   numerics), at 4096 and 8192 ranks.
//! * `{ds,ps,bj}_step_serial_{P}` — the paper's solvers on the same 40³
//!   Poisson system `epoch_close` uses, so `ds_step_serial_4096` here is
//!   the row CI gates against the *checked-in* `BENCH_epoch_close.json`
//!   baseline (quick mode ≥ 2×; full runs archive ≥ 5× in
//!   `results/BENCH_scale.json`).
//!
//! Serial rows run on [`ExecMode::Sequential`] — the actual serial
//! configuration (no pool dispatch), bit-identical to every other mode by
//! the executor's determinism contract. `meta_workers` records the host
//! parallelism for context; per-row `route_ns` / `span_ns` breakdowns feed
//! the EXPERIMENTS.md table.

mod common;

use common::{
    grid_route, poisson_error_cube, record_breakdown, BuiltRanks, SolverSystem, SOLVERS,
    WARMUP_STEPS,
};
use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CostModel, ExecMode, Executor, RankAlgorithm};

const GROUP: &str = "scale_8192";

fn run_solver_bench<A: RankAlgorithm>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    ranks: Vec<A>,
) {
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    group.bench_function(id, |bench| bench.iter(|| ex.step()));
    record_breakdown(GROUP, &ex, id);
}

fn bench_scale(c: &mut Criterion) {
    let nworkers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    record_metric(GROUP, "meta_workers", nworkers as f64);

    let mut group = c.benchmark_group(GROUP);
    group.sample_size(20);
    for p in [4096usize, 8192] {
        let mut ex = Executor::new(grid_route(p), CostModel::default(), ExecMode::Sequential);
        for _ in 0..3 {
            ex.step();
        }
        group.bench_function(&format!("route_serial_{p}"), |bench| {
            bench.iter(|| ex.step())
        });
        record_breakdown(GROUP, &ex, &format!("route_serial_{p}"));
    }

    // The epoch_close solver system, so the 4096-rank rows are comparable
    // against the archived epoch_close baselines.
    let (a, b, x0) = poisson_error_cube();
    let g = Graph::from_matrix(&a);

    group.sample_size(10);
    for p in [4096usize, 8192] {
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        let sys = SolverSystem::new(&a, &b, &x0, &part);
        for name in SOLVERS {
            let id = format!("{name}_step_serial_{p}");
            match sys.build(name) {
                BuiltRanks::Ds(ranks) => run_solver_bench(&mut group, &id, ranks),
                BuiltRanks::Ps(ranks) => run_solver_bench(&mut group, &id, ranks),
                BuiltRanks::Bj(ranks) => run_solver_bench(&mut group, &id, ranks),
            }
        }
    }
    group.finish();
}

criterion_group!(scale_8192, bench_scale);
criterion_main!(scale_8192);
