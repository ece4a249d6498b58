//! The tentpole comparison: what one epoch close costs, serial vs chunked
//! across the worker pool.
//!
//! Two tiers, both timing **full `Executor::step` loops** (the close is
//! not callable in isolation — and the end-to-end step is what the user
//! waits on):
//!
//! * `route_{serial,parallel}_{P}` — the routing-dominated regime: a
//!   synthetic grid program (`GridRoute`, shared with `scale_8192` in
//!   `benches/common`) whose phase does no numerical work and puts a
//!   fixed burst of messages to every neighbor, at 512 / 2048 / 4096
//!   ranks. Step wall-clock here is dispatch + close, so the
//!   pair isolates the close strategy; this is the pair CI gates on.
//! * `{ds,ps,bj}_step_{serial,parallel}_{P}` — the paper's solvers on a
//!   40³ Poisson system at the same three rank counts: how much of the
//!   routing win survives once real relaxation work shares the step.
//!
//! Alongside the timings, `record_metric` rows capture the measured
//! per-step breakdown (`route_ns` vs `span_ns`) for the EXPERIMENTS.md
//! table, and `meta_workers` records the worker count so the CI gate can
//! skip the ratio check on single-core runners (a pool of one cannot
//! speed anything up; the determinism contract is what the tests assert
//! there).

mod common;

use common::{
    grid_route, poisson_error_cube, record_breakdown, BuiltRanks, SolverSystem, SOLVERS,
    WARMUP_STEPS,
};
use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{CostModel, ExecMode, Executor, RankAlgorithm};

/// The two close placements each row is measured under, as
/// parallel-close thresholds: `u64::MAX` keeps every close on the calling
/// thread, `0` pools every close (on a pool of ≥ 2 workers; a 1-worker
/// pool closes serially either way).
const CLOSES: [(&str, u64); 2] = [("serial", u64::MAX), ("parallel", 0)];

const GROUP: &str = "epoch_close";

fn bench_routing_micro(c: &mut Criterion, nworkers: usize) {
    let mut group = c.benchmark_group(GROUP);
    group.sample_size(20);
    for p in [512usize, 2048, 4096] {
        for (tag, close) in CLOSES {
            let mut ex = Executor::new(
                grid_route(p),
                CostModel::default(),
                ExecMode::Threaded(nworkers),
            );
            ex.set_parallel_close_threshold(close);
            for _ in 0..3 {
                ex.step();
            }
            group.bench_function(&format!("route_{tag}_{p}"), |bench| {
                bench.iter(|| ex.step())
            });
            record_breakdown(GROUP, &ex, &format!("route_{tag}_{p}"));
        }
    }
    group.finish();
}

fn bench_solvers(c: &mut Criterion, nworkers: usize) {
    let (a, b, x0) = poisson_error_cube();
    let g = Graph::from_matrix(&a);

    let mut group = c.benchmark_group(GROUP);
    group.sample_size(10);
    for p in [512usize, 2048, 4096] {
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        let sys = SolverSystem::new(&a, &b, &x0, &part);
        for name in SOLVERS {
            for (tag, close) in CLOSES {
                let id = format!("{name}_step_{tag}_{p}");
                match sys.build(name) {
                    BuiltRanks::Ds(ranks) => {
                        run_solver_bench(&mut group, &id, ranks, nworkers, close)
                    }
                    BuiltRanks::Ps(ranks) => {
                        run_solver_bench(&mut group, &id, ranks, nworkers, close)
                    }
                    BuiltRanks::Bj(ranks) => {
                        run_solver_bench(&mut group, &id, ranks, nworkers, close)
                    }
                }
            }
        }
    }
    group.finish();
}

fn run_solver_bench<A: RankAlgorithm>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    ranks: Vec<A>,
    nworkers: usize,
    close: u64,
) {
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Threaded(nworkers));
    ex.set_parallel_close_threshold(close);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    group.bench_function(id, |bench| bench.iter(|| ex.step()));
    record_breakdown(GROUP, &ex, id);
}

fn bench_epoch_close(c: &mut Criterion) {
    let nworkers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The CI gate reads this to skip the speedup ratio on single-core
    // runners, where a pool of one worker cannot beat the serial close.
    record_metric(GROUP, "meta_workers", nworkers as f64);
    bench_routing_micro(c, nworkers);
    bench_solvers(c, nworkers);
}

criterion_group!(epoch_close, bench_epoch_close);
criterion_main!(epoch_close);
