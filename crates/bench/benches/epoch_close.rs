//! The tentpole comparison: what one epoch close costs, serial vs chunked
//! across the worker pool.
//!
//! Two tiers, both timing **full `Executor::step` loops** (the close is
//! not callable in isolation — and the end-to-end step is what the user
//! waits on):
//!
//! * `route_{serial,parallel}_{P}` — the routing-dominated regime: a
//!   synthetic grid program (`GridRoute`) whose phase does no numerical
//!   work and puts a fixed burst of messages to every neighbor, at 512 /
//!   2048 / 4096 ranks. Step wall-clock here is dispatch + close, so the
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

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, ParallelSouthwellRank,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions};
use dsw_rma::{
    CloseMode, CommClass, CostModel, Envelope, ExecMode, Executor, PhaseCtx, RankAlgorithm,
};
use dsw_sparse::gen;

/// Messages per neighbor per step in the routing microbench.
const BURST: u64 = 4;

/// A pure-routing rank on a `w × h` grid: every step it puts `BURST`
/// solve-class messages to each 4-neighbor and does no numerical work, so
/// the step's wall-clock is the delivery machinery itself.
struct GridRoute {
    id: usize,
    w: usize,
    h: usize,
    step: u64,
    sum: u64,
}

impl GridRoute {
    fn neighbors(&self) -> Vec<usize> {
        let (x, y) = (self.id % self.w, self.id / self.w);
        let mut out = Vec::new();
        if x > 0 {
            out.push(self.id - 1);
        }
        if x + 1 < self.w {
            out.push(self.id + 1);
        }
        if y > 0 {
            out.push(self.id - self.w);
        }
        if y + 1 < self.h {
            out.push(self.id + self.w);
        }
        out
    }
}

impl RankAlgorithm for GridRoute {
    type Msg = u64;

    fn phases(&self) -> usize {
        1
    }

    fn put_targets(&self) -> Vec<usize> {
        self.neighbors()
    }

    fn phase(&mut self, _phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
        for e in inbox {
            self.sum = self.sum.wrapping_add(e.payload);
        }
        for t in self.neighbors() {
            for k in 0..BURST {
                ctx.put(t, CommClass::Solve, self.step.wrapping_add(k), 16);
            }
        }
        self.step += 1;
    }
}

/// Grid side lengths giving exactly 512 / 2048 / 4096 ranks.
fn grid_dims(p: usize) -> (usize, usize) {
    match p {
        512 => (32, 16),
        2048 => (64, 32),
        4096 => (64, 64),
        _ => unreachable!("unsupported rank count {p}"),
    }
}

fn grid_route(p: usize) -> Vec<GridRoute> {
    let (w, h) = grid_dims(p);
    (0..w * h)
        .map(|id| GridRoute {
            id,
            w,
            h,
            step: 0,
            sum: 0,
        })
        .collect()
}

/// Runs a measured step loop and records the per-step `route_ns` /
/// `span_ns` breakdown for the EXPERIMENTS.md table.
fn record_breakdown<A: RankAlgorithm>(ex: &Executor<A>, id_prefix: &str) {
    let steps = ex.stats.nsteps().max(1) as f64;
    record_metric(
        "epoch_close",
        &format!("{id_prefix}_route_ns_per_step"),
        ex.stats.total_route_ns() as f64 / steps,
    );
    record_metric(
        "epoch_close",
        &format!("{id_prefix}_span_ns_per_step"),
        ex.stats.total_span_ns() as f64 / steps,
    );
}

fn bench_routing_micro(c: &mut Criterion, nworkers: usize) {
    let mut group = c.benchmark_group("epoch_close");
    group.sample_size(20);
    for p in [512usize, 2048, 4096] {
        for (tag, close) in [
            ("serial", CloseMode::Serial),
            ("parallel", CloseMode::Parallel),
        ] {
            let mut ex = Executor::new(
                grid_route(p),
                CostModel::default(),
                ExecMode::Threaded(nworkers),
            );
            ex.set_close_mode(close);
            for _ in 0..3 {
                ex.step();
            }
            group.bench_function(&format!("route_{tag}_{p}"), |bench| {
                bench.iter(|| ex.step())
            });
            record_breakdown(&ex, &format!("route_{tag}_{p}"));
        }
    }
    group.finish();
}

/// Supersteps run before timing starts: past the seeded transient, into
/// the steady activity pattern a long run actually spends its time in.
const WARMUP_STEPS: usize = 10;

fn bench_solvers(c: &mut Criterion, nworkers: usize) {
    // The solvers' motivating regime at bench scale: 40³ Poisson (64 000
    // rows, 439 K nonzeros) with the initial error confined to a 16³ cube.
    let dim = 40usize;
    let mut a = gen::grid3d_poisson(dim, dim, dim);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let full = gen::random_guess(n, 3);
    let mut x0 = vec![0.0; n];
    for z in 0..16 {
        for y in 0..16 {
            for x in 0..16 {
                x0[(z * dim + y) * dim + x] = full[(z * dim + y) * dim + x];
            }
        }
    }
    let g = Graph::from_matrix(&a);

    let mut group = c.benchmark_group("epoch_close");
    group.sample_size(10);
    for p in [512usize, 2048, 4096] {
        let part = partition_multilevel(&g, p, MultilevelOptions::default());
        let locals = distribute(&a, &b, &x0, &part).unwrap();
        let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
        let r0 = a.residual(&b, &x0);

        let mut bench_one = |name: &str, build: &dyn Fn() -> BuiltRanks| {
            for (tag, close) in [
                ("serial", CloseMode::Serial),
                ("parallel", CloseMode::Parallel),
            ] {
                let id = format!("{name}_step_{tag}_{p}");
                match build() {
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
        };
        bench_one("ds", &|| {
            BuiltRanks::Ds(DistributedSouthwellRank::build(locals.clone(), &norms, &r0))
        });
        bench_one("ps", &|| {
            BuiltRanks::Ps(ParallelSouthwellRank::build(locals.clone(), &norms))
        });
        bench_one("bj", &|| {
            BuiltRanks::Bj(BlockJacobiRank::build(locals.clone()))
        });
    }
    group.finish();
}

/// The three solver rank types behind one constructor indirection, so the
/// serial/parallel pairing logic is written once.
enum BuiltRanks {
    Ds(Vec<DistributedSouthwellRank>),
    Ps(Vec<ParallelSouthwellRank>),
    Bj(Vec<BlockJacobiRank>),
}

fn run_solver_bench<A: RankAlgorithm>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    ranks: Vec<A>,
    nworkers: usize,
    close: CloseMode,
) {
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Threaded(nworkers));
    ex.set_close_mode(close);
    for _ in 0..WARMUP_STEPS {
        ex.step();
    }
    group.bench_function(id, |bench| bench.iter(|| ex.step()));
    record_breakdown(&ex, id);
}

fn bench_epoch_close(c: &mut Criterion) {
    let nworkers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The CI gate reads this to skip the speedup ratio on single-core
    // runners, where a pool of one worker cannot beat the serial close.
    record_metric("epoch_close", "meta_workers", nworkers as f64);
    bench_routing_micro(c, nworkers);
    bench_solvers(c, nworkers);
}

criterion_group!(epoch_close, bench_epoch_close);
criterion_main!(epoch_close);
