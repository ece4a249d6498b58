//! Fixtures shared by the `epoch_close` and `scale_8192` benches, so the
//! two files measure the same programs and their rows stay directly
//! comparable: the pure-routing grid program, the 40³ Poisson solver
//! system, and the per-step breakdown recorder. Row ids and group names
//! are the caller's.

use criterion::record_metric;
use dsw_core::dist::{
    distribute, BlockJacobiRank, DistributedSouthwellRank, LocalSystem, ParallelSouthwellRank,
};
use dsw_partition::Partition;
use dsw_rma::{CommClass, Envelope, Executor, PhaseCtx, RankAlgorithm};
use dsw_sparse::{gen, CsrMatrix};

/// Messages per neighbor per step in the routing rows.
const BURST: u64 = 4;

/// Supersteps run before timing a solver: past the seeded transient, into
/// the steady activity pattern a long run actually spends its time in.
pub const WARMUP_STEPS: usize = 10;

/// The solver rows, in bench order.
pub const SOLVERS: [&str; 3] = ["ds", "ps", "bj"];

/// A pure-routing rank on a `w × h` grid: every step it puts `BURST`
/// solve-class messages to each 4-neighbor and does no numerical work, so
/// the step's wall-clock is the delivery machinery itself.
pub struct GridRoute {
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

/// Grid side lengths giving exactly 512 / 2048 / 4096 / 8192 ranks.
fn grid_dims(p: usize) -> (usize, usize) {
    match p {
        512 => (32, 16),
        2048 => (64, 32),
        4096 => (64, 64),
        8192 => (128, 64),
        _ => unreachable!("unsupported rank count {p}"),
    }
}

/// The `p`-rank routing grid.
pub fn grid_route(p: usize) -> Vec<GridRoute> {
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

/// Records a measured step loop's per-step `route_ns` / `span_ns`
/// breakdown under `group`, for the EXPERIMENTS.md table.
pub fn record_breakdown<A: RankAlgorithm>(group: &str, ex: &Executor<A>, id_prefix: &str) {
    let steps = ex.stats.nsteps().max(1) as f64;
    record_metric(
        group,
        &format!("{id_prefix}_route_ns_per_step"),
        ex.stats.total_route_ns() as f64 / steps,
    );
    record_metric(
        group,
        &format!("{id_prefix}_span_ns_per_step"),
        ex.stats.total_span_ns() as f64 / steps,
    );
}

/// The solvers' motivating regime at bench scale: 40³ Poisson (64 000
/// rows, 439 K nonzeros), unit diagonal, zero right-hand side, and the
/// initial error confined to a 16³ cube. Returns `(a, b, x0)`.
pub fn poisson_error_cube() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
    let dim = 40usize;
    let mut a = gen::grid3d_poisson(dim, dim, dim);
    a.scale_unit_diagonal()
        .expect("Poisson matrices have nonzero diagonals");
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
    (a, b, x0)
}

/// The three solver rank types behind one constructor, so the
/// serial/parallel pairing logic is written once per bench.
pub enum BuiltRanks {
    Ds(Vec<DistributedSouthwellRank>),
    Ps(Vec<ParallelSouthwellRank>),
    Bj(Vec<BlockJacobiRank>),
}

/// One partition of the solver system, from which every solver's rank
/// set is built fresh.
pub struct SolverSystem {
    locals: Vec<LocalSystem>,
    norms: Vec<f64>,
    r0: Vec<f64>,
}

impl SolverSystem {
    pub fn new(a: &CsrMatrix, b: &[f64], x0: &[f64], part: &Partition) -> Self {
        let locals = distribute(a, b, x0, part).expect("bench system distributes cleanly");
        let norms = locals.iter().map(|l| l.residual_norm_sq()).collect();
        SolverSystem {
            locals,
            norms,
            r0: a.residual(b, x0),
        }
    }

    /// Fresh ranks for the solver named in [`SOLVERS`].
    pub fn build(&self, name: &str) -> BuiltRanks {
        let locals = self.locals.clone();
        match name {
            "ds" => BuiltRanks::Ds(DistributedSouthwellRank::build(
                locals,
                &self.norms,
                &self.r0,
            )),
            "ps" => BuiltRanks::Ps(ParallelSouthwellRank::build(locals, &self.norms)),
            "bj" => BuiltRanks::Bj(BlockJacobiRank::build(locals)),
            _ => unreachable!("unknown solver {name}"),
        }
    }
}
