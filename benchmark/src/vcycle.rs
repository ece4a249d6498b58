//! `vcycle`: distributed multigrid on the paper's largest Figure-6 grid
//! (dim 255, n = 65 025, 7 levels) with the row-granular DS smoother
//! (1 sweep), 8 fine parts, agglomeration floor 32, on the 2-worker
//! pool. A round builds the hierarchy and runs V-cycles from x = 0 on a
//! seeded right-hand side until the relative residual reaches 1e-8.

use crate::util::{self, Json, Ledger, Rng};
use crate::{Outcome, RunCfg, TracedRound, THREADS};
use dsw_core::dist::ExecBackend;
use dsw_multigrid::dsmooth::DsLevelSmoother;
use dsw_multigrid::{DistMultigrid, DistMultigridConfig, DistSmoother, Smoother, TransferExchange};
use dsw_rma::{CostModel, ExecMode};
use dsw_sparse::vecops;
use std::time::Instant;

pub const DIM: usize = 255;
pub const NPARTS: usize = 8;
pub const FLOOR: usize = 32;
pub const TOL: f64 = 1e-8;
/// Cycle cap: grid-independent convergence takes 9 at every dimension.
pub const MAX_CYCLES: usize = 20;
const SMOOTHER_SEED: u64 = 99;

pub fn config() -> DistMultigridConfig {
    DistMultigridConfig {
        smoother: DistSmoother::Ds {
            sweeps: 1.0,
            seed: SMOOTHER_SEED,
        },
        backend: ExecBackend::Superstep(ExecMode::Threaded(THREADS)),
        nparts: NPARTS,
        min_rows_per_part: FLOOR,
        ..DistMultigridConfig::default()
    }
}

/// The seeded right-hand side, ‖b‖₂ = 1.
pub fn rhs(seed: u64) -> Vec<f64> {
    let mut b = Rng::new(seed, 0x3C_7C1E).vec(DIM * DIM);
    vecops::normalize(&mut b);
    b
}

/// Exact per-cycle counters; they must repeat across rounds.
#[derive(Debug, Clone, PartialEq)]
struct CycleCounters {
    msgs: u64,
    relaxations: u64,
    transfer_bytes: u64,
    rel_bits: u64,
}

struct Round {
    wall_s: f64,
    setup_s: f64,
    cycle_s: Vec<f64>,
    counters: Vec<CycleCounters>,
}

fn round(cfg: &RunCfg, out: &mut Outcome, additive: &mut Ledger, nested: &mut Ledger) -> Round {
    let start = Instant::now();
    let t = Instant::now();
    let b = additive.time("bench.inputs_s", || rhs(cfg.seed));
    let mut mg = additive.time("mg.try_new_s", || {
        DistMultigrid::try_new(DIM, config()).expect("dim 255 builds an admissible hierarchy")
    });
    let setup_s = util::secs(t);
    let mut x = vec![0.0; DIM * DIM];
    let mut cycle_s = Vec::new();
    let mut counters = Vec::new();
    let mut last_rel = f64::INFINITY;
    while cycle_s.len() < MAX_CYCLES && last_rel >= TOL {
        let t = Instant::now();
        let rep = mg.vcycle(&b, &mut x);
        let dt = util::secs(t);
        additive.add("mg.cycle_s", dt);
        cycle_s.push(dt);
        last_rel = rep.rel_residual;
        counters.push(CycleCounters {
            msgs: rep.total_msgs(),
            relaxations: rep.total_relaxations(),
            transfer_bytes: rep.levels.iter().map(|l| l.transfer_bytes).sum(),
            rel_bits: rep.rel_residual.to_bits(),
        });
        out.attempted += 1;
    }
    let t = Instant::now();
    let reached = last_rel < TOL;
    if !reached {
        out.failed += 1;
    }
    let recomputed = vecops::norm2(&mg.levels[0].a.residual(&b, &x)) / vecops::norm2(&b);
    out.check(
        (recomputed - last_rel).abs() <= 1e-9 * last_rel.max(1e-300),
        || format!("last cycle reports rel residual {last_rel:e}, x gives {recomputed:e}"),
    );
    out.check(!reached || recomputed < TOL, || {
        format!("converged claim with rel residual {recomputed:e} ≥ {TOL:e}")
    });
    additive.add("bench.check_s", util::secs(t));
    if nested.on {
        let c = counters.len() as f64;
        nested.add("mg.cycles_to_tol", c);
        nested.add(
            "mg.msgs_per_cycle",
            counters.iter().map(|k| k.msgs as f64).sum::<f64>() / c,
        );
        nested.add(
            "mg.transfer_bytes_per_cycle",
            counters
                .iter()
                .map(|k| k.transfer_bytes as f64)
                .sum::<f64>()
                / c,
        );
        nested.add(
            "mg.relaxations_per_cycle",
            counters.iter().map(|k| k.relaxations as f64).sum::<f64>() / c,
        );
    }
    additive.time("bench.teardown_s", || drop((mg, b, x)));
    Round {
        wall_s: util::secs(start),
        setup_s,
        cycle_s,
        counters,
    }
}

/// Standalone probes of the finest level: one restrict + prolong pair on
/// its transfer exchange, and one 1-sweep DS smoothing pass. Each is
/// timed over repeated calls and reported as the median per call.
fn level_probes(out: &mut Outcome, seed: u64) {
    let mg = DistMultigrid::try_new(DIM, config()).expect("dim 255 builds an admissible hierarchy");
    let (fine, coarse) = (&mg.levels[0], &mg.levels[1]);
    let mode = ExecMode::Threaded(THREADS);
    let mut ex = TransferExchange::new(
        &fine.partition,
        &coarse.partition,
        fine.dim,
        coarse.dim,
        CostModel::default(),
        mode,
    )
    .expect("adjacent levels form a transfer pair");
    let r = rhs(seed);
    let mut pair = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        let rc = ex.restrict(&r);
        std::hint::black_box(ex.prolong(&rc));
        pair.push(util::secs(t));
    }
    out.layers.insert("mg.transfer_s", util::median(&pair));

    let mut sm = DsLevelSmoother::new(&fine.a, &fine.partition, mode, CostModel::default())
        .expect("the finest level builds a DS smoother");
    let budget = Smoother::distributed_southwell(1.0, SMOOTHER_SEED).budget(fine.a.nrows());
    let mut passes = Vec::new();
    for i in 0..5 {
        let mut x = vec![0.0; fine.a.nrows()];
        let t = Instant::now();
        std::hint::black_box(sm.smooth(&fine.a, &r, &mut x, budget, i));
        passes.push(util::secs(t));
    }
    out.layers.insert("mg.smooth_s", util::median(&passes));
    crate::probes::record_kernel_probes(out, &fine.a, "poisson255");
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut first: Option<Vec<CycleCounters>> = None;
    let mut i = 0;
    while cfg.more_rounds(start, i, 3) {
        let on = cfg.traced_round(i);
        let mut additive = Ledger::new(on);
        let mut nested = Ledger::new(on);
        let r = round(cfg, &mut out, &mut additive, &mut nested);
        match &first {
            None => first = Some(r.counters.clone()),
            Some(c0) => out.check(*c0 == r.counters, || {
                format!("round {i}: deterministic cycle counters differ from round 0")
            }),
        }
        if on {
            traced.push(TracedRound {
                wall_s: r.wall_s,
                additive,
                nested,
            });
        } else {
            untraced.push(r);
        }
        i += 1;
    }

    let setup: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    let ops: Vec<f64> = untraced
        .iter()
        .map(|r| r.cycle_s.len() as f64 / r.cycle_s.iter().sum::<f64>())
        .collect();
    let ncycles = untraced.iter().map(|r| r.cycle_s.len()).min().unwrap_or(0);
    let per_cycle: Vec<f64> = (0..ncycles)
        .map(|c| util::median(&untraced.iter().map(|r| r.cycle_s[c]).collect::<Vec<_>>()))
        .collect();
    out.e2e.insert("setup_s", util::median(&setup));
    out.e2e.insert("ops_per_s", util::median(&ops));
    out.e2e
        .insert("latency_p50_ms", util::quantile(&per_cycle, 0.5) * 1e3);
    out.e2e
        .insert("latency_p99_ms", util::quantile(&per_cycle, 0.99) * 1e3);
    let c0 = first.unwrap_or_default();
    out.e2e.insert(
        "msgs_per_rank",
        c0.iter().map(|c| c.msgs as f64).sum::<f64>() / c0.len().max(1) as f64 / NPARTS as f64,
    );

    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    out.fold_trace(&traced, &untraced_walls);
    if cfg.trace {
        level_probes(&mut out, cfg.seed);
    }
    out.detail.push((
        "samples".into(),
        Json::obj([
            ("rounds_untraced", Json::Int(untraced.len() as u64)),
            ("rounds_traced", Json::Int(traced.len() as u64)),
            ("cycles_per_round", Json::Int(ncycles as u64)),
            ("setup_s", Json::nums(&setup)),
            ("cycles_per_s", Json::nums(&ops)),
            ("median_s_per_cycle_index", Json::nums(&per_cycle)),
            (
                "latency_definition",
                Json::Str(
                    "quantiles over cycle indices of each cycle's median wall time across rounds"
                        .into(),
                ),
            ),
            (
                "msgs_per_rank_definition",
                Json::Str("messages per V-cycle (all levels) over the 8 finest-level ranks".into()),
            ),
        ]),
    ));
    out.detail.push((
        "cycle_counters".into(),
        Json::Arr(
            c0.iter()
                .map(|c| {
                    Json::obj([
                        ("msgs", Json::Int(c.msgs)),
                        ("relaxations", Json::Int(c.relaxations)),
                        ("transfer_bytes", Json::Int(c.transfer_bytes)),
                        ("rel_residual", Json::Num(f64::from_bits(c.rel_bits))),
                    ])
                })
                .collect(),
        ),
    ));
    out
}
