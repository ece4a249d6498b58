//! `table2`: cold Table-2 solves — the paper's headline experiment on
//! one suite matrix per Block Jacobi regime, DS, PS and BJ at 512 ranks,
//! sequential executor, target ‖r‖₂ = 0.1, 50-step horizon.
//!
//! A round regenerates each matrix, partitions it, and for every method
//! distributes the system, builds the ranks and drives them: the split
//! path of `run_method`, so set-up and solve are timed apart.

use crate::util::{self, Json, Ledger, Rng};
use crate::{Outcome, RunCfg, TracedRound};
use dsw_core::dist::{
    distribute, drive, BlockJacobiRank, DistOptions, DistReport, DistributedSouthwellRank,
    ExecBackend, Method, ParallelSouthwellRank,
};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use dsw_rma::ExecMode;
use dsw_sparse::suite::{by_name, BlockJacobiRegime, SuiteEntry};
use dsw_sparse::{vecops, CsrMatrix};
use std::time::Instant;

/// One suite matrix per Block Jacobi regime: diverges, converges then
/// diverges, always converges.
pub const MATRICES: [&str; 3] = ["Flan_1565", "Geo_1438", "af_5_k101"];
pub const METHODS: [Method; 3] = [
    Method::DistributedSouthwell,
    Method::ParallelSouthwell,
    Method::BlockJacobi,
];
pub const RANKS: usize = 512;
pub const TARGET: f64 = 0.1;

/// The paper's Table-2 run: a 50-step sweep per method, single-threaded,
/// no early stop; Table 2 reads the crossing of ‖r‖₂ = 0.1 off the
/// sweep. The fixed horizon also keeps each round's work independent of
/// the initial guess: stopping at 0.1 moves DS and PS step counts by
/// about ±15% between seeds, and Block Jacobi's on Geo_1438 by 10×,
/// since whether it crosses 0.1 at all depends on the guess.
pub fn options() -> DistOptions {
    DistOptions {
        max_steps: 50,
        target_residual: None,
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        ..DistOptions::default()
    }
}

pub fn entry(name: &str) -> SuiteEntry {
    by_name(name).expect("the benchmark names suite matrices that exist")
}

/// §4.2 initial guess: uniform entries from the seed, scaled so that
/// ‖b − A x0‖₂ = 1 with b = 0.
pub fn initial_guess(a: &CsrMatrix, seed: u64, salt: u64) -> Vec<f64> {
    let mut x0 = Rng::new(seed, salt).vec(a.nrows());
    let norm = vecops::norm2(&a.mul_vec(&x0));
    assert!(norm > 0.0 && norm.is_finite(), "suite matrices are SPD");
    vecops::scale(1.0 / norm, &mut x0);
    x0
}

/// The multilevel partition the paper's harness uses (METIS stand-in).
pub fn partition(a: &CsrMatrix, nparts: usize) -> (Graph, Partition) {
    let g = Graph::from_matrix(a);
    let p = partition_multilevel(
        &g,
        nparts,
        MultilevelOptions {
            seed: 1,
            ..MultilevelOptions::default()
        },
    );
    (g, p)
}

/// One split solve: `distribute` + rank build + `drive`, each timed.
pub struct SplitSolve {
    pub report: DistReport,
    pub distribute_s: f64,
    pub build_s: f64,
    pub drive_s: f64,
}

/// Runs `method` through the same steps `run_method` takes on an uncoded
/// placement, timing each step apart.
pub fn solve_split(
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    part: &Partition,
    opts: &DistOptions,
) -> SplitSolve {
    let t = Instant::now();
    let locals = distribute(a, b, x0, part).expect("suite systems distribute");
    let distribute_s = util::secs(t);
    let solver = opts.ds_config.local_solver;
    let t = Instant::now();
    macro_rules! drive_timed {
        ($ranks:expr) => {{
            let ranks = $ranks;
            let build_s = util::secs(t);
            let t = Instant::now();
            let report = drive(method, ranks, |r| &r.ls, a, b, opts);
            (report, build_s, util::secs(t))
        }};
    }
    let (report, build_s, drive_s) = match method {
        Method::BlockJacobi => drive_timed!(BlockJacobiRank::build_with_solver(locals, solver)),
        Method::ParallelSouthwell | Method::ParallelSouthwellPiggybackOnly => {
            let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
            let explicit = method == Method::ParallelSouthwell;
            drive_timed!(ParallelSouthwellRank::build_cfg(
                locals, &norms, explicit, solver
            ))
        }
        Method::DistributedSouthwell => {
            let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
            let r0 = a.residual(b, x0);
            drive_timed!(DistributedSouthwellRank::build_with(
                locals,
                &norms,
                &r0,
                opts.ds_config
            ))
        }
    };
    SplitSolve {
        report,
        distribute_s,
        build_s,
        drive_s,
    }
}

/// The deterministic counters of one solve; they must repeat exactly
/// across rounds of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Counters {
    pub steps: usize,
    pub msgs: u64,
    pub msgs_solve: u64,
    pub msgs_residual: u64,
    pub bytes: u64,
    pub relaxations: u64,
    pub final_residual_bits: u64,
    pub x_bits: u64,
}

impl Counters {
    pub fn of(r: &DistReport) -> Self {
        let last = r.records.last().expect("reports carry a step-0 record");
        Counters {
            steps: r.records.len() - 1,
            msgs: last.msgs,
            msgs_solve: last.msgs_solve,
            msgs_residual: last.msgs_residual,
            bytes: last.bytes,
            relaxations: last.relaxations,
            final_residual_bits: r.final_residual().to_bits(),
            // FNV-1a over the solution's bits: a cheap bit-identity check.
            x_bits: r.x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
            }),
        }
    }
}

/// Checks one report against the problem it solved. Returns whether the
/// operation failed (a miss or a deadlock); output errors go to `out`.
fn check_report(
    out: &mut Outcome,
    e: &SuiteEntry,
    method: Method,
    a: &CsrMatrix,
    b: &[f64],
    r: &DistReport,
) -> bool {
    let tag = format!("{} {}", e.name, method.label());
    let recomputed = vecops::norm2(&a.residual(b, &r.x));
    let claimed = r.final_residual();
    out.check(
        (recomputed - claimed).abs() <= 1e-8 * claimed.abs().max(1.0),
        || format!("{tag}: report claims ‖r‖ = {claimed:e}, x gives {recomputed:e}"),
    );
    // DS, the paper's method, must cross 0.1 inside the horizon (it does
    // by step ~35 on every matrix). PS's crossing on Flan_1565 lands at
    // steps 44–50 depending on the initial guess, so for PS it is
    // recorded, not required.
    match method {
        Method::DistributedSouthwell => {
            return r.deadlocked || r.steps_to_reach(TARGET).is_none();
        }
        Method::ParallelSouthwell | Method::ParallelSouthwellPiggybackOnly => {
            return r.deadlocked;
        }
        Method::BlockJacobi => {}
    }
    // Block Jacobi's 50-step sweep must show the matrix's regime. For
    // "converges then diverges" that is the shape — down, then up again;
    // its lowest residual on these stand-ins is 0.07–0.15 depending on the
    // initial guess, so crossing 0.1 is recorded, not required.
    let norms: Vec<f64> = r.records.iter().map(|s| s.residual_norm).collect();
    let (argmin, min) =
        norms.iter().enumerate().fold(
            (0, f64::INFINITY),
            |acc, (i, &v)| if v < acc.1 { (i, v) } else { acc },
        );
    let last = norms[norms.len() - 1];
    let ok = match e.regime {
        BlockJacobiRegime::Diverges => min > TARGET,
        BlockJacobiRegime::AlwaysConverges => last <= TARGET,
        BlockJacobiRegime::ConvergesThenDiverges => {
            argmin > 0 && argmin + 1 < norms.len() && last > norms[0]
        }
    };
    out.check(ok, || {
        format!(
            "{tag}: BJ sweep (min ‖r‖ {min:e} at step {argmin}, final {last:e}) contradicts regime {:?}",
            e.regime
        )
    });
    r.deadlocked || !ok
}

/// Per-solve statistics that go into the nested ledger of a traced round.
fn record_nested(nested: &mut Ledger, r: &DistReport, drive_s: f64) {
    let st = &r.stats;
    let m = r.monitor_stats();
    let last = r.records.last().expect("reports carry a step-0 record");
    nested.add("rma.compute_s", st.total_compute_ns() as f64 * 1e-9);
    nested.add("rma.steps", st.nsteps() as f64);
    nested.add("rma.msgs", st.total_msgs() as f64);
    nested.add("rma.bytes", st.total_bytes() as f64);
    nested.add("monitor.verifications", m.verifications as f64);
    let k = METHODS.len() as f64 * MATRICES.len() as f64;
    nested.add("rma.worker_utilization", r.worker_utilization() / k);
    nested.add("rma.imbalance", r.mean_imbalance() / k);
    nested.add("monitor.max_rel_drift", m.max_rel_drift / k);
    nested.add("dist.steps", (r.records.len() - 1) as f64 / k);
    nested.add(
        "dist.relaxations_per_n",
        last.relaxations as f64 / r.n as f64 / k,
    );
    nested.add("dist.active_fraction", r.active_fraction() / k);
    nested.add(
        "dist.msgs_solve_per_rank",
        last.msgs_solve as f64 / r.nranks as f64 / k,
    );
    nested.add(
        "dist.msgs_residual_per_rank",
        last.msgs_residual as f64 / r.nranks as f64 / k,
    );
    nested.add("dist.model_time_s", last.time / k);
    nested.add(
        match r.method {
            Method::DistributedSouthwell => "dist.ds_drive_s",
            Method::ParallelSouthwell => "dist.ps_drive_s",
            _ => "dist.bj_drive_s",
        },
        drive_s,
    );
}

/// Additive split of one `drive` call: substrate compute dispatch,
/// epoch close, the two monitor paths, and the driver's own remainder.
fn record_drive_split(additive: &mut Ledger, r: &DistReport, drive_s: f64) {
    let st = &r.stats;
    let span = st.total_span_ns() as f64 * 1e-9;
    let route = st.total_route_ns() as f64 * 1e-9;
    let m = r.monitor_stats();
    let eval = m.eval_ns as f64 * 1e-9;
    let verify = m.verify_ns as f64 * 1e-9;
    additive.add("rma.span_s", span);
    additive.add("rma.route_s", route);
    additive.add("monitor.eval_s", eval);
    additive.add("monitor.verify_s", verify);
    additive.add("driver.other_s", drive_s - span - route - eval - verify);
}

/// A matrix ready to solve: generated, partitioned, with its inputs.
struct Prepared {
    e: SuiteEntry,
    a: CsrMatrix,
    part: Partition,
    b: Vec<f64>,
    x0: Vec<f64>,
}

/// Cold set-up of all three matrices: generation, partitioning, inputs.
fn prepare(cfg: &RunCfg, additive: &mut Ledger, nested: &mut Ledger) -> Vec<Prepared> {
    MATRICES
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let e = entry(name);
            let a = additive.time("sparse.gen_s", || e.build());
            let (g, part) = additive.time("partition.multilevel_s", || partition(&a, RANKS));
            if nested.on && mi == 0 {
                nested.add("partition.edge_cut", part.edge_cut(&g));
            }
            additive.time("bench.teardown_s", || drop(g));
            let (b, x0) = additive.time("bench.inputs_s", || {
                (vec![0.0; a.nrows()], initial_guess(&a, cfg.seed, mi as u64))
            });
            Prepared { e, a, part, b, x0 }
        })
        .collect()
}

struct Round {
    wall_s: f64,
    /// Cold set-up seconds, when this round regenerated the matrices.
    cold_setup_s: Option<f64>,
    /// `distribute` + rank build seconds over the round's nine solves.
    solve_setup_s: f64,
    /// Drive seconds per (matrix, method), matrix-major.
    drive_s: Vec<f64>,
    counters: Vec<Counters>,
    comm_cost: Vec<f64>,
    rows: Vec<Json>,
}

/// One round: optionally a cold set-up (replacing `prepared`), then the
/// nine split solves with their checks.
fn round(
    cfg: &RunCfg,
    cold: bool,
    prepared: &mut Vec<Prepared>,
    out: &mut Outcome,
    additive: &mut Ledger,
    nested: &mut Ledger,
) -> Round {
    let start = Instant::now();
    let mut cold_setup_s = None;
    if cold {
        additive.time("bench.teardown_s", || prepared.clear());
        let t = Instant::now();
        *prepared = prepare(cfg, additive, nested);
        cold_setup_s = Some(util::secs(t));
    }
    let mut solve_setup_s = 0.0;
    let mut drive_s = Vec::new();
    let mut counters = Vec::new();
    let mut comm_cost = Vec::new();
    let mut rows = Vec::new();
    for p in prepared.iter() {
        let (e, a, b) = (&p.e, &p.a, &p.b);
        for &method in &METHODS {
            let s = solve_split(method, a, b, &p.x0, &p.part, &options());
            solve_setup_s += s.distribute_s + s.build_s;
            additive.add("layout.distribute_s", s.distribute_s);
            additive.add("dist.build_s", s.build_s);
            record_drive_split(additive, &s.report, s.drive_s);
            if nested.on {
                record_nested(nested, &s.report, s.drive_s);
            }
            let t = Instant::now();
            out.attempted += 1;
            if check_report(out, e, method, a, b, &s.report) {
                out.failed += 1;
            }
            let c = Counters::of(&s.report);
            additive.add("bench.check_s", util::secs(t));
            rows.push(Json::obj([
                ("matrix", Json::Str(e.name.into())),
                ("method", Json::Str(method.label().into())),
                ("n", Json::Int(a.nrows() as u64)),
                ("nnz", Json::Int(a.nnz() as u64)),
                ("steps", Json::Int(c.steps as u64)),
                (
                    "steps_to_target",
                    s.report
                        .steps_to_reach(TARGET)
                        .map_or(Json::Str("never".into()), Json::Num),
                ),
                (
                    "msgs_per_rank_to_target",
                    s.report
                        .comm_to_reach(TARGET)
                        .map_or(Json::Str("never".into()), Json::Num),
                ),
                ("msgs", Json::Int(c.msgs)),
                ("msgs_solve", Json::Int(c.msgs_solve)),
                ("msgs_residual", Json::Int(c.msgs_residual)),
                ("bytes", Json::Int(c.bytes)),
                ("relaxations", Json::Int(c.relaxations)),
                ("msgs_per_rank", Json::Num(s.report.comm_cost())),
                ("final_residual", Json::Num(s.report.final_residual())),
                (
                    "min_residual",
                    Json::Num(
                        s.report
                            .records
                            .iter()
                            .map(|r| r.residual_norm)
                            .fold(f64::INFINITY, f64::min),
                    ),
                ),
            ]));
            comm_cost.push(s.report.comm_cost());
            drive_s.push(s.drive_s);
            counters.push(c);
            additive.time("bench.teardown_s", || drop(s));
        }
    }
    Round {
        wall_s: util::secs(start),
        cold_setup_s,
        solve_setup_s,
        drive_s,
        counters,
        comm_cost,
        rows,
    }
}

/// Untraced rounds that regenerate the matrices (so `setup_s` has that
/// many cold samples); later rounds reuse them and time only the solves
/// and their per-solve set-up. Traced rounds are all cold, so their
/// layer split covers a whole Table-2 round.
const COLD_ROUNDS: usize = 3;

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut first: Option<Vec<Counters>> = None;
    let mut rows = Json::Arr(Vec::new());
    let mut prepared = Vec::new();
    let mut i = 0;
    while cfg.more_rounds(start, i, COLD_ROUNDS + 1) {
        let on = cfg.traced_round(i);
        let mut additive = Ledger::new(on);
        let mut nested = Ledger::new(on);
        let cold = i < COLD_ROUNDS || cfg.trace;
        let r = round(
            cfg,
            cold,
            &mut prepared,
            &mut out,
            &mut additive,
            &mut nested,
        );
        match &first {
            None => {
                first = Some(r.counters.clone());
                rows = Json::Arr(r.rows.clone());
            }
            Some(c0) => out.check(*c0 == r.counters, || {
                format!("round {i}: deterministic counters differ from round 0")
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
    drop(prepared);

    let k = MATRICES.len() * METHODS.len();
    let per_op: Vec<f64> = (0..k)
        .map(|j| util::median(&untraced.iter().map(|r| r.drive_s[j]).collect::<Vec<_>>()))
        .collect();
    let ops_per_s: Vec<f64> = untraced
        .iter()
        .map(|r| k as f64 / r.drive_s.iter().sum::<f64>())
        .collect();
    let cold: Vec<f64> = untraced.iter().filter_map(|r| r.cold_setup_s).collect();
    let solve_setup: Vec<f64> = untraced.iter().map(|r| r.solve_setup_s).collect();
    out.e2e
        .insert("setup_s", util::median(&cold) + util::median(&solve_setup));
    out.e2e.insert("ops_per_s", util::median(&ops_per_s));
    out.e2e
        .insert("latency_p50_ms", util::quantile(&per_op, 0.5) * 1e3);
    out.e2e
        .insert("latency_p99_ms", util::quantile(&per_op, 0.99) * 1e3);
    let comm = &untraced[0].comm_cost;
    out.e2e.insert(
        "msgs_per_rank",
        comm.iter().sum::<f64>() / comm.len() as f64,
    );

    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    out.fold_trace(&traced, &untraced_walls);
    if cfg.trace {
        let a = entry(MATRICES[0]).build();
        crate::probes::record_kernel_probes(&mut out, &a, MATRICES[0]);
    }
    out.detail.push((
        "samples".into(),
        Json::obj([
            ("rounds_untraced", Json::Int(untraced.len() as u64)),
            ("rounds_traced", Json::Int(traced.len() as u64)),
            ("solves_per_round", Json::Int(k as u64)),
            ("cold_setup_s", Json::nums(&cold)),
            ("solve_setup_s", Json::nums(&solve_setup)),
            ("ops_per_s", Json::nums(&ops_per_s)),
            ("median_drive_s_per_solve", Json::nums(&per_op)),
            (
                "drive_s_by_round",
                Json::Arr(untraced.iter().map(|r| Json::nums(&r.drive_s)).collect()),
            ),
            (
                "setup_definition",
                Json::Str(
                    "median cold set-up (generation, partitioning, inputs; 3 matrices) + median per-round distribute and rank build (9 solves)"
                        .into(),
                ),
            ),
            (
                "latency_definition",
                Json::Str(
                    "quantiles over the 9 (matrix, method) solves of each solve's median drive time"
                        .into(),
                ),
            ),
        ]),
    ));
    out.detail.push(("solves".into(), rows));
    out
}
