//! `serve` and `serve-panel`: 64 Distributed Southwell tenants on the
//! §4.2 serve problem (32×32 Poisson, 64 ranks) sharing one 2-worker
//! pool, quantum 4, warm re-solving in closed-loop windows.
//!
//! In every window each tenant submits k = 8 seeded drifted right-hand
//! sides and the benchmark then drains the service. `serve` submits them
//! one by one (`submit`: eight warm scalar solves in a row); `serve-panel`
//! submits the same eight as one fused panel (`submit_many`). Inputs,
//! seeds and schedule are otherwise identical.

use crate::util::{self, Json, Ledger, Rng};
use crate::{Outcome, RunCfg, TracedRound, THREADS};
use dsw_core::dist::{distribute, DistOptions, DistReport, ExecBackend, Method};
use dsw_partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use dsw_rma::ExecMode;
use dsw_serve::{ServeConfig, ServiceStats, SolveService, TenantId};
use dsw_sparse::{gen, vecops, CsrMatrix};
use std::f64::consts::PI;
use std::time::Instant;

pub const GRID: usize = 32;
pub const RANKS: usize = 64;
pub const TENANTS: usize = 64;
/// Right-hand sides per tenant per window.
pub const K: usize = 8;
pub const QUANTUM: usize = 4;
pub const TARGET: f64 = 0.1;
/// Timed windows per set-up.
pub const WINDOWS: usize = 3;
/// ‖drift‖₂ of every timed right-hand side against its tenant's base:
/// the same in every window, so windows are comparable.
pub const DRIFT_NORM: f64 = 0.5;
/// ‖b‖₂ of each tenant's base right-hand side.
pub const BASE_NORM: f64 = 1.0;

pub fn options() -> DistOptions {
    DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        target_residual: Some(TARGET),
        max_steps: 400,
        ..DistOptions::default()
    }
}

/// The serve problem: unit-diagonal 5-point Poisson on the grid.
pub fn problem() -> CsrMatrix {
    let mut a = gen::grid2d_poisson(GRID, GRID);
    a.scale_unit_diagonal()
        .expect("the Poisson diagonal is nonzero");
    a
}

pub fn partition(a: &CsrMatrix) -> Partition {
    partition_multilevel(
        &Graph::from_matrix(a),
        RANKS,
        MultilevelOptions {
            seed: 1,
            ..MultilevelOptions::default()
        },
    )
}

/// A seeded right-hand side of norm `norm`: a random combination of the
/// 3×3 smoothest grid eigenmodes, multiplied by the checkerboard.
///
/// The checkerboard maps each smooth eigenmode of the 5-point operator
/// onto one of the roughest ones, so all the energy sits in the
/// high-frequency modes the block solvers contract in a few steps. A
/// smooth right-hand side would push every solve into the slow
/// smooth-error tail (hundreds of supersteps at ρ ≈ 1 − O(h²)), and the
/// windows would measure the solver's asymptotics, not the serving path.
pub fn modulated_rhs(rng: &mut Rng, norm: f64) -> Vec<f64> {
    let c: Vec<f64> = (0..9).map(|_| rng.unit()).collect();
    let h = PI / (GRID + 1) as f64;
    let mut v: Vec<f64> = (0..GRID * GRID)
        .map(|i| {
            let (x, y) = (i % GRID, i / GRID);
            let sign = if (x + y) % 2 == 0 { 1.0 } else { -1.0 };
            let mut s = 0.0;
            for p in 0..3 {
                for q in 0..3 {
                    s += c[3 * p + q]
                        * ((p + 1) as f64 * h * (x + 1) as f64).sin()
                        * ((q + 1) as f64 * h * (y + 1) as f64).sin();
                }
            }
            sign * s
        })
        .collect();
    let scale = norm / vecops::norm2(&v);
    vecops::scale(scale, &mut v);
    v
}

/// Tenant `t`'s base right-hand side and initial guess (§4.2: uniform
/// entries scaled so that ‖A x0‖₂ = 1).
pub fn tenant_start(a: &CsrMatrix, seed: u64, t: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::new(seed, 0x5E_0000 + t as u64);
    let base = modulated_rhs(&mut rng, BASE_NORM);
    let mut x0 = rng.vec(a.nrows());
    let scale = 1.0 / vecops::norm2(&a.mul_vec(&x0));
    vecops::scale(scale, &mut x0);
    (base, x0)
}

/// The k right-hand sides tenant `t` submits in window `w`: its base plus
/// a fresh drift of norm [`DRIFT_NORM`].
pub fn window_rhs(seed: u64, t: usize, w: usize, base: &[f64]) -> Vec<Vec<f64>> {
    let mut rng = Rng::new(seed, ((w as u64 + 1) << 32) | t as u64);
    (0..K)
        .map(|_| {
            let mut b = modulated_rhs(&mut rng, DRIFT_NORM);
            vecops::axpy(1.0, base, &mut b);
            b
        })
        .collect()
}

/// Exact counters of one window; they must repeat across rounds.
#[derive(Debug, Clone, PartialEq, Default)]
struct WindowCounters {
    solves: u64,
    msgs: u64,
    steps: u64,
    relaxations: u64,
    x_bits: u64,
}

/// What the reports of one drained window add up to.
#[derive(Default)]
struct WindowSums {
    counters: WindowCounters,
    exec_s: f64,
}

/// Folds one tenant's finished reports (in submission order) into the
/// window sums and checks each against the right-hand side it solved.
/// A fused panel's reports share the panel's substrate statistics, so
/// those are counted once per job; monitor statistics are per column.
#[allow(clippy::too_many_arguments)]
fn fold_reports(
    out: &mut Outcome,
    a: &CsrMatrix,
    bs: &[Vec<f64>],
    reports: &[DistReport],
    panel: bool,
    sums: &mut WindowSums,
    nested: &mut Ledger,
    tag: &str,
) {
    out.check(reports.len() == bs.len(), || {
        format!(
            "{tag}: {} reports for {} right-hand sides",
            reports.len(),
            bs.len()
        )
    });
    let jobs: Vec<&DistReport> = if panel {
        reports.iter().take(1).collect()
    } else {
        reports.iter().collect()
    };
    for r in &jobs {
        let st = &r.stats;
        let span = st.total_span_ns() as f64 * 1e-9;
        let route = st.total_route_ns() as f64 * 1e-9;
        sums.exec_s += span + route;
        sums.counters.msgs += st.total_msgs();
        sums.counters.relaxations += st.total_relaxations();
        nested.add("rma.span_s", span);
        nested.add("rma.route_s", route);
        nested.add("rma.compute_s", st.total_compute_ns() as f64 * 1e-9);
        nested.add("rma.steps", st.nsteps() as f64);
        nested.add("rma.msgs", st.total_msgs() as f64);
        nested.add("rma.bytes", st.total_bytes() as f64);
        nested.add("dist.msgs_solve_per_rank", st.total_msgs_solve() as f64);
        nested.add(
            "dist.msgs_residual_per_rank",
            st.total_msgs_residual() as f64,
        );
        nested.add("dist.model_time_s", st.total_time());
        nested.add("dist.relaxations_per_n", st.total_relaxations() as f64);
        nested.add(
            "trace.busy_s",
            st.worker_busy_ns.iter().sum::<u64>() as f64 * 1e-9,
        );
        nested.add("trace.capacity_s", span * st.worker_busy_ns.len() as f64);
        nested.add("trace.imbalance_sum", r.mean_imbalance());
        nested.add("trace.jobs", 1.0);
    }
    for (j, (r, b)) in reports.iter().zip(bs).enumerate() {
        let m = r.monitor_stats();
        let eval = m.eval_ns as f64 * 1e-9;
        let verify = m.verify_ns as f64 * 1e-9;
        sums.exec_s += eval + verify;
        nested.add("monitor.eval_s", eval);
        nested.add("monitor.verify_s", verify);
        nested.add("monitor.verifications", m.verifications as f64);
        nested.add("dist.steps", (r.records.len() - 1) as f64);
        nested.add("dist.active_fraction", r.active_fraction());
        if nested.on {
            let d = nested.map.entry("monitor.max_rel_drift").or_insert(0.0);
            *d = d.max(m.max_rel_drift);
        }
        sums.counters.solves += 1;
        sums.counters.steps += (r.records.len() - 1) as u64;
        sums.counters.x_bits = r.x.iter().fold(sums.counters.x_bits, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
        out.attempted += 1;
        let recomputed = vecops::norm2(&a.residual(b, &r.x));
        let claimed = r.final_residual();
        out.check(
            (recomputed - claimed).abs() <= 1e-8 * claimed.max(1.0),
            || format!("{tag} rhs {j}: report claims ‖r‖ = {claimed:e}, x gives {recomputed:e}"),
        );
        let hit = r.converged_at.is_some() && recomputed <= TARGET * (1.0 + 1e-9);
        if r.deadlocked || !hit {
            out.failed += 1;
        }
    }
}

struct Round {
    wall_s: f64,
    setup_s: f64,
    windows: Vec<ServiceStats>,
    counters: Vec<WindowCounters>,
}

/// Submits every tenant's batch (scalar or fused) and drains the service.
/// Returns the window's service stats and the wall time of the drain.
fn window(
    out: &mut Outcome,
    svc: &mut SolveService,
    ids: &[TenantId],
    batches: &[Vec<Vec<f64>>],
    panel: bool,
    additive: &mut Ledger,
) -> (ServiceStats, f64) {
    let t = Instant::now();
    for (&id, bs) in ids.iter().zip(batches) {
        let refused = if panel {
            match svc.submit_many(id, bs.clone()) {
                Ok(_) => 0,
                Err((admitted, _)) => bs.len() - admitted,
            }
        } else {
            bs.iter()
                .filter(|b| svc.submit(id, b.to_vec()).is_err())
                .count()
        };
        out.failed += refused as u64;
        out.attempted += refused as u64;
    }
    additive.add("serve.submit_s", util::secs(t));
    let t = Instant::now();
    let stats = svc.run_until_idle();
    (stats, util::secs(t))
}

fn round(
    cfg: &RunCfg,
    panel: bool,
    out: &mut Outcome,
    additive: &mut Ledger,
    nested: &mut Ledger,
) -> Round {
    let start = Instant::now();
    let a = additive.time("sparse.gen_s", problem);
    let part = additive.time("partition.multilevel_s", || partition(&a));
    let starts: Vec<(Vec<f64>, Vec<f64>)> = additive.time("bench.inputs_s", || {
        (0..TENANTS)
            .map(|t| tenant_start(&a, cfg.seed, t))
            .collect()
    });
    let opts = options();
    let t = Instant::now();
    let mut svc = SolveService::new(ServeConfig {
        workers: THREADS,
        quantum: QUANTUM,
        queue_capacity: TENANTS * K,
        seed: 1,
        ..ServeConfig::default()
    });
    let ids: Vec<TenantId> = starts
        .iter()
        .map(|(base, x0)| {
            svc.add_tenant(
                Method::DistributedSouthwell,
                a.clone(),
                base,
                x0,
                &part,
                &opts,
            )
        })
        .collect();
    additive.add("serve.add_tenant_s", util::secs(t));

    // Priming: every tenant solves its base system cold, landing on the
    // solution its windows drift from. Part of set-up, like registration.
    let prime: Vec<Vec<Vec<f64>>> = starts.iter().map(|(b, _)| vec![b.clone()]).collect();
    let (_, mut window_s) = window(out, &mut svc, &ids, &prime, false, additive);
    let setup_s = util::secs(start);
    let t = Instant::now();
    let mut sums = WindowSums::default();
    let mut scratch = Ledger::new(false);
    for (tn, (&id, bs)) in ids.iter().zip(&prime).enumerate() {
        let reports = svc.take_reports(id);
        fold_reports(
            out,
            &a,
            bs,
            &reports,
            false,
            &mut sums,
            &mut scratch,
            &format!("prime tenant {tn}"),
        );
    }
    additive.add("bench.check_s", util::secs(t));
    let mut exec_s = sums.exec_s;

    let mut windows = Vec::with_capacity(WINDOWS);
    let mut counters = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let batches: Vec<Vec<Vec<f64>>> = additive.time("bench.inputs_s", || {
            starts
                .iter()
                .enumerate()
                .map(|(t, (base, _))| window_rhs(cfg.seed, t, w, base))
                .collect()
        });
        let (stats, wall_s) = window(out, &mut svc, &ids, &batches, panel, additive);
        window_s += wall_s;
        let t = Instant::now();
        let mut sums = WindowSums::default();
        for (ti, (&id, bs)) in ids.iter().zip(&batches).enumerate() {
            let reports = svc.take_reports(id);
            fold_reports(
                out,
                &a,
                bs,
                &reports,
                panel,
                &mut sums,
                nested,
                &format!("window {w} tenant {ti}"),
            );
        }
        additive.add("bench.check_s", util::secs(t));
        exec_s += sums.exec_s;
        nested.add("serve.pool_utilization", stats.pool_utilization);
        if nested.on {
            let d = nested.map.entry("serve.max_queue_depth").or_insert(0.0);
            *d = d.max(stats.max_queue_depth as f64);
        }
        out.check(stats.solves == (TENANTS * K) as u64, || {
            format!(
                "window {w}: {} solves completed, {} submitted",
                stats.solves,
                TENANTS * K
            )
        });
        windows.push(stats);
        counters.push(sums.counters);
    }
    // The drained windows split into the sessions' own execution and
    // everything else the service did around it.
    additive.add("session.exec_s", exec_s);
    additive.add("serve.sched_other_s", window_s - exec_s);
    additive.time("bench.teardown_s", || drop((svc, a, part, starts)));
    Round {
        wall_s: util::secs(start),
        setup_s,
        windows,
        counters,
    }
}

pub fn run(cfg: &RunCfg, panel: bool) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<TracedRound> = Vec::new();
    let mut first: Option<Vec<WindowCounters>> = None;
    let mut i = 0;
    while cfg.more_rounds(start, i, 3) {
        let on = cfg.traced_round(i);
        let mut additive = Ledger::new(on);
        let mut nested = Ledger::new(on);
        let r = round(cfg, panel, &mut out, &mut additive, &mut nested);
        match &first {
            None => first = Some(r.counters.clone()),
            Some(c0) => out.check(*c0 == r.counters, || {
                format!("round {i}: deterministic window counters differ from round 0")
            }),
        }
        if on {
            traced.push(TracedRound {
                wall_s: r.wall_s,
                additive,
                nested: per_solve(nested),
            });
        } else {
            untraced.push(r);
        }
        i += 1;
    }

    let windows: Vec<&ServiceStats> = untraced.iter().flat_map(|r| &r.windows).collect();
    let col = |f: fn(&ServiceStats) -> f64| -> Vec<f64> { windows.iter().map(|s| f(s)).collect() };
    let setup: Vec<f64> = untraced.iter().map(|r| r.setup_s).collect();
    let tput = col(|s| s.solves_per_sec);
    let p50 = col(|s| s.p50_ms);
    let p99 = col(|s| s.p99_ms);
    out.e2e.insert("setup_s", util::median(&setup));
    out.e2e.insert("ops_per_s", util::median(&tput));
    out.e2e.insert("latency_p50_ms", util::median(&p50));
    out.e2e.insert("latency_p99_ms", util::median(&p99));
    let c0 = first.unwrap_or_default();
    let (msgs, solves) = c0
        .iter()
        .fold((0u64, 0u64), |(m, s), c| (m + c.msgs, s + c.solves));
    out.e2e.insert(
        "msgs_per_rank",
        msgs as f64 / solves.max(1) as f64 / RANKS as f64,
    );

    let untraced_walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    out.fold_trace(&traced, &untraced_walls);
    if cfg.trace {
        let a = problem();
        let part = partition(&a);
        let t = Instant::now();
        for tn in 0..TENANTS {
            let (b, x0) = tenant_start(&a, cfg.seed, tn);
            std::hint::black_box(distribute(&a, &b, &x0, &part).expect("serve system distributes"));
        }
        out.layers.insert("layout.distribute_s", util::secs(t));
        out.layers
            .insert("partition.edge_cut", part.edge_cut(&Graph::from_matrix(&a)));
        crate::probes::record_kernel_probes(&mut out, &a, "poisson32");
        if !panel {
            panel_probe(cfg, &mut out);
        }
    }
    out.detail.push((
        "samples".into(),
        Json::obj([
            ("rounds_untraced", Json::Int(untraced.len() as u64)),
            ("rounds_traced", Json::Int(traced.len() as u64)),
            ("windows", Json::Int(windows.len() as u64)),
            ("solves_per_window", Json::Int((TENANTS * K) as u64)),
            ("setup_s", Json::nums(&setup)),
            ("solves_per_s", Json::nums(&tput)),
            ("window_p50_ms", Json::nums(&p50)),
            ("window_p99_ms", Json::nums(&p99)),
            (
                "latency_definition",
                Json::Str(
                    "median over windows of each window's p50 / p99 (admission to completion, 512 samples per window)"
                        .into(),
                ),
            ),
        ]),
    ));
    out.detail.push((
        "window_counters".into(),
        Json::Arr(
            c0.iter()
                .map(|c| {
                    Json::obj([
                        ("solves", Json::Int(c.solves)),
                        ("msgs", Json::Int(c.msgs)),
                        ("steps", Json::Int(c.steps)),
                        ("relaxations", Json::Int(c.relaxations)),
                    ])
                })
                .collect(),
        ),
    ));
    out
}

/// The fused-panel path measured from the scalar workload's traced run:
/// one full `serve-panel` round (same tenants, seeds and right-hand
/// sides), reduced to its windows' throughput, latency, the sessions'
/// own execution, the scheduler's remainder, and messages per solve.
/// Its outputs are checked like every other round's.
fn panel_probe(cfg: &RunCfg, out: &mut Outcome) {
    let mut additive = Ledger::new(true);
    let mut nested = Ledger::new(true);
    let r = round(cfg, true, out, &mut additive, &mut nested);
    let windows_s: f64 = r.windows.iter().map(|w| w.wall_s).sum();
    let exec_s: f64 = [
        "rma.span_s",
        "rma.route_s",
        "monitor.eval_s",
        "monitor.verify_s",
    ]
    .iter()
    .map(|k| nested.map.get(k).copied().unwrap_or(0.0))
    .sum();
    let tput: Vec<f64> = r.windows.iter().map(|w| w.solves_per_sec).collect();
    let p50: Vec<f64> = r.windows.iter().map(|w| w.p50_ms).collect();
    let solves = (WINDOWS * TENANTS * K) as f64;
    let layers = &mut out.layers;
    layers.insert("panel.solves_per_s", util::median(&tput));
    layers.insert("panel.latency_p50_ms", util::median(&p50));
    layers.insert("panel.exec_s", exec_s);
    layers.insert("panel.sched_other_s", windows_s - exec_s);
    layers.insert(
        "panel.msgs_per_solve",
        nested.map.get("rma.msgs").copied().unwrap_or(0.0) / solves,
    );
}

/// Turns a traced round's nested window sums into the reported layer
/// quantities: per-solve means, ratios, and per-round totals.
fn per_solve(mut nested: Ledger) -> Ledger {
    let solves = (WINDOWS * TENANTS * K) as f64;
    let n = (GRID * GRID) as f64;
    let mut take = |k: &str| nested.map.remove(k).unwrap_or(0.0);
    let busy = take("trace.busy_s");
    let capacity = take("trace.capacity_s");
    let imbalance = take("trace.imbalance_sum");
    let jobs = take("trace.jobs");
    let mut out = Ledger::new(true);
    for (k, v) in &nested.map {
        let v = match *k {
            "dist.steps" | "dist.active_fraction" | "dist.model_time_s" => v / solves,
            "dist.relaxations_per_n" => v / solves / n,
            "dist.msgs_solve_per_rank" | "dist.msgs_residual_per_rank" => v / solves / RANKS as f64,
            "serve.pool_utilization" => v / WINDOWS as f64,
            _ => *v,
        };
        out.add(k, v);
    }
    out.add(
        "session.msgs_per_solve",
        out.map.get("rma.msgs").copied().unwrap_or(0.0) / solves,
    );
    out.add("rma.worker_utilization", busy / capacity.max(1e-300));
    out.add("rma.imbalance", imbalance / jobs.max(1.0));
    out
}
