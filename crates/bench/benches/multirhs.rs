//! Fused multi-RHS panels at the ISSUE's gate point: a tenant batch of
//! `k` right-hand sides solved as one fused panel versus `k` sequential
//! warm-started solves on the 64-rank serve workload (same problem,
//! priming pass, and drift schedule as the serve bench — see
//! `experiments::multirhs`).
//!
//! `record_metric` rows archive the measured sweep (solves/sec on both
//! sides, speedup, msgs/rank, message reduction, supersteps) into
//! `results/BENCH_multirhs.json` for every `k ∈ {4, 8, 16}`; CI's quick
//! mode (`DSW_BENCH_QUICK=1`, one timed window) gates on
//! `speedup_k8 ≥ 1.5` and `msg_reduction_k8 ≥ 3`. Full runs use three
//! windows and the tighter 2× speedup gate. The gated rows run
//! [`GATE_METHOD`] (Block Jacobi — short convergence tail, so the
//! measurement isolates the batching layer); `ds_*` rows record
//! Distributed Southwell at `k = 8`, ungated. The timed `panel_k8` case
//! measures one complete fused window over a persistent warm session.

use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use dsw_bench::experiments::multirhs::{
    run_point, GATE_K, GATE_METHOD, GATE_MSG_REDUCTION, GATE_SPEEDUP, GATE_SPEEDUP_QUICK, KS,
    WINDOWS,
};
use dsw_bench::experiments::serve::{serve_opts, serve_problem, tenant_rhs};
use dsw_core::dist::{Method, TenantSession};

fn bench_multirhs(c: &mut Criterion) {
    let quick = std::env::var("DSW_BENCH_QUICK").is_ok();
    let windows = if quick { 1 } else { WINDOWS };
    let gate_speedup = if quick {
        GATE_SPEEDUP_QUICK
    } else {
        GATE_SPEEDUP
    };

    // The measured sweep runs outside the timing loop and pins the
    // archived gate numbers (the workload is deterministic; only
    // wall-clock varies).
    for &k in &KS {
        let row = run_point(GATE_METHOD, k, windows);
        if k == GATE_K {
            if row.speedup < gate_speedup {
                eprintln!(
                    "warning: fused speedup {:.2}x at k={k} is below the {gate_speedup}x gate",
                    row.speedup
                );
            }
            if row.msg_reduction < GATE_MSG_REDUCTION {
                eprintln!(
                    "warning: message reduction {:.2}x at k={k} is below the \
                     {GATE_MSG_REDUCTION}x gate",
                    row.msg_reduction
                );
            }
        }
        record_metric(
            "multirhs",
            &format!("fused_solves_per_sec_k{k}"),
            row.fused_solves_per_sec,
        );
        record_metric(
            "multirhs",
            &format!("seq_solves_per_sec_k{k}"),
            row.seq_solves_per_sec,
        );
        record_metric("multirhs", &format!("speedup_k{k}"), row.speedup);
        record_metric(
            "multirhs",
            &format!("fused_msgs_per_rank_k{k}"),
            row.fused_msgs_per_rank,
        );
        record_metric(
            "multirhs",
            &format!("seq_msgs_per_rank_k{k}"),
            row.seq_msgs_per_rank,
        );
        record_metric(
            "multirhs",
            &format!("msg_reduction_k{k}"),
            row.msg_reduction,
        );
        record_metric(
            "multirhs",
            &format!("fused_bytes_per_rank_k{k}"),
            row.fused_bytes_per_rank,
        );
        record_metric(
            "multirhs",
            &format!("seq_bytes_per_rank_k{k}"),
            row.seq_bytes_per_rank,
        );
        record_metric(
            "multirhs",
            &format!("fused_steps_k{k}"),
            row.fused_steps as f64,
        );
        record_metric("multirhs", &format!("seq_steps_k{k}"), row.seq_steps as f64);
    }

    // The paper's method at the gate width, recorded but not gated.
    let ds = run_point(Method::DistributedSouthwell, GATE_K, windows);
    record_metric(
        "multirhs",
        "ds_fused_solves_per_sec_k8",
        ds.fused_solves_per_sec,
    );
    record_metric(
        "multirhs",
        "ds_seq_solves_per_sec_k8",
        ds.seq_solves_per_sec,
    );
    record_metric("multirhs", "ds_speedup_k8", ds.speedup);
    record_metric("multirhs", "ds_msg_reduction_k8", ds.msg_reduction);

    // Timed case: one fused k=8 window over a persistent warm session;
    // the rhs batch drifts with an iteration counter so every window
    // does real warm-restart work.
    let (a, _b, x0, part) = serve_problem();
    let n = a.nrows();
    let opts = serve_opts();
    let prime = tenant_rhs(n, 0, 0);
    let mut session = TenantSession::build(GATE_METHOD, &a, &prime, &x0, &part, &opts, None);
    session.solve(&prime);

    let mut group = c.benchmark_group("multirhs");
    group.sample_size(10);
    let mut window = 0usize;
    group.bench_function("panel_k8", |bench| {
        bench.iter(|| {
            window += 1;
            let bs: Vec<Vec<f64>> = (0..GATE_K)
                .map(|col| tenant_rhs(n, window * GATE_K + col, 1 + col))
                .collect();
            session.solve_panel(&bs, None).len()
        })
    });
    group.finish();
}

criterion_group!(multirhs, bench_multirhs);
criterion_main!(multirhs);
