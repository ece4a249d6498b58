//! Protocol-level invariants of the Distributed Southwell implementation,
//! checked from outside the crate through the public API.

use distributed_southwell::core::dist::{
    distribute, run_method, DistOptions, DistReport, DistributedSouthwellRank, DsConfig,
    ExecBackend, Method, ParallelSouthwellRank, Redundancy, TenantSession,
};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use distributed_southwell::rma::{
    AsyncOptions, ChaosConfig, ClassCounts, CommClass, CostModel, ExecMode, Executor,
};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};

/// The §4.2 setup on an `nx × nx` grid over `p` ranks: unit diagonal,
/// `b = 0`, guess scaled to a unit residual.
fn ds_problem(nx: usize, p: usize, seed: u64) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
    let mut a = gen::grid2d_poisson(nx, nx);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, seed);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = partition_multilevel(&Graph::from_matrix(&a), p, MultilevelOptions::default());
    (a, b, x0, part)
}

fn build_ds_executor(
    nx: usize,
    p: usize,
    seed: u64,
) -> (CsrMatrix, Vec<f64>, Executor<DistributedSouthwellRank>) {
    let (a, b, x0, part) = ds_problem(nx, p, seed);
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let r0 = a.residual(&b, &x0);
    let ranks = DistributedSouthwellRank::build_with(locals, &norms, &r0, DsConfig::default());
    (
        a,
        b,
        Executor::new(ranks, CostModel::default(), ExecMode::Sequential),
    )
}

#[test]
fn ghost_layers_hold_true_boundary_residuals_at_quiescence() {
    // After a step with no explicit updates in flight, each rank's ghost
    // layer z must match the owning rank's actual residual values at the
    // positions the protocol keeps fresh — whenever either endpoint
    // communicated recently. We verify the weaker but universal invariant:
    // Γ̃ records mirror the neighbor's Γ entries (the paper's "always
    // exactly known" claim).
    let (_, _, mut ex) = build_ds_executor(18, 9, 3);
    let mut checked = 0;
    for _ in 0..80 {
        let s = ex.step();
        if s.msgs.of(CommClass::Residual) != 0 {
            continue;
        }
        checked += 1;
        for p in ex.ranks() {
            for (slot, &q) in p.ls.neighbors.iter().enumerate() {
                let qr = &ex.ranks()[q];
                let back = qr.ls.neighbor_slot(p.ls.rank);
                let gamma = qr.gamma_sq[back];
                assert!(
                    (p.tilde_sq[slot] - gamma).abs() <= 1e-12 * gamma.max(1.0),
                    "rank {} vs neighbor {q}",
                    p.ls.rank
                );
            }
        }
    }
    assert!(checked > 0);
}

#[test]
fn gamma_estimates_never_break_progress() {
    // Whatever the estimates do, some rank must relax within any window of
    // a few steps until convergence (global progress, i.e. deadlock
    // freedom with avoidance enabled).
    let (a, b, mut ex) = build_ds_executor(20, 12, 5);
    let mut idle_run = 0;
    for _ in 0..300 {
        let s = ex.step();
        if s.relaxations == 0 {
            idle_run += 1;
            assert!(
                idle_run <= 2,
                "three consecutive idle steps should be impossible"
            );
        } else {
            idle_run = 0;
        }
        // Converged?
        let mut x = vec![0.0; a.nrows()];
        for r in ex.ranks() {
            for (li, &g) in r.ls.rows.iter().enumerate() {
                x[g] = r.ls.x[li];
            }
        }
        if vecops::norm2(&a.residual(&b, &x)) < 1e-8 {
            return;
        }
    }
}

/// Checks the message-counter conservation laws of one report:
/// Σ `msgs_per_rank` = Σ per-step `msgs.total()` = Σ over classes of
/// `msgs_by_class()`, and record `i`'s four counters are the prefix sums of
/// the first `i` step tables.
fn assert_counters_conserved(rep: &DistReport, tag: &str) {
    let stats = &rep.stats;
    let per_rank: u64 = stats.msgs_per_rank.iter().sum();
    let per_step: u64 = stats.steps.iter().map(|s| s.msgs.total()).sum();
    let by_class = stats.msgs_by_class();
    let per_class: u64 = CommClass::ALL.iter().map(|&c| by_class.of(c)).sum();
    assert!(per_step > 0, "{tag}: the run sent messages");
    assert_eq!(per_rank, per_step, "{tag}: per rank vs per step");
    assert_eq!(per_class, per_step, "{tag}: per class vs per step");
    // A panel column that finishes early has fewer records than the
    // panel has steps; every record it has is still a prefix.
    assert!(rep.records.len() <= stats.steps.len() + 1, "{tag}");
    let (mut msgs, mut bytes) = (ClassCounts::default(), ClassCounts::default());
    for (i, rec) in rep.records.iter().enumerate() {
        if i > 0 {
            msgs.accumulate(&stats.steps[i - 1].msgs);
            bytes.accumulate(&stats.steps[i - 1].bytes);
        }
        assert_eq!(
            (rec.msgs, rec.msgs_solve, rec.msgs_residual, rec.bytes),
            (
                msgs.total(),
                msgs.of(CommClass::Solve),
                msgs.of(CommClass::Residual),
                bytes.total()
            ),
            "{tag}: record {i} is not the prefix sum of its steps"
        );
    }
}

#[test]
fn message_counters_are_conserved() {
    // Total per-rank counters equal the per-step sums and the per-class
    // sums (conservation of the paper's comm-cost metric), and the
    // cumulative records are prefix sums of the step tables — on every
    // substrate path a report can come from.
    let (a, b, x0, part) = ds_problem(16, 8, 7);
    let base = DistOptions {
        max_steps: 30,
        target_residual: None,
        ..DistOptions::default()
    };
    let ds = Method::DistributedSouthwell;

    let sequential = run_method(ds, &a, &b, &x0, &part, &base);
    assert_counters_conserved(&sequential, "Sequential");
    // Without faults, recovery or coding, Table 3's two classes are all
    // the traffic there is.
    assert_eq!(
        sequential.stats.total_msgs_solve() + sequential.stats.total_msgs_residual(),
        sequential.stats.total_msgs()
    );

    let dropped = DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Threaded(2)),
        chaos: ChaosConfig {
            drop_rate: 0.1,
            seed: 5,
            ..ChaosConfig::none()
        },
        ..base
    };
    let rep = run_method(ds, &a, &b, &x0, &part, &dropped);
    assert!(rep.stats.total_msgs_dropped() > 0, "chaos dropped messages");
    assert_counters_conserved(&rep, "Threaded(2) with drops");

    let asynchronous = DistOptions {
        backend: ExecBackend::Async(AsyncOptions::default()),
        ..base
    };
    assert_counters_conserved(
        &run_method(ds, &a, &b, &x0, &part, &asynchronous),
        "AsyncExecutor",
    );

    let coded = DistOptions {
        redundancy: Some(Redundancy::new(2)),
        ..base
    };
    let rep = run_method(ds, &a, &b, &x0, &part, &coded);
    assert!(rep.stats.msgs_by_class().of(CommClass::Redundancy) > 0);
    assert_counters_conserved(&rep, "coded r = 2");

    // With a target, the first column reaches it steps before the
    // second: its records stop early while the panel's steps go on.
    let panel_opts = DistOptions {
        max_steps: 200,
        target_residual: Some(0.5),
        ..base
    };
    let mut session = TenantSession::build(ds, &a, &b, &x0, &part, &panel_opts, None);
    let b2: Vec<f64> = gen::random_guess(a.nrows(), 3);
    let panel = session.solve_panel(&[b.clone(), b2], None);
    assert_eq!(panel.len(), 2);
    assert!(panel[0].records.len() < panel[1].records.len());
    for (c, rep) in panel.iter().enumerate() {
        assert_counters_conserved(rep, &format!("panel column {c} of 2"));
    }
}

#[test]
fn ps_explicit_updates_follow_norm_changes_only() {
    // Parallel Southwell sends explicit updates only in steps where some
    // rank's residual actually changed without it relaxing; in a fully
    // quiet step (no relaxation anywhere) there must be no new residual
    // messages beyond the first settling step.
    let mut a = gen::grid2d_poisson(12, 12);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 2);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = partition_multilevel(&Graph::from_matrix(&a), 6, MultilevelOptions::default());
    let locals = distribute(&a, &b, &x0, &part).unwrap();
    let norms: Vec<f64> = locals.iter().map(|l| l.residual_norm_sq()).collect();
    let ranks = ParallelSouthwellRank::build(locals, &norms);
    let mut ex = Executor::new(ranks, CostModel::default(), ExecMode::Sequential);
    for _ in 0..40 {
        let s = ex.step();
        if s.relaxations == 0 {
            // No one relaxed: no residual can have changed in this step's
            // phase 1, so no explicit updates were sent in it. (Residual
            // messages *read* this step were sent earlier.)
            assert_eq!(
                s.msgs.of(CommClass::Solve),
                0,
                "no solve messages without relaxations"
            );
        }
    }
}
