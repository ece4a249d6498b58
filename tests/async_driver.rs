//! Driver-level properties of the asynchronous backend
//! ([`ExecBackend::Async`]): the full `run_method` stack — probabilistic
//! scheduler, straggler skew, chaos injection, maintained monitoring with
//! exact verification, recovery accounting — is deterministic per seed,
//! and a convergence verdict is never declared off an unverified
//! maintained norm (mirroring `tests/monitor_properties.rs` for the
//! superstep backend).

use distributed_southwell::core::dist::{
    run_method, DistOptions, DsConfig, ExecBackend, Method, MonitorMode, RecoveryConfig, Redundancy,
};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use distributed_southwell::rma::{AsyncOptions, ChaosConfig, ClassCounts, CommClass, ExecMode};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};
use proptest::prelude::*;

/// The §4.2 setup: unit diagonal, b = 0, guess scaled to unit residual.
fn problem(nx: usize, p: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
    let mut a = gen::grid2d_poisson(nx, nx);
    a.scale_unit_diagonal().unwrap();
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 11);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = partition_multilevel(&Graph::from_matrix(&a), p, MultilevelOptions::default());
    (a, b, x0, part)
}

/// The deterministic fields of one `StepRecord`: step, residual bits,
/// relaxations, msgs, per-class msgs sum, redundancy msgs, bytes, active.
type RecordKey = (usize, u64, u64, u64, u64, u64, u64, u64);

/// Every deterministic observable of a finished run, bitwise-comparable.
/// Measured timing (`compute_ns`, `imbalance`, monitor nanoseconds) is
/// deliberately excluded — wall-clock is not part of the contract.
#[derive(Debug, PartialEq)]
struct ReportPrint {
    records: Vec<RecordKey>,
    x: Vec<u64>,
    converged_at: Option<usize>,
    deadlocked: bool,
    diverged: bool,
    watchdog_nudges: u64,
    drift_repairs: u64,
    stale_discards: u64,
    faults: (u64, u64, u64),
    msgs_per_rank: Vec<u64>,
    evals: u64,
    verifications: u64,
    max_rel_drift_bits: u64,
}

fn print_of(rep: &distributed_southwell::core::dist::DistReport) -> ReportPrint {
    let faults = rep.stats.total_faults();
    let mon = rep.monitor_stats();
    // Record `i` carries the prefix sum of the first `i` step tables.
    let mut msgs = ClassCounts::default();
    let per_record = std::iter::once(msgs).chain(rep.stats.steps.iter().map(|s| {
        msgs.accumulate(&s.msgs);
        msgs
    }));
    ReportPrint {
        records: rep
            .records
            .iter()
            .zip(per_record)
            .map(|(r, m)| {
                (
                    r.step,
                    r.residual_norm.to_bits(),
                    r.relaxations,
                    r.msgs,
                    m.of(CommClass::Solve)
                        + m.of(CommClass::Residual)
                        + m.of(CommClass::Recovery)
                        + m.of(CommClass::Redundancy),
                    m.of(CommClass::Redundancy),
                    r.bytes,
                    r.active_ranks,
                )
            })
            .collect(),
        x: rep.x.iter().map(|v| v.to_bits()).collect(),
        converged_at: rep.converged_at,
        deadlocked: rep.deadlocked,
        diverged: rep.diverged,
        watchdog_nudges: rep.watchdog_nudges,
        drift_repairs: rep.drift_repairs,
        stale_discards: rep.stale_discards,
        faults: (
            faults.dropped.total(),
            faults.duplicated.total(),
            faults.delayed.total(),
        ),
        msgs_per_rank: rep.stats.msgs_per_rank.clone(),
        evals: mon.evals,
        verifications: mon.verifications,
        max_rel_drift_bits: mon.max_rel_drift.to_bits(),
    }
}

fn async_opts(chaos: ChaosConfig, skew: f64, seed: u64) -> DistOptions {
    DistOptions {
        max_steps: 40,
        backend: ExecBackend::Async(AsyncOptions {
            advance_probability: 0.6,
            max_lag: 5,
            seed,
            straggler_skew: skew,
        }),
        chaos,
        // Chaos drops protocol messages, so run with the recovery layer on
        // — exercising PR 1's sequencing + audit under async delivery.
        ds_config: DsConfig {
            recovery: RecoveryConfig::standard(),
            ..DsConfig::default()
        },
        monitor: MonitorMode::Maintained { verify_every: 7 },
        ..DistOptions::default()
    }
}

proptest! {
    // Each case runs six full driver runs; keep the count container-sized.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed ⇒ bit-identical `DistReport`, for every method, with and
    /// without chaos, homogeneous and skewed.
    #[test]
    fn async_runs_are_bit_identical_per_seed(
        seed in 0u64..500,
        skew in 0.0f64..0.8,
        chaotic_sel in 0u64..2,
    ) {
        let (a, b, x0, part) = problem(12, 6);
        let chaotic = chaotic_sel == 1;
        let chaos = if chaotic {
            ChaosConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                delay_rate: 0.1,
                max_delay_epochs: 2,
                seed: seed ^ 0xc0ffee,
                ..ChaosConfig::none()
            }
        } else {
            ChaosConfig::none()
        };
        let opts = async_opts(chaos, skew, seed);
        for m in [
            Method::BlockJacobi,
            Method::ParallelSouthwell,
            Method::DistributedSouthwell,
        ] {
            let r1 = run_method(m, &a, &b, &x0, &part, &opts);
            let r2 = run_method(m, &a, &b, &x0, &part, &opts);
            prop_assert_eq!(
                print_of(&r1),
                print_of(&r2),
                "{:?} not deterministic (seed {}, skew {}, chaos {})",
                m, seed, skew, chaotic
            );
        }
    }

    /// Verified convergence under async delivery: whenever the driver
    /// declares `converged_at`, the *true* residual of the reported
    /// solution meets the target — maintained-norm drift from dropped or
    /// reordered deltas can never fake a convergence verdict.
    #[test]
    fn async_convergence_verdicts_are_always_verified(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        skew in 0.0f64..0.8,
        seed in 0u64..500,
    ) {
        let (a, b, x0, part) = problem(12, 6);
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            seed,
            ..ChaosConfig::none()
        };
        let target = 0.1;
        let mut opts = async_opts(chaos, skew, seed);
        opts.max_steps = 80;
        opts.target_residual = Some(target);
        let rep = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let true_norm = vecops::norm2(&a.residual(&b, &rep.x));
        if rep.converged_at.is_some() {
            prop_assert!(
                true_norm <= target * (1.0 + 1e-9),
                "declared convergence at tick {:?} but true residual is {} (target {})",
                rep.converged_at, true_norm, target
            );
        }
        // The final record is always exact, converged or not.
        prop_assert!(
            (rep.final_residual() - true_norm).abs() <= 1e-12 * true_norm.max(1.0),
            "final record {} vs true {}",
            rep.final_residual(), true_norm
        );
        // Monitoring ran in maintained mode: cheap evals dominate, exact
        // verifications happened at least on the cadence and the end.
        let mon = rep.monitor_stats();
        prop_assert!(mon.evals > 0);
        prop_assert!(mon.verifications > 0);
        prop_assert!(mon.evals >= mon.verifications);
    }

    /// `redundancy: Some(r = 1)` is the identity placement: bit-identical
    /// `DistReport` to the uncoded run on every backend — sequential and
    /// threaded supersteps and the async scheduler — with chaos on or off.
    #[test]
    fn redundancy_r1_bit_identical_to_uncoded_across_backends(
        seed in 0u64..500,
        chaotic_sel in 0u64..2,
    ) {
        let (a, b, x0, part) = problem(12, 6);
        let chaos = if chaotic_sel == 1 {
            ChaosConfig {
                drop_rate: 0.1,
                duplicate_rate: 0.1,
                delay_rate: 0.1,
                max_delay_epochs: 2,
                seed: seed ^ 0xc0ffee,
                ..ChaosConfig::none()
            }
        } else {
            ChaosConfig::none()
        };
        for backend in [
            ExecBackend::Superstep(ExecMode::Sequential),
            ExecBackend::Superstep(ExecMode::Threaded(3)),
            ExecBackend::Async(AsyncOptions {
                advance_probability: 0.6,
                max_lag: 5,
                seed,
                straggler_skew: 0.5,
            }),
        ] {
            let base = DistOptions { backend, ..async_opts(chaos, 0.5, seed) };
            let coded = DistOptions {
                redundancy: Some(Redundancy::new(1)),
                ..base
            };
            let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &base);
            let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &coded);
            prop_assert_eq!(
                print_of(&r1),
                print_of(&r2),
                "r = 1 diverged from uncoded (seed {}, chaos {})",
                seed, chaotic_sel == 1
            );
        }
    }

    /// Coded placements (r ∈ {2, 3}) on the async backend: deterministic
    /// per seed, redundancy traffic lands in its own class, and verdicts
    /// stay verified (the true residual of the representative solution
    /// matches the final record).
    #[test]
    fn coded_async_runs_are_deterministic_and_verified(
        r_extra in 0usize..2,
        seed in 0u64..500,
        skew in 0.0f64..0.8,
    ) {
        let (a, b, x0, part) = problem(12, 6);
        let r = 2 + r_extra;
        let opts = DistOptions {
            redundancy: Some(Redundancy::new(r)),
            ..async_opts(ChaosConfig::none(), skew, seed)
        };
        let r1 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        let r2 = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &opts);
        prop_assert_eq!(
            print_of(&r1),
            print_of(&r2),
            "r = {} not deterministic (seed {}, skew {})",
            r, seed, skew
        );
        let last = r1.records.last().unwrap();
        let msgs = r1.stats.msgs_by_class();
        prop_assert!(msgs.of(CommClass::Redundancy) > 0, "replica fan-out must be accounted");
        prop_assert_eq!(last.msgs, msgs.total());
        prop_assert_eq!(msgs.of(CommClass::Transfer), 0);
        let true_norm = vecops::norm2(&a.residual(&b, &r1.x));
        prop_assert!(
            (r1.final_residual() - true_norm).abs() <= 1e-12 * true_norm.max(1.0),
            "final record {} vs true {}",
            r1.final_residual(), true_norm
        );
    }
}
