//! One run loop, many entry points: every way of driving a solve must
//! produce the same run.
//!
//! 1. **Session = driver.** A [`TenantSession`]'s first solve is the
//!    one-shot [`run_method`] solve of the same problem: every record
//!    field, the verdicts, the watchdog count, the solution bits and the
//!    monitor's `evals` / `verifications` counters agree — across all four
//!    methods, the four verdict branches (converged, out of steps,
//!    diverged, frozen), `Sequential` and `Threaded(2)`, and the `Exact`,
//!    default and `Maintained { verify_every: 3 }` monitors.
//! 2. **Panel = driver.** A one-column fused panel solve from the fresh
//!    session matches too, except the modelled wire (`bytes*` and the
//!    modelled `time` they feed): packed panel messages carry a documented
//!    header and part-tag overhead per message.
//! 3. **Golden fingerprints.** The asynchronous backend and the coded
//!    (r = 2) placement have no second implementation to compare against,
//!    so their full deterministic output is folded into a hash that was
//!    recorded before the drive loops were unified. A change to either
//!    path's records, solution, verdicts or monitor counters breaks it.

use distributed_southwell::core::dist::{
    run_method, DistOptions, DistReport, DsConfig, ExecBackend, Method, MonitorMode,
    RecoveryConfig, Redundancy, StepRecord, TenantSession,
};
use distributed_southwell::partition::{partition_multilevel, Graph, MultilevelOptions, Partition};
use distributed_southwell::rma::{AsyncOptions, ChaosConfig, ExecMode};
use distributed_southwell::sparse::{gen, vecops, CsrMatrix};

/// The §4.2 setup: unit diagonal, b = 0, guess scaled to unit residual.
fn problem(nx: usize, p: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>, Partition) {
    let mut a = gen::grid2d_poisson(nx, nx);
    a.scale_unit_diagonal().expect("nonzero diagonal");
    let n = a.nrows();
    let b = vec![0.0; n];
    let mut x0 = gen::random_guess(n, 11);
    let s = 1.0 / vecops::norm2(&a.residual(&b, &x0));
    x0.iter_mut().for_each(|v| *v *= s);
    let part = partition_multilevel(&Graph::from_matrix(&a), p, MultilevelOptions::default());
    (a, b, x0, part)
}

/// Which verdict a case is built to reach.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Branch {
    Converged,
    MaxSteps,
    Diverged,
    Frozen,
}

fn options(method: Method, branch: Branch, mode: ExecMode, monitor: MonitorMode) -> DistOptions {
    let base = DistOptions {
        backend: ExecBackend::Superstep(mode),
        monitor,
        ..DistOptions::default()
    };
    match branch {
        Branch::Converged => DistOptions {
            max_steps: 200,
            // The piggyback-only foil freezes at 0.58 on this problem.
            target_residual: Some(if method == Method::ParallelSouthwellPiggybackOnly {
                0.7
            } else {
                0.1
            }),
            ..base
        },
        Branch::MaxSteps => DistOptions {
            // The piggyback-only foil goes idle at step 3.
            max_steps: if method == Method::ParallelSouthwellPiggybackOnly {
                2
            } else {
                7
            },
            target_residual: Some(1e-9),
            ..base
        },
        Branch::Diverged => DistOptions {
            // Block Jacobi relaxes every rank and drops below 0.5 at once.
            divergence_cutoff: Some(if method == Method::BlockJacobi {
                0.2
            } else {
                0.5
            }),
            ..base
        },
        Branch::Frozen => DistOptions {
            max_steps: 400,
            target_residual: Some(1e-6),
            ds_config: DsConfig {
                deadlock_avoidance: method != Method::DistributedSouthwell,
                ..DsConfig::default()
            },
            ..base
        },
    }
}

fn reached(rep: &DistReport, branch: Branch) -> bool {
    match branch {
        Branch::Converged => rep.converged_at.is_some(),
        Branch::MaxSteps => rep.converged_at.is_none() && !rep.deadlocked && !rep.diverged,
        Branch::Diverged => rep.diverged,
        Branch::Frozen => rep.deadlocked,
    }
}

/// Every deterministic field of a record. Measured wall time
/// (`compute_ns`, `imbalance`) is not part of the contract; with
/// `wire = false` the modelled bytes and time are left out too.
fn record_key(r: &StepRecord, wire: bool) -> Vec<u64> {
    let mut key = vec![
        r.step as u64,
        r.residual_norm.to_bits(),
        r.relaxations,
        r.msgs,
        r.msgs_solve,
        r.msgs_residual,
        r.msgs_recovery,
        r.msgs_redundancy,
        r.msgs_transfer,
        r.active_ranks,
    ];
    if wire {
        key.extend([
            r.bytes,
            r.bytes_solve,
            r.bytes_residual,
            r.bytes_recovery,
            r.bytes_redundancy,
            r.bytes_transfer,
            r.time.to_bits(),
        ]);
    }
    key
}

/// A report as comparable words.
#[derive(Debug, PartialEq)]
struct Print {
    records: Vec<Vec<u64>>,
    /// Verdicts, watchdog and recovery counters, monitor counters.
    summary: [u64; 9],
    /// FNV-1a of the solution bits.
    x: u64,
}

impl Print {
    fn of(rep: &DistReport, wire: bool) -> Print {
        let mon = rep.monitor_stats();
        Print {
            records: rep.records.iter().map(|r| record_key(r, wire)).collect(),
            summary: [
                rep.converged_at.map_or(u64::MAX, |s| s as u64),
                rep.deadlocked as u64,
                rep.diverged as u64,
                rep.watchdog_nudges,
                rep.drift_repairs,
                rep.stale_discards,
                mon.evals,
                mon.verifications,
                mon.max_rel_drift.to_bits(),
            ],
            x: fnv(rep.x.iter().map(|v| v.to_bits())),
        }
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let records = self.records.iter().flatten().copied();
        records.chain(self.summary).chain([self.x])
    }
}

const METHODS: [Method; 4] = [
    Method::BlockJacobi,
    Method::ParallelSouthwell,
    Method::ParallelSouthwellPiggybackOnly,
    Method::DistributedSouthwell,
];

#[test]
fn session_and_panel_solves_equal_run_method() {
    let (a, b, x0, part) = problem(16, 8);
    let monitors = [
        MonitorMode::Exact,
        MonitorMode::default(),
        MonitorMode::Maintained { verify_every: 3 },
    ];
    let mut cases = 0;
    for branch in [
        Branch::Converged,
        Branch::MaxSteps,
        Branch::Diverged,
        Branch::Frozen,
    ] {
        for method in METHODS {
            // The freeze foils: PS without explicit updates, and DS with
            // deadlock avoidance off.
            if branch == Branch::Frozen
                && !matches!(
                    method,
                    Method::ParallelSouthwellPiggybackOnly | Method::DistributedSouthwell
                )
            {
                continue;
            }
            for mode in [ExecMode::Sequential, ExecMode::Threaded(2)] {
                for monitor in monitors {
                    let tag = format!("{} {branch:?} {mode:?} {monitor:?}", method.label());
                    let o = options(method, branch, mode, monitor);
                    let whole = run_method(method, &a, &b, &x0, &part, &o);
                    assert!(
                        reached(&whole, branch),
                        "{tag}: branch not reached: final {} after {} steps, dead {}, div {}",
                        whole.final_residual(),
                        whole.records.len() - 1,
                        whole.deadlocked,
                        whole.diverged
                    );

                    let mut session = TenantSession::build(method, &a, &b, &x0, &part, &o, None);
                    let solved = session.solve(&b);
                    assert_eq!(
                        Print::of(&whole, true),
                        Print::of(&solved, true),
                        "{tag}: session"
                    );

                    let mut session = TenantSession::build(method, &a, &b, &x0, &part, &o, None);
                    let panel = session.solve_panel(std::slice::from_ref(&b), None);
                    assert_eq!(panel.len(), 1);
                    assert_eq!(
                        Print::of(&whole, false),
                        Print::of(&panel[0], false),
                        "{tag}: panel"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 14 * 2 * 3);
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(a: &CsrMatrix, b: &[f64], x0: &[f64], part: &Partition, o: &DistOptions) -> u64 {
    fnv(METHODS.iter().flat_map(|&m| {
        let print = Print::of(&run_method(m, a, b, x0, part, o), true);
        print.words().collect::<Vec<_>>()
    }))
}

fn async_options() -> AsyncOptions {
    AsyncOptions {
        advance_probability: 0.6,
        max_lag: 4,
        seed: 7,
        straggler_skew: 0.5,
    }
}

/// The asynchronous backend's output, recorded before the drive loops
/// were unified: a plain run, a chaotic run with the recovery layer, and
/// the freeze watchdog (DS without deadlock avoidance is nudged, the
/// piggyback-only PS foil deadlocks).
#[test]
fn async_backend_matches_golden_fingerprint() {
    let (a, b, x0, part) = problem(16, 8);
    let plain = DistOptions {
        max_steps: 120,
        backend: ExecBackend::Async(async_options()),
        ..DistOptions::default()
    };
    let chaotic = DistOptions {
        chaos: ChaosConfig {
            drop_rate: 0.1,
            duplicate_rate: 0.05,
            seed: 3,
            ..ChaosConfig::none()
        },
        ds_config: DsConfig {
            recovery: RecoveryConfig::standard(),
            ..DsConfig::default()
        },
        monitor: MonitorMode::Maintained { verify_every: 3 },
        ..plain
    };
    let watchdog = DistOptions {
        target_residual: Some(1e-6),
        max_steps: 300,
        ds_config: DsConfig {
            deadlock_avoidance: false,
            recovery: RecoveryConfig {
                watchdog: true,
                ..RecoveryConfig::off()
            },
            ..DsConfig::default()
        },
        ..plain
    };
    let rescued = run_method(Method::DistributedSouthwell, &a, &b, &x0, &part, &watchdog);
    assert!(rescued.watchdog_nudges > 0, "the watchdog case must nudge");
    let got = [plain, chaotic, watchdog].map(|o| fingerprint(&a, &b, &x0, &part, &o));
    assert_eq!(got, ASYNC_GOLDEN, "async fingerprints {got:#018x?}");
}

/// The coded r = 2 placement's output on both backends, recorded before
/// the drive loops were unified.
#[test]
fn coded_placement_matches_golden_fingerprint() {
    let (a, b, x0, part) = problem(16, 8);
    let superstep = DistOptions {
        max_steps: 80,
        redundancy: Some(Redundancy::new(2)),
        monitor: MonitorMode::Maintained { verify_every: 3 },
        ..DistOptions::default()
    };
    let asynchronous = DistOptions {
        max_steps: 120,
        backend: ExecBackend::Async(async_options()),
        ..superstep
    };
    let got = [superstep, asynchronous].map(|o| fingerprint(&a, &b, &x0, &part, &o));
    assert_eq!(got, CODED_GOLDEN, "coded fingerprints {got:#018x?}");
}

const ASYNC_GOLDEN: [u64; 3] = [0x8d8670ef39a4fa87, 0xa70f0ba19fa7f807, 0x67f4dc906198dcf9];
const CODED_GOLDEN: [u64; 2] = [0x2f6d347de54425f0, 0x1af6b17766ca0865];
