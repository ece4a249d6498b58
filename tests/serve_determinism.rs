//! Determinism and isolation contract for the serving layer
//! (`dsw_serve::SolveService`), in the style of
//! `tests/executor_determinism.rs`:
//!
//! * **Schedule determinism** — given the same `(seed, tenant set,
//!   arrival order)`, every per-tenant [`DistReport`] is bit-identical
//!   regardless of the shared pool's worker count. The scheduler's visit
//!   order is a pure function of `(seed, round)`, and the executor's
//!   pool-size determinism contract (see `executor_determinism.rs`)
//!   extends it down to the superstep level.
//! * **Tenant isolation** — a tenant's reports under multiplexing are
//!   bit-identical to a solo [`TenantSession`] solving the same job
//!   sequence on a dedicated sequential executor. Interleaving with
//!   other tenants shapes only latency, never results or accounting.
//!
//! Timing-derived fields (`compute_ns`, `imbalance`, wall-clock monitor
//! numbers) are measured, not modelled, so fingerprints compare the
//! modelled/semantic fields only.

use distributed_southwell::core::dist::{
    DistOptions, DistReport, ExecBackend, Method, MonitorMode, TenantSession,
};
use distributed_southwell::partition::Partition;
use distributed_southwell::rma::ExecMode;
use distributed_southwell::serve::{ServeConfig, SolveService, TenantId};
use distributed_southwell::sparse::{gen, CsrMatrix};

/// One step record's semantic fields: (step, residual bits, relaxations,
/// msgs, solve msgs, residual msgs, bytes, modelled-time bits, active
/// ranks).
type RecordPrint = (usize, u64, u64, u64, u64, u64, u64, u64, u64);

/// The semantic content of one report, bitwise-comparable. Excludes
/// measured timing (`compute_ns`, `imbalance`, monitor drift floats are
/// kept — they are modelled arithmetic, not clocks).
#[derive(Debug, PartialEq)]
struct ReportPrint {
    method: Method,
    records: Vec<RecordPrint>,
    x: Vec<u64>,
    converged_at: Option<usize>,
    deadlocked: bool,
    diverged: bool,
    msgs_per_rank: Vec<u64>,
}

fn print(rep: &DistReport) -> ReportPrint {
    ReportPrint {
        method: rep.method,
        records: rep
            .records
            .iter()
            .map(|r| {
                (
                    r.step,
                    r.residual_norm.to_bits(),
                    r.relaxations,
                    r.msgs,
                    r.msgs_solve,
                    r.msgs_residual,
                    r.bytes,
                    r.time.to_bits(),
                    r.active_ranks,
                )
            })
            .collect(),
        x: rep.x.iter().map(|v| v.to_bits()).collect(),
        converged_at: rep.converged_at,
        deadlocked: rep.deadlocked,
        diverged: rep.diverged,
        msgs_per_rank: rep.stats.msgs_per_rank.clone(),
    }
}

fn poisson(side: usize) -> CsrMatrix {
    gen::grid2d_poisson(side, side)
}

fn block_partition(n: usize, p: usize) -> Partition {
    Partition::new(p, (0..n).map(|i| i * p / n).collect())
}

fn opts() -> DistOptions {
    DistOptions {
        backend: ExecBackend::Superstep(ExecMode::Sequential),
        monitor: MonitorMode::Exact,
        target_residual: Some(1e-3),
        max_steps: 400,
        ..DistOptions::default()
    }
}

/// Mixed-method tenant set: (method, rhs phase) per tenant.
const TENANTS: [(Method, usize); 5] = [
    (Method::DistributedSouthwell, 0),
    (Method::BlockJacobi, 1),
    (Method::ParallelSouthwell, 2),
    (Method::DistributedSouthwell, 3),
    (Method::BlockJacobi, 4),
];

fn rhs(n: usize, phase: usize, job: usize) -> Vec<f64> {
    (0..n)
        .map(|j| ((phase * 3 + job * 11 + j) % 7) as f64 * 0.1)
        .collect()
}

/// Registers the fixed tenant set, submits `jobs` right-hand sides per
/// tenant (in arrival order: round-robin over tenants), drains the
/// service, and returns each tenant's report fingerprints.
fn run_service(workers: usize, seed: u64, jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let mut svc = SolveService::new(ServeConfig {
        workers,
        quantum: 3,
        queue_capacity: 64,
        seed,
        ..ServeConfig::default()
    });
    let ids: Vec<TenantId> = TENANTS
        .iter()
        .map(|&(method, phase)| {
            svc.add_tenant(
                method,
                a.clone(),
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
            )
        })
        .collect();
    for job in 0..jobs {
        for (&id, &(_, phase)) in ids.iter().zip(TENANTS.iter()) {
            svc.submit(id, rhs(n, phase, job)).expect("queue has room");
        }
    }
    let stats = svc.run_until_idle();
    assert_eq!(stats.solves as usize, TENANTS.len() * jobs);
    ids.iter()
        .map(|&id| svc.take_reports(id).iter().map(print).collect())
        .collect()
}

/// The same job sequence solved solo: one persistent session per tenant
/// on a dedicated sequential executor, no multiplexing.
fn run_solo(jobs: usize) -> Vec<Vec<ReportPrint>> {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    TENANTS
        .iter()
        .map(|&(method, phase)| {
            let mut session = TenantSession::build(
                method,
                &a,
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
                None,
            );
            (0..jobs)
                .map(|job| print(&session.solve(&rhs(n, phase, job))))
                .collect()
        })
        .collect()
}

/// Same `(seed, tenant set, arrival order)` ⇒ bit-identical per-tenant
/// reports regardless of the shared pool's size.
#[test]
fn reports_are_bit_identical_across_pool_sizes() {
    let reference = run_service(1, 42, 2);
    for workers in [2usize, 3] {
        let other = run_service(workers, 42, 2);
        assert_eq!(
            reference, other,
            "a {workers}-worker pool changed a tenant report"
        );
    }
}

/// Different scheduler seeds permute the visit order but leave every
/// report untouched: the schedule shapes latency only.
#[test]
fn scheduler_seed_does_not_leak_into_reports() {
    let reference = run_service(2, 0, 2);
    let reseeded = run_service(2, 31337, 2);
    assert_eq!(reference, reseeded, "seed leaked into a tenant report");
}

/// Runs the two-phase eviction scenario at the given residency cap and
/// returns (per-tenant fingerprints, evictions, rebuilds). Tenant 0 is
/// registered first (so the LRU evicts it before it ever solves), sits
/// out phase one while the other four solve twice, then comes back for
/// one job in phase two — forcing a warm re-admission under the cap.
fn run_evicting(cap: usize) -> (Vec<Vec<ReportPrint>>, u64, u64) {
    let a = poisson(12);
    let n = a.nrows();
    let part = block_partition(n, 4);
    let mut svc = SolveService::new(ServeConfig {
        workers: 2,
        quantum: 3,
        queue_capacity: 64,
        seed: 42,
        max_resident: cap,
    });
    let ids: Vec<TenantId> = TENANTS
        .iter()
        .map(|&(method, phase)| {
            svc.add_tenant(
                method,
                a.clone(),
                &rhs(n, phase, 0),
                &vec![0.0; n],
                &part,
                &opts(),
            )
        })
        .collect();
    for job in 0..2 {
        for (&id, &(_, phase)) in ids.iter().zip(TENANTS.iter()).skip(1) {
            svc.submit(id, rhs(n, phase, job)).expect("queue has room");
        }
    }
    svc.run_until_idle();
    assert!(svc.resident_tenants() <= cap.max(1));
    svc.submit(ids[0], rhs(n, TENANTS[0].1, 0))
        .expect("queue has room");
    svc.run_until_idle();
    let prints = ids
        .iter()
        .map(|&id| svc.take_reports(id).iter().map(print).collect())
        .collect();
    (prints, svc.evictions(), svc.rebuilds())
}

/// Capacity eviction is invisible in the results: every tenant's reports
/// under a residency cap — including the tenant that was evicted cold
/// and rebuilt on re-admission — are bit-identical to the uncapped
/// service's. Eviction moves memory, never math.
#[test]
fn lru_eviction_does_not_perturb_any_tenant_report() {
    let (reference, ev_ref, rb_ref) = run_evicting(usize::MAX);
    assert_eq!((ev_ref, rb_ref), (0, 0), "uncapped service must not evict");
    let (capped, ev, rb) = run_evicting(4);
    assert!(
        ev >= 2,
        "registration and re-admission must each evict (got {ev})"
    );
    assert_eq!(rb, 1, "exactly the returning tenant rebuilds");
    assert_eq!(reference, capped, "eviction changed a tenant report");
}

/// Multiplexed tenants get the exact reports a dedicated solo session
/// produces for the same job sequence — step records, message and byte
/// accounting, per-rank counters, solutions, verdicts.
#[test]
fn multiplexed_reports_match_solo_sessions() {
    let multiplexed = run_service(2, 7, 2);
    let solo = run_solo(2);
    for (t, (m, s)) in multiplexed.iter().zip(solo.iter()).enumerate() {
        assert_eq!(
            m, s,
            "tenant {t} ({:?}) diverged from its solo session",
            TENANTS[t].0
        );
    }
}
