//! Property test for the superstep executor's epoch close: the inboxes a
//! rank observes — every envelope, in order, with source, class, and
//! payload — are **byte-identical** between an independent reference
//! router (the lock-step asynchronous executor, which delivers origin-major
//! at its tick boundaries) and every scheduling combination of the
//! superstep executor's reverse-neighbor bucketed close: serial or chunked
//! across the worker pool, on pool sizes 1–3, with drops, duplicates,
//! delays, and stalls injected. The test program exercises multiple puts
//! per edge, multiple message classes, and both phases of a two-phase step
//! on grids of 1, 7, 64 and 65 ranks — a lone rank, fewer ranks than phase
//! chunks, an exact chunk multiple, and a short last chunk.

use distributed_southwell::rma::{
    AsyncExecutor, AsyncOptions, ChaosConfig, CommClass, CostModel, Envelope, ExecMode, Executor,
    PhaseCtx, RankAlgorithm, RedundantHost, RunStats, StepStats,
};
use proptest::prelude::*;

/// A gossiping rank on a `w × h` grid: phase 0 sends a solve update to
/// every 4-neighbor (plus, on a third of the steps, an extra residual
/// message — two puts on the same edge in one epoch); phase 1 sends a
/// recovery message to the first neighbor on alternating steps. Every
/// inbox it ever observes is logged verbatim.
/// One logged inbox: `(phase, [(src, class, payload)])`.
type InboxLog = (usize, Vec<(usize, u8, u64)>);

struct Gossip {
    id: usize,
    w: usize,
    h: usize,
    step: u64,
    log: Vec<InboxLog>,
}

impl Gossip {
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

impl RankAlgorithm for Gossip {
    type Msg = u64;

    fn phases(&self) -> usize {
        2
    }

    fn put_targets(&self) -> Vec<usize> {
        self.neighbors()
    }

    fn phase(&mut self, phase: usize, inbox: &[Envelope<u64>], ctx: &mut PhaseCtx<u64>) {
        self.log.push((
            phase,
            inbox
                .iter()
                .map(|e| (e.src, e.class as u8, e.payload))
                .collect(),
        ));
        match phase {
            0 => {
                for t in self.neighbors() {
                    let tag = (self.id as u64) << 32 | self.step << 8;
                    ctx.put(t, CommClass::Solve, tag, 16);
                    if (self.id as u64 + self.step).is_multiple_of(3) {
                        ctx.put(t, CommClass::Residual, tag | 1, 8);
                    }
                }
                ctx.add_flops(4);
                ctx.record_relaxations(1);
            }
            _ => {
                if let Some(&t) = self.neighbors().first() {
                    if (self.id as u64 + self.step).is_multiple_of(2) {
                        ctx.put(t, CommClass::Recovery, self.step, 4);
                    }
                }
                self.step += 1;
            }
        }
    }
}

/// Everything observable, bitwise-comparable: the full per-rank inbox
/// logs, the run totals of the deterministic step counters, the per-rank
/// message counts, and the fault tallies. Totals rather than per-step
/// counters, because the asynchronous reference records one pseudo-step
/// per tick where the superstep executor records one per parallel step.
#[derive(Debug, PartialEq)]
struct Observed {
    logs: Vec<Vec<InboxLog>>,
    totals: [u64; 15],
    msgs_per_rank: Vec<u64>,
    faults: (u64, u64, u64, u64),
}

/// Parallel steps the randomized runs execute.
const STEPS: usize = 8;

/// One superstep-executor configuration: exec mode and parallel-close
/// threshold ([`SERIAL`] or [`POOLED`]).
type Path = (ExecMode, u64);

/// Every pool size 1–3, each closing on the pool where it can (a
/// one-worker pool closes serially), plus the fully serial path.
const ALL_PATHS: [Path; 4] = [
    (ExecMode::Sequential, SERIAL),
    (ExecMode::Threaded(1), POOLED),
    (ExecMode::Threaded(2), POOLED),
    (ExecMode::Threaded(3), POOLED),
];

/// Grid shapes `(w, h)` of 1, 7, 64 and 65 ranks.
const SHAPES: [(usize, usize); 4] = [(1, 1), (7, 1), (8, 8), (13, 5)];

/// A close threshold no phase reaches: every epoch closes serially.
const SERIAL: u64 = u64::MAX;
/// A zero close threshold: every epoch closes on the pool (≥ 2 workers).
const POOLED: u64 = 0;

/// Targeted `(rank, steps)` stalls injected before the run, and the number
/// of parallel steps to execute.
type Schedule<'a> = (&'a [(usize, usize)], usize);

fn gossip_grid(w: usize, h: usize) -> Vec<Gossip> {
    (0..w * h)
        .map(|id| Gossip {
            id,
            w,
            h,
            step: 0,
            log: Vec::new(),
        })
        .collect()
}

fn observe(logs: Vec<Vec<InboxLog>>, stats: &RunStats) -> Observed {
    let mut totals = [0u64; 15];
    for s in &stats.steps {
        let msgs = CommClass::ALL.map(|c| s.msgs.of(c));
        let bytes = CommClass::ALL.map(|c| s.bytes.of(c));
        let row = [
            s.msgs.total(),
            msgs[0],
            msgs[1],
            msgs[2],
            msgs[3],
            msgs[4],
            s.bytes.total(),
            bytes[0],
            bytes[1],
            bytes[2],
            bytes[3],
            bytes[4],
            s.flops,
            s.relaxations,
            s.active_ranks,
        ];
        for (t, v) in totals.iter_mut().zip(row) {
            *t += v;
        }
    }
    let f = stats.total_faults();
    Observed {
        logs,
        totals,
        msgs_per_rank: stats.msgs_per_rank.clone(),
        faults: (
            f.dropped.total(),
            f.duplicated.total(),
            f.delayed.total(),
            f.stalled_ranks,
        ),
    }
}

/// The independent reference: the lock-step [`AsyncExecutor`] (every rank
/// advances on every tick, no lag bound in reach), whose tick-boundary
/// router delivers origin-major on its own code path. Exactly
/// `phases × steps` ticks make one tick per epoch, so its fate keys and
/// stall windows line up with the superstep executor's. `run_steps` would
/// overshoot on the ranks a stall did not hold back.
fn run_async<A: RankAlgorithm>(
    ranks: Vec<A>,
    chaos: ChaosConfig,
    (stalls, steps): Schedule,
    logs: impl Fn(&[A]) -> Vec<Vec<InboxLog>>,
) -> Observed {
    let opts = AsyncOptions {
        advance_probability: 1.0,
        max_lag: 1_000_000,
        seed: 0,
        ..AsyncOptions::default()
    };
    let nphases = ranks[0].phases();
    let mut ex = AsyncExecutor::with_chaos(ranks, opts, chaos).expect("valid chaos config");
    for &(rank, steps) in stalls {
        ex.injector_mut().inject_stall(rank, steps);
    }
    for _ in 0..nphases * steps {
        ex.tick();
    }
    observe(logs(ex.ranks()), &ex.stats)
}

/// One superstep-executor run: the observables plus the per-step counters
/// (modelled time included), which every superstep path must agree on.
fn run_superstep<A: RankAlgorithm>(
    ranks: Vec<A>,
    (mode, close_threshold): Path,
    chaos: ChaosConfig,
    (stalls, steps): Schedule,
    logs: impl Fn(&[A]) -> Vec<Vec<InboxLog>>,
) -> (Observed, Vec<StepStats>) {
    let mut ex =
        Executor::with_chaos(ranks, CostModel::default(), mode, chaos).expect("valid executor");
    ex.set_parallel_close_threshold(close_threshold);
    for &(rank, steps) in stalls {
        ex.injector_mut().inject_stall(rank, steps);
    }
    for _ in 0..steps {
        ex.step();
    }
    (observe(logs(ex.ranks()), &ex.stats), ex.stats.steps.clone())
}

fn gossip_logs(ranks: &[Gossip]) -> Vec<Vec<InboxLog>> {
    ranks.iter().map(|r| r.log.clone()).collect()
}

/// All hosted inner logs, per physical rank in ascending block order.
fn coded_logs(hosts: &[RedundantHost<Gossip>]) -> Vec<Vec<InboxLog>> {
    hosts
        .iter()
        .map(|h| {
            h.solvers()
                .flat_map(|(_, s)| s.log.iter().cloned())
                .collect()
        })
        .collect()
}

/// Asserts that every superstep path observes exactly the reference, and
/// that all of them agree on the per-step counters.
fn assert_paths_match<A: RankAlgorithm>(
    reference: &Observed,
    paths: &[Path],
    fleet: impl Fn() -> Vec<A>,
    chaos: ChaosConfig,
    schedule: Schedule,
    logs: impl Fn(&[A]) -> Vec<Vec<InboxLog>> + Copy,
) {
    let mut first_steps: Option<Vec<StepStats>> = None;
    for &path in paths {
        let (observed, steps) = run_superstep(fleet(), path, chaos, schedule, logs);
        assert_eq!(
            reference, &observed,
            "{path:?} diverged from the asynchronous reference"
        );
        match &first_steps {
            None => first_steps = Some(steps),
            Some(first) => assert_eq!(first, &steps, "{path:?}: per-step counters differ"),
        }
    }
}

proptest! {
    // Each case runs twenty executors of up to 65 ranks; keep the count
    // modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_close_inboxes_identical_to_serial_reference(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        max_delay_epochs in 1u64..4,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            delay_rate,
            max_delay_epochs: max_delay_epochs as usize,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        for (w, h) in SHAPES {
            let reference = run_async(gossip_grid(w, h), chaos, (&[], STEPS), gossip_logs);
            assert_paths_match(
                &reference,
                &ALL_PATHS,
                || gossip_grid(w, h),
                chaos,
                (&[], STEPS),
                gossip_logs,
            );
        }
    }
}

/// Builds the coded 8 × 8 gossip fleet: block `b`'s `Gossip` instances are
/// dealt to cyclic-shift replica sets of factor `r` (shift stride 3), the
/// same shape `dsw-partition`'s `ReplicaMap` produces.
fn coded_ranks(r: usize) -> Vec<RedundantHost<Gossip>> {
    let n = 64usize;
    let replicas: Vec<Vec<u32>> = (0..n as u32)
        .map(|b| (0..r as u32).map(|j| (b + j * 3) % n as u32).collect())
        .collect();
    (0..n)
        .map(|p| {
            let mine: Vec<(usize, Gossip)> = (0..n)
                .filter(|&b| replicas[b].contains(&(p as u32)))
                .map(|b| {
                    (
                        b,
                        Gossip {
                            id: b,
                            w: 8,
                            h: 8,
                            step: 0,
                            log: Vec::new(),
                        },
                    )
                })
                .collect();
            RedundantHost::new(p, replicas.clone(), mine)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The `r = 1` redundancy wrapper is *transparent*: identity replica
    /// sets produce byte-identical inner inboxes, per-class counters, and
    /// fault tallies to the unwrapped run — under drops, delays, and
    /// stalls. (Chaos *duplicates* are deliberately excluded: the wrapper's
    /// slot reconciliation absorbs the duplicate copy before the solver
    /// sees it, which is exactly why the driver routes `r = 1` through the
    /// uncoded path.)
    #[test]
    fn coded_r1_wrapper_is_transparent(
        drop_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        max_delay_epochs in 1u64..4,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            delay_rate,
            max_delay_epochs: max_delay_epochs as usize,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let path = (ExecMode::Sequential, SERIAL);
        let plain = run_superstep(gossip_grid(8, 8), path, chaos, (&[], STEPS), gossip_logs);
        let coded = run_superstep(coded_ranks(1), path, chaos, (&[], STEPS), coded_logs);
        prop_assert_eq!(
            &plain,
            &coded,
            "r = 1 wrapper not transparent (seed {})",
            seed
        );
    }

    /// The coded fan-out path (r = 2) is schedule-independent: every
    /// routing/close/pool combination observes byte-identical inner logs
    /// and counters to the asynchronous reference, under full chaos
    /// (duplicates included — reconciliation must be deterministic too).
    #[test]
    fn coded_fanout_identical_across_paths(
        drop_rate in 0.0f64..0.25,
        duplicate_rate in 0.0f64..0.25,
        delay_rate in 0.0f64..0.25,
        stall_rate in 0.0f64..0.15,
        seed in 0u64..10_000,
    ) {
        let chaos = ChaosConfig {
            drop_rate,
            duplicate_rate,
            delay_rate,
            max_delay_epochs: 2,
            stall_rate,
            stall_steps: 2,
            seed,
            ..ChaosConfig::none()
        };
        let reference = run_async(coded_ranks(2), chaos, (&[], STEPS), coded_logs);
        assert_paths_match(
            &reference,
            &ALL_PATHS,
            || coded_ranks(2),
            chaos,
            (&[], STEPS),
            coded_logs,
        );
    }
}

/// The stall path deserves a deterministic (non-random) anchor: a targeted
/// stall makes inboxes accumulate across phases, which is exactly where
/// the close's append-to-stalled-target handling must agree with the
/// reference.
#[test]
fn targeted_stall_accumulation_identical_across_paths() {
    let schedule: Schedule = (&[(27, 3), (0, 2)], 6);
    let chaos = ChaosConfig::none();
    let reference = run_async(gossip_grid(8, 8), chaos, schedule, gossip_logs);
    assert_paths_match(
        &reference,
        &[
            (ExecMode::Sequential, SERIAL),
            (ExecMode::Threaded(4), POOLED),
        ],
        || gossip_grid(8, 8),
        chaos,
        schedule,
        gossip_logs,
    );
}
