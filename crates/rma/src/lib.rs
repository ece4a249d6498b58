//! A simulated one-sided RMA substrate.
//!
//! The paper implements its solvers with MPI-3 one-sided semantics: each
//! process exposes a *memory window*; during an *access epoch*
//! (`MPI_Win_post/start … MPI_Win_complete/wait`) origin processes `MPI_Put`
//! data into target windows, and the data is guaranteed visible only after
//! the epoch closes. Algorithms 1–3 of the paper are therefore structured as
//! *parallel steps*, each containing one or two communication epochs with
//! computation between them.
//!
//! This crate reproduces those semantics exactly, without real MPI:
//!
//! * a [`RankAlgorithm`] implements the per-process program as a sequence of
//!   *phases* per parallel step; puts issued during phase `k` are delivered
//!   into target inboxes *after* phase `k` completes (the epoch close), and
//!   are read by targets in phase `k + 1` — never earlier, which is the
//!   one-sided visibility rule;
//! * the [`Executor`] runs all ranks phase-by-phase, either sequentially or
//!   on a persistent work-stealing worker pool ([`ExecMode`]); both modes
//!   produce bit-identical results because ranks only interact through the
//!   epoch boundary, which the executor routes target-major over the
//!   neighbour sets every rank declares up front
//!   ([`RankAlgorithm::put_targets`]);
//! * every put is counted, per rank and per [`CommClass`] — message counts
//!   are the paper's primary communication metric ("total number of
//!   messages sent by all processes divided by the number of processes")
//!   and Table 3 splits them into solve vs. explicit-residual classes;
//! * wall-clock time is *modelled* with an α–β–γ [`CostModel`] (latency per
//!   message, inverse bandwidth per byte, time per flop, plus a per-epoch
//!   synchronization charge), since the simulator is not a supercomputer.
//!   Per phase the charge is `max` over ranks — ranks progress together
//!   through epochs, so the slowest rank gates each phase.

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Every `unsafe` block and impl states why it is sound in a `// SAFETY:`
// comment; the existing clippy CI step enforces it. Four `unsafe` tokens
// remain (CI counts them), each with one argument:
// * `pool.rs`, the lifetime-erasing `transmute` in `WorkerPool::run`:
//   the dispatch lock makes the call the only dispatch, and it returns only
//   after every worker has reported done, so no worker uses the closure
//   after the borrow it came from ends;
// * `executor.rs`, `CloseBuckets` (an `unsafe impl Sync`, an `unsafe fn`
//   accessor and its one call): bucket (o, t) is filled by origin o's
//   phase chunk and drained by target t's close chunk; each bucket id sits
//   in exactly one target's `in_edges`, each target in one close chunk,
//   and each chunk is held by one thread.
// Every other borrow in the phase and the close is a plain `&mut` split.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod async_exec;
pub mod executor;
pub mod fault;
pub mod panel;
pub(crate) mod pool;
pub mod redundancy;
pub mod stats;
pub mod trace;

pub use async_exec::{AsyncExecutor, AsyncOptions, RunStepsResult};
pub use executor::{CaptureTotals, Envelope, ExecMode, Executor, PhaseCtx, RankAlgorithm};
pub use fault::{ChaosConfig, Fate, FaultInjector};
pub use panel::{
    FlushFn, FusedPhaseFn, PanelMsg, PanelPart, PanelPhaseCtx, PanelRank, PANEL_HEADER_BYTES,
    PANEL_PART_TAG_BYTES,
};
pub use pool::{PoolStats, SharedPool};
pub use redundancy::{CodedMsg, RedundantHost};
pub use stats::{ClassCounts, CommClass, CostModel, FaultStats, MonitorStats, RunStats, StepStats};
pub use trace::{Trace, TraceEvent};
