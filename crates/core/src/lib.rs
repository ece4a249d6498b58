//! The Southwell family of iterative methods — the paper's contribution.
//!
//! Two layers:
//!
//! * [`scalar`] — shared-memory *scalar* forms (one equation per "process"),
//!   used for the convergence studies of Figures 2 and 5 and as multigrid
//!   smoothers (§4.1): Jacobi, Gauss–Seidel, Multicolor Gauss–Seidel,
//!   Sequential Southwell, Parallel Southwell, and Distributed Southwell.
//! * [`dist`] — *block/subdomain* forms running on the simulated one-sided
//!   RMA substrate of `dsw-rma`, exactly following Algorithms 1–3 of the
//!   paper: Block Jacobi, Parallel Southwell, and Distributed Southwell,
//!   plus the deadlock-prone ICCS'16 piggyback-only variant the paper uses
//!   as a foil.
//!
//! Terminology (paper §2.1): *relaxing row i* updates `x_i` by `r_i / a_ii`;
//! a *sweep* is `n` row relaxations; a *parallel step* is one phase of
//! simultaneous relaxations.

// `unwrap()` is banned in non-test code (clippy `disallowed-methods`, see
// clippy.toml): use `expect` naming the invariant, or propagate the error.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
// Memory safety rests on the compiler alone here; the only `unsafe` of
// the workspace is in `dsw-rma`'s pool and executor.
#![forbid(unsafe_code)]

pub mod dist;
pub mod history;
pub mod scalar;

pub use history::{ScalarHistory, ScalarSample};
