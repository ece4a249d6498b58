//! Standalone kernel probes for the traced run: achieved SpMV bandwidth
//! on a workload's matrix against a measured single-thread STREAM-triad
//! ceiling.

use crate::util::{self, Json};
use crate::Outcome;
use dsw_sparse::CsrMatrix;
use std::hint::black_box;
use std::time::Instant;

/// Minimum timed span of each probe: long enough that the clock's
/// resolution and one-off page faults do not matter.
const PROBE_SECONDS: f64 = 0.3;

/// Single-thread STREAM triad `a = b + s·c` over three arrays whose
/// combined size is at least 4× the last-level cache, so the figure is a
/// DRAM ceiling, not a cache one. Returns (GB/s, bytes per array).
/// Bytes moved per pass are counted as 24·len (two reads, one write; no
/// write-allocate traffic), the STREAM convention.
pub fn stream_triad() -> (f64, usize) {
    let llc = util::llc_bytes() as usize;
    let len = (4 * llc).div_ceil(3 * 8);
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let s = black_box(3.0);
    // One untimed pass faults every page in.
    for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
        *ai = bi + s * ci;
    }
    let mut best = 0.0f64;
    let start = Instant::now();
    let mut passes = 0;
    while passes < 3 || util::secs(start) < PROBE_SECONDS {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        let gbs = 24.0 * len as f64 / util::secs(t) / 1e9;
        best = best.max(gbs);
        passes += 1;
    }
    (best, len * 8)
}

/// Achieved SpMV bandwidth on `a`, counted as `12·nnz + 24·n` bytes per
/// call (8-byte value + 4-byte index per nonzero as a compact CSR would
/// move them, plus x read, y written and the row pointer). The figure is
/// *computed* from that model, not measured with hardware counters.
pub fn spmv_gbs(a: &CsrMatrix) -> f64 {
    let n = a.nrows();
    let x: Vec<f64> = util::Rng::new(7, 7).vec(n);
    let mut y = vec![0.0; n];
    let bytes = 12.0 * a.nnz() as f64 + 24.0 * n as f64;
    a.spmv(&x, &mut y);
    let mut calls = 0u64;
    let start = Instant::now();
    while calls < 5 || util::secs(start) < PROBE_SECONDS {
        a.spmv(black_box(&x), &mut y);
        black_box(&mut y);
        calls += 1;
    }
    bytes * calls as f64 / util::secs(start) / 1e9
}

/// Runs both probes on `a` and records them in the outcome.
pub fn record_kernel_probes(out: &mut Outcome, a: &CsrMatrix, matrix: &str) {
    let spmv = spmv_gbs(a);
    let (triad, array_bytes) = stream_triad();
    out.layers.insert("sparse.spmv_gbs", spmv);
    out.layers.insert("sparse.stream_triad_gbs", triad);
    out.layers.insert("sparse.spmv_of_ceiling", spmv / triad);
    out.detail.push((
        "kernel_probes".into(),
        Json::obj([
            ("spmv_matrix", Json::Str(matrix.into())),
            ("spmv_n", Json::Int(a.nrows() as u64)),
            ("spmv_nnz", Json::Int(a.nnz() as u64)),
            (
                "spmv_working_set_bytes",
                Json::Int((12 * a.nnz() + 24 * a.nrows()) as u64),
            ),
            (
                "spmv_bytes_model",
                Json::Str("12*nnz + 24*n per call (computed)".into()),
            ),
            ("stream_arrays", Json::Int(3)),
            ("stream_array_bytes", Json::Int(array_bytes as u64)),
            ("stream_threads", Json::Int(1)),
            ("llc_bytes", Json::Int(util::llc_bytes())),
        ]),
    ));
}
