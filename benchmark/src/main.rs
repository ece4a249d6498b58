//! The repository benchmark: one command, four workloads, every
//! end-to-end metric by name and unit, correctness checked in-line.
//!
//! ```text
//! dsw-repo-bench --workload <table2|serve|serve-panel|vcycle>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1`
//! they are the per-layer ones ([`PER_LAYER`]). A fuller record of the
//! run (machine metadata, sample counts, per-round samples, the exact
//! deterministic counters) is written fresh to
//! `benchmark/out/<workload>-trace<t>.json`.
//!
//! All timing is done here, around calls into the crates' public
//! functions, plus the timers the crates already expose (`StepStats`,
//! `MonitorStats`, `RunStats`, `ServiceStats`, `CycleReport`).

mod probes;
mod serve;
mod table2;
#[cfg(test)]
mod tests;
mod util;
mod vcycle;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use util::{Json, Ledger};

/// End-to-end metrics, reported by every workload (see WORKLOADS.md for
/// what an "operation" is on each).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("msgs_per_rank", "msgs"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it. Names ending in `_s` under `trace.`, `bench.`,
/// `sparse.gen_s`, `partition.multilevel_s`, `layout.distribute_s`,
/// `dist.build_s`, `rma.span_s`, `rma.route_s`, `monitor.*_s`,
/// `driver.other_s`, `session.exec_s`, `serve.add_tenant_s`,
/// `serve.submit_s`, `serve.sched_other_s`, `mg.try_new_s` and
/// `mg.cycle_s` are the additive split of one round's wall time; every
/// other time is nested inside one of them or is a standalone probe.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.round_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("bench.inputs_s", "s"),
    ("bench.check_s", "s"),
    ("bench.teardown_s", "s"),
    ("sparse.gen_s", "s"),
    ("sparse.spmv_gbs", "GB/s"),
    ("sparse.stream_triad_gbs", "GB/s"),
    ("sparse.spmv_of_ceiling", "ratio"),
    ("partition.multilevel_s", "s"),
    ("partition.edge_cut", "count"),
    ("layout.distribute_s", "s"),
    ("dist.build_s", "s"),
    ("dist.ds_drive_s", "s"),
    ("dist.ps_drive_s", "s"),
    ("dist.bj_drive_s", "s"),
    ("rma.compute_s", "s"),
    ("rma.span_s", "s"),
    ("rma.route_s", "s"),
    ("rma.worker_utilization", "ratio"),
    ("rma.imbalance", "ratio"),
    ("rma.steps", "count"),
    ("rma.msgs", "count"),
    ("rma.bytes", "bytes"),
    ("monitor.eval_s", "s"),
    ("monitor.verify_s", "s"),
    ("monitor.verifications", "count"),
    ("monitor.max_rel_drift", "ratio"),
    ("driver.other_s", "s"),
    ("dist.steps", "count"),
    ("dist.relaxations_per_n", "ratio"),
    ("dist.active_fraction", "ratio"),
    ("dist.msgs_solve_per_rank", "msgs"),
    ("dist.msgs_residual_per_rank", "msgs"),
    ("dist.model_time_s", "s"),
    ("session.exec_s", "s"),
    ("session.msgs_per_solve", "msgs"),
    ("serve.add_tenant_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.sched_other_s", "s"),
    ("serve.pool_utilization", "ratio"),
    ("serve.max_queue_depth", "count"),
    ("panel.solves_per_s", "1/s"),
    ("panel.latency_p50_ms", "ms"),
    ("panel.exec_s", "s"),
    ("panel.sched_other_s", "s"),
    ("panel.msgs_per_solve", "msgs"),
    ("mg.try_new_s", "s"),
    ("mg.cycle_s", "s"),
    ("mg.cycles_to_tol", "count"),
    ("mg.msgs_per_cycle", "msgs"),
    ("mg.transfer_bytes_per_cycle", "bytes"),
    ("mg.relaxations_per_cycle", "count"),
    ("mg.transfer_s", "s"),
    ("mg.smooth_s", "s"),
];

pub const WORKLOADS: &[&str] = &["table2", "serve", "serve-panel", "vcycle"];

/// Worker threads of the pooled workloads. The benchmark is sized for a
/// 2-core machine and never runs more threads than that.
pub const THREADS: usize = 2;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunCfg {
    /// Whether round `i` of a run records its layers: in a traced run the
    /// rounds alternate untraced/traced, so the same invocation measures
    /// the tracing overhead.
    pub fn traced_round(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }

    /// Keep running rounds while another one fits the time budget (so a
    /// run ends within half a round of `--seconds`), with a floor so the
    /// medians (and, traced, both round kinds) always have samples.
    pub fn more_rounds(&self, start: Instant, done: usize, min: usize) -> bool {
        let min = if self.trace { min.max(4) } else { min };
        let elapsed = util::secs(start);
        done < min || elapsed + 0.5 * elapsed / (done as f64) < self.seconds
    }
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (solves, served solves, V-cycles).
    pub attempted: u64,
    /// Operations that missed their target, deadlocked, or were refused.
    pub failed: u64,
    /// Output checks that did not hold (any entry makes `correct` false).
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced rounds).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced rounds and probes).
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra record fields for the run file.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Folds the traced rounds into the layer metrics. Each traced round
    /// gives its wall time, its additive ledger (the layer split of that
    /// wall) and a nested ledger (times inside a layer, counts, ratios).
    /// Both are reported as per-round means, together with what the
    /// additive split leaves unattributed and the overhead of tracing
    /// against the untraced rounds of the same invocation.
    pub fn fold_trace(&mut self, traced: &[TracedRound], untraced_walls: &[f64]) {
        if traced.is_empty() {
            return;
        }
        let k = traced.len() as f64;
        let mut additive = Ledger::new(true);
        let mut nested = Ledger::new(true);
        for t in traced {
            for (&key, &v) in &t.additive.map {
                additive.add(key, v);
            }
            for (&key, &v) in &t.nested.map {
                nested.add(key, v);
            }
        }
        let walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
        let round = walls.iter().sum::<f64>() / k;
        let attributed: f64 = additive.map.values().sum::<f64>() / k;
        for (&key, &v) in additive.map.iter().chain(&nested.map) {
            self.layers.insert(key, v / k);
        }
        self.layers.insert("trace.round_s", round);
        self.layers
            .insert("trace.unattributed_s", round - attributed);
        self.layers
            .insert("trace.attributed_frac", attributed / round.max(1e-300));
        let base = util::median(untraced_walls);
        if base > 0.0 {
            self.layers
                .insert("trace.overhead_frac", util::median(&walls) / base - 1.0);
        }
        self.detail.push((
            "trace_rounds".into(),
            Json::obj([
                ("traced_round_walls_s", Json::nums(&walls)),
                ("untraced_round_walls_s", Json::nums(untraced_walls)),
            ]),
        ));
    }
}

/// One traced round: its wall time and what the ledgers recorded.
pub struct TracedRound {
    pub wall_s: f64,
    pub additive: Ledger,
    pub nested: Ledger,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dsw-repo-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).cloned();
        match (args[i].as_str(), val) {
            ("--workload", Some(v)) => workload = Some(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some(v)) => {
                trace = match v.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
    };
    let started = Instant::now();
    let mut out = match workload.as_str() {
        "table2" => table2::run(&cfg),
        "serve" => serve::run(&cfg, false),
        "serve-panel" => serve::run(&cfg, true),
        "vcycle" => vcycle::run(&cfg),
        _ => return usage(),
    };
    out.e2e.insert("peak_rss_mb", util::peak_rss_mb());

    let correct = out.errors.is_empty();
    let (names, kind) = if trace {
        (PER_LAYER, "per_layer")
    } else {
        (END_TO_END, "end_to_end")
    };
    let source = if trace { &out.layers } else { &out.e2e };
    for (name, _) in END_TO_END {
        if !out.e2e.contains_key(name) {
            out.errors
                .push(format!("end-to-end metric {name} was not measured"));
        }
    }
    for name in out.layers.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            out.errors
                .push(format!("layer metric {name} is not declared"));
        }
    }
    if out.attempted == 0 {
        out.errors.push("no operation was attempted".into());
    }
    let correct = correct && out.errors.is_empty();
    let metrics = Json::Obj(
        names
            .iter()
            .map(|&(name, unit)| {
                let v = source.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
                )
            })
            .collect(),
    );

    let llc = util::llc_bytes();
    let mut record = vec![
        ("workload".to_string(), Json::Str(workload.clone())),
        ("seed".into(), Json::Int(seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("metric_kind".into(), Json::Str(kind.into())),
        (
            "meta".into(),
            Json::obj([
                ("git_rev", Json::Str(util::git_rev())),
                ("nproc", Json::Int(util::nproc() as u64)),
                ("threads_used", Json::Int(THREADS as u64)),
                ("rustc", Json::Str(env!("DSW_BENCH_RUSTC").into())),
                ("llc_bytes", Json::Int(llc)),
                ("run_wall_s", Json::Num(util::secs(started))),
            ]),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(out.attempted)),
        ("failed".into(), Json::Int(out.failed)),
        (
            "failed_frac".into(),
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
        (
            "errors".into(),
            Json::Arr(out.errors.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "end_to_end".into(),
            Json::Obj(
                out.e2e
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Obj(
                out.layers
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ];
    record.append(&mut out.detail);
    let record = Json::Obj(record);
    let dir = std::path::Path::new("benchmark").join("out");
    let file = dir.join(format!("{workload}-trace{}.json", u8::from(trace)));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, record.render() + "\n"))
    {
        eprintln!("could not write {}: {e}", file.display());
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
