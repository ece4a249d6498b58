//! The benchmark's own checks: its split solve path is the program's
//! `run_method`, its counters repeat exactly for one seed, and the metric
//! names match `BENCHMARK.json`.

use crate::table2::{initial_guess, options, partition, solve_split, Counters, MATRICES, METHODS};
use crate::{serve, table2, vcycle, RunCfg, END_TO_END, PER_LAYER};
use dsw_core::dist::{run_method, DistReport};
use dsw_sparse::suite::by_name;

/// Every deterministic field of a report (measured wall-clock fields are
/// excluded, as `StepStats`'s own equality does).
fn assert_same_report(a: &DistReport, b: &DistReport, tag: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{tag}: record count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.residual_norm.to_bits(),
            rb.residual_norm.to_bits(),
            "{tag}"
        );
        assert_eq!(
            (ra.msgs, ra.msgs_solve, ra.msgs_residual, ra.bytes),
            (rb.msgs, rb.msgs_solve, rb.msgs_residual, rb.bytes),
            "{tag}"
        );
        assert_eq!(ra.relaxations, rb.relaxations, "{tag}");
        assert_eq!(ra.active_ranks, rb.active_ranks, "{tag}");
        assert_eq!(ra.time.to_bits(), rb.time.to_bits(), "{tag}");
    }
    assert_eq!(a.stats.steps, b.stats.steps, "{tag}: step stats");
    assert_eq!(a.stats.msgs_per_rank, b.stats.msgs_per_rank, "{tag}");
    assert_eq!(a.converged_at, b.converged_at, "{tag}");
    assert_eq!(a.deadlocked, b.deadlocked, "{tag}");
    assert_eq!(a.diverged, b.diverged, "{tag}");
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.x), bits(&b.x), "{tag}: solution bits");
}

#[test]
fn split_path_is_bit_identical_to_run_method() {
    for (mi, name) in MATRICES.iter().enumerate() {
        let a = by_name(name).expect("suite entry").build_small(0.3);
        let (_, part) = partition(&a, 32);
        let b = vec![0.0; a.nrows()];
        let x0 = initial_guess(&a, 11, mi as u64);
        for &m in &METHODS {
            let opts = options();
            let split = solve_split(m, &a, &b, &x0, &part, &opts).report;
            let whole = run_method(m, &a, &b, &x0, &part, &opts);
            assert_same_report(&split, &whole, &format!("{name} {}", m.label()));
        }
    }
}

#[test]
fn table2_counters_repeat_across_runs_of_one_seed() {
    let a = by_name(MATRICES[1]).expect("suite entry").build_small(0.3);
    let (_, part) = partition(&a, 32);
    let b = vec![0.0; a.nrows()];
    let x0 = initial_guess(&a, 5, 1);
    for &m in &METHODS {
        let once = || Counters::of(&solve_split(m, &a, &b, &x0, &part, &options()).report);
        assert_eq!(once(), once(), "{}", m.label());
    }
    // A different seed is a different input.
    let x1 = initial_guess(&a, 6, 1);
    let m = METHODS[0];
    assert_ne!(
        Counters::of(&solve_split(m, &a, &b, &x0, &part, &options()).report),
        Counters::of(&solve_split(m, &a, &b, &x1, &part, &options()).report)
    );
}

/// One full run of a workload at the minimum round count: it repeats its
/// inputs every round, so a clean outcome means every check held and the
/// exact counters matched round to round.
fn assert_clean(out: &crate::Outcome, what: &str) {
    assert!(out.errors.is_empty(), "{what}: {:?}", out.errors);
    assert!(out.attempted > 0, "{what}");
    assert_eq!(out.failed, 0, "{what}");
    for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
        let v = out.e2e.get(name).copied().unwrap_or(0.0);
        assert!(v.is_finite() && v > 0.0, "{what}: {name} = {v}");
    }
}

const QUICK: RunCfg = RunCfg {
    seed: 3,
    seconds: 0.0,
    trace: false,
};

#[test]
fn serve_workloads_are_correct_and_repeat() {
    assert_clean(&serve::run(&QUICK, false), "serve");
    assert_clean(&serve::run(&QUICK, true), "serve-panel");
}

#[test]
fn vcycle_workload_is_correct_and_repeats() {
    let out = vcycle::run(&QUICK);
    assert_clean(&out, "vcycle");
}

#[test]
fn table2_workload_is_correct_and_repeats() {
    assert_clean(&table2::run(&QUICK), "table2");
}

#[test]
fn traced_layers_add_up_to_the_round() {
    let out = vcycle::run(&RunCfg {
        trace: true,
        ..QUICK
    });
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    let frac = out.layers["trace.attributed_frac"];
    assert!((0.95..=1.05).contains(&frac), "attributed {frac}");
    for name in out.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} undeclared"
        );
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let workloads = spec.matches("\"why\":").count();
    let declared = spec.matches("\"name\":").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let runnable = crate::WORKLOADS
        .iter()
        .filter(|w| spec.contains(&format!("\"name\": \"{w}\", \"why\"")))
        .count();
    assert_eq!(
        runnable, workloads,
        "every benchmarked workload is runnable"
    );
}

#[test]
fn serve_trace_measures_the_panel_path() {
    let out = serve::run(
        &RunCfg {
            trace: true,
            ..QUICK
        },
        false,
    );
    assert!(out.errors.is_empty(), "{:?}", out.errors);
    assert_eq!(out.failed, 0);
    for name in ["panel.solves_per_s", "panel.exec_s", "panel.msgs_per_solve"] {
        assert!(out.layers.get(name).is_some_and(|v| *v > 0.0), "{name}");
    }
    // Fused panels send fewer messages per solve than scalar solves.
    assert!(out.layers["panel.msgs_per_solve"] < out.layers["session.msgs_per_solve"]);
}
