//! The perf-regression gate: measures every scenario of the registry
//! (`tsqr_bench::figures::scenarios`) and diffs the records against a
//! committed baseline. The registry holds 24 records in five families:
//! the Figs. 4–8 headline points, WAN-degradation scenarios of the fault
//! injector, autotuned trees, serving-layer points and fault-injected
//! serving points.
//!
//! Usage (normally driven by `scripts/bench_check.sh`):
//!
//! ```text
//! bench_check --baseline BENCH_baseline.json [--out BENCH_results.json]
//! bench_check --bless --baseline BENCH_baseline.json   # (re)write the baseline
//! ```
//!
//! The simulation is deterministic, so the comparison is strict: message /
//! byte / WAN counts must match exactly, times and Gflop/s to a relative
//! tolerance (default 1e-9, override with `GRID_TSQR_BENCH_RTOL`), and the
//! model-fit residual to 1e-6 absolute. Every traced run also re-asserts
//! the critical-path and wait-state reconciliation invariants, every tune
//! scenario the autotuner's claim, and `check_claims` the serving and
//! recovery claims over the measured set, so a green gate certifies the
//! whole stack, not just the headline numbers. Exits non-zero on any
//! mismatch.
//!
//! When `GRID_TSQR_LEDGER=<file>` is set (as `scripts/bench_check.sh` does
//! by default), every measured point is additionally appended to the
//! cross-run experiment ledger with `source = "bench_check"`, feeding the
//! `grid-tsqr report` trend/anomaly dashboard.

use std::process::ExitCode;

use tsqr_bench::figures::{
    check_claims, compare_records, measure, parse_records, records_json, scenarios,
};
use tsqr_obs::ledger::{append_entry, path_from_env};

fn usage() -> ! {
    eprintln!(
        "usage: bench_check --baseline <file> [--out <file>] [--bless]\n\
         \n\
         --baseline <file>  committed reference records (required)\n\
         --out <file>       also write the freshly measured records here\n\
         --bless            write the measured records to --baseline and exit\n\
         \n\
         env: GRID_TSQR_BENCH_RTOL  relative tolerance for times (default 1e-9)\n\
         env: GRID_TSQR_LEDGER      append every point to this experiment-ledger JSONL"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut baseline: Option<String> = None;
    let mut out: Option<String> = None;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--bless" => bless = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    let Some(baseline_path) = baseline else { usage() };

    let rel_tol = std::env::var("GRID_TSQR_BENCH_RTOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(1e-9);

    let scenarios = scenarios();
    eprintln!("# measuring {} scenarios (deterministic simulation)...", scenarios.len());
    let mut measured = Vec::new();
    let mut entries = Vec::new();
    for s in &scenarios {
        let (rec, entry) = measure(s);
        eprintln!(
            "#   {:<16} makespan {:>10.4} s  {:>7.1} Gflop/s  {:>6} WAN msgs  residual {:.2e}",
            rec.id, rec.makespan_s, rec.gflops, rec.wan_msgs, rec.model_residual
        );
        measured.push(rec);
        entries.push(entry);
    }
    eprintln!("# checking cross-record claims (serving, recovery, replay)...");
    check_claims(&scenarios, &measured);
    let doc = records_json(&measured);

    if let Some(path) = path_from_env() {
        let n = entries.len();
        for mut entry in entries {
            entry.source = "bench_check".into();
            if let Err(e) = append_entry(&path, entry) {
                eprintln!("error: appending to ledger {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        eprintln!("# ledger: {n} entries -> {}", path.display());
    }

    if let Some(out_path) = &out {
        if let Err(e) = std::fs::write(out_path, &doc) {
            eprintln!("error: writing {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {out_path}");
    }
    if bless {
        if let Err(e) = std::fs::write(&baseline_path, &doc) {
            eprintln!("error: writing {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("# blessed {baseline_path} ({} records)", measured.len());
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "error: reading baseline {baseline_path}: {e}\n\
                 hint: run with --bless to create it"
            );
            return ExitCode::FAILURE;
        }
    };
    let base = match parse_records(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: parsing {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let problems = compare_records(&base, &measured, rel_tol);
    if problems.is_empty() {
        println!(
            "bench gate OK: {} records match {} (rel tol {rel_tol:.0e})",
            measured.len(),
            baseline_path
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate FAILED ({} problems):", problems.len());
        for p in &problems {
            eprintln!("  - {p}");
        }
        eprintln!(
            "if the change is intended, refresh the baseline:\n  \
             cargo run --release -q -p tsqr-bench --bin bench_check -- --bless --baseline {baseline_path}"
        );
        ExitCode::FAILURE
    }
}
