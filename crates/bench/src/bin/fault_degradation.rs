//! The degradation bench: every registered WAN-degradation scenario
//! (the `faults/*` entries of [`tsqr_bench::figures::scenarios`]) next
//! to its failure-free twin, on the 4-site grid.
//!
//! The fault injector degrades link *pricing*, never routing, so two
//! invariants must hold for each scenario and are checked here:
//!
//! * **identical traffic** — message, WAN-message and byte counts equal
//!   the failure-free twin's exactly;
//! * **slower clock** — the degraded makespan is strictly larger, and
//!   for whole-run degradations by a sizeable factor (the WAN terms of
//!   Eq. (1) scale with the injected latency/bandwidth factors).
//!
//! The same scenarios are pinned by the perf gate (`bench_check`), so a
//! regression in the degraded makespans fails CI exactly like a Fig. 4–8
//! regression. Run:
//! `cargo run --release -p tsqr-bench --bin fault_degradation`
//!
//! Set `GRID_TSQR_BENCH_OUT=<dir>` to also emit the scenario records as
//! `BENCH_faults.json` (schema `grid-tsqr-bench/v1`); see
//! `docs/fault-injection.md` §Degradation bench.

use tsqr_bench::figures::{measure, records_json, scenarios, Run};
use tsqr_bench::ShapeCheck;

fn main() {
    let mut checks = ShapeCheck::new();
    let mut records = Vec::new();

    for s in scenarios() {
        let Run::Traced(_, Some(wan)) = &s.run else { continue };
        let (clean, _) = measure(&s.clean_twin());
        let (degraded, _) = measure(&s);
        println!(
            "{:<18} clean {:>8.4} s -> degraded {:>8.4} s  ({:.2}x, window {:?} s, \
             lat x{}, bw /{})",
            degraded.id,
            clean.makespan_s,
            degraded.makespan_s,
            degraded.makespan_s / clean.makespan_s,
            wan.window_s,
            wan.latency_factor,
            wan.bandwidth_divisor,
        );

        checks.check(
            &format!("{}: traffic identical to the failure-free twin", degraded.id),
            degraded.msgs == clean.msgs
                && degraded.wan_msgs == clean.wan_msgs
                && degraded.bytes == clean.bytes,
            format!(
                "msgs {} vs {}, WAN {} vs {}, bytes {} vs {}",
                degraded.msgs, clean.msgs, degraded.wan_msgs, clean.wan_msgs,
                degraded.bytes, clean.bytes
            ),
        );
        let slowdown = degraded.makespan_s / clean.makespan_s;
        // Whole-run degradations must visibly slow the reduction; the
        // transient brown-out only needs to not *speed it up*.
        let whole_run = wan.window_s.0 == 0.0 && wan.window_s.1 > clean.makespan_s;
        let want = if whole_run { 1.2 } else { 1.0 };
        checks.check(
            &format!("{}: degraded WAN slows the run", degraded.id),
            slowdown >= want,
            format!("slowdown {slowdown:.3}x (want >= {want})"),
        );

        records.push(degraded);
    }

    if let Ok(dir) = std::env::var("GRID_TSQR_BENCH_OUT") {
        let out = std::path::Path::new(&dir).join("BENCH_faults.json");
        std::fs::write(&out, records_json(&records)).expect("write bench records");
        println!("# bench records -> {}", out.display());
    }

    checks.finish();
}
