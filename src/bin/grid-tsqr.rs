//! `grid-tsqr` — command-line front end for the simulated grid.
//!
//! ```text
//! grid-tsqr info
//! grid-tsqr tsqr      --m 1048576 --n 64  [--sites 4] [--domains 64]
//!                     [--tree grid|binary|flat|kary:<k>|binomial|greedy]
//!                     [--real] [--q]
//! grid-tsqr scalapack --m 1048576 --n 64  [--sites 4] [--real] [--blocked]
//! grid-tsqr compare   --m 1048576 --n 64  [--sites 4]
//! grid-tsqr tune      --m 1048576 --n 64  [--sites 4] [--domains 64]
//! grid-tsqr trace     --m 1048576 --n 64  [--sites 4] [--algo tsqr|scalapack]
//!                     [--out trace.json] [--folded-out profile.folded] [--timeline]
//! grid-tsqr analyze   --m 1048576 --n 64  [--sites 4] [--algo tsqr|scalapack]
//!                     [--bins 64]
//! grid-tsqr faults    --m 262144 --n 64   [--sites 4] [--crash R@MS ...]
//!                     [--drop SRC:DST:NTH ...] [--drop-prob SRC:DST:P ...]
//!                     [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx] [--fault-seed 1]
//!                     [--baseline]
//! grid-tsqr serve     [--policy fifo|sjf|edf|fair|all] [--load 0.8] [--requests 200]
//!                     [--seed 42] [--batch] [--queue 64] [--shape MENU_IX]
//!                     [--sweep L1,L2,...] [--trace-out dispositions.jsonl]
//!                     [--crash SITE@MS ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]
//!                     [--drop-flow A:B:NTH ...] [--drop-prob A:B:P ...]
//!                     [--fault-seed 1] [--retry 3] [--backoff 50]
//!                     [--no-checkpoint] [--brownout ENTER:EXIT]
//! grid-tsqr check     [--m 65536 --n 32] [--sites 4] [--no-matrix]
//!                     [--no-explore] [--golden COMMCHECK_baseline.txt] [--bless]
//! grid-tsqr report    [--ledger ledger/runs.jsonl] [--threshold 0.05] [--top 10]
//!                     [--check] [--golden REPORT_baseline.md] [--bless] [--out report.md]
//! ```
//!
//! `tune` runs the model-driven reduction-tree autotuner
//! (`tsqr_core::tune`, handbook in `docs/tuning.md`): it predicts the
//! makespan of every candidate tree shape analytically from the
//! calibrated cost model, prints the search table, and cross-checks the
//! winner against an actual `netsim` replay.
//!
//! By default experiments run symbolically (paper scale in milliseconds)
//! at the calibrated kernel rates; `--real` switches to real numerics and
//! verifies the R factor against a single-process reference.
//!
//! `trace` runs one point with event tracing enabled and prints the
//! critical path plus the per-phase Eq. (1) ledger; `--out` additionally
//! writes Chrome-trace JSON loadable in <https://ui.perfetto.dev>, and
//! `--folded-out` writes collapsed folded stacks (per rank, plus an
//! `.agg` aggregate) for `inferno` / speedscope flame graphs, checking
//! the virtual-time tiling invariant first. The schemas are documented
//! in `docs/observability.md`.
//!
//! `report` renders the cross-run trend/anomaly dashboard from the
//! append-only experiment ledger (`ledger/runs.jsonl`, written by the
//! bench gate and the `tune`/`faults` subcommands whenever
//! `GRID_TSQR_LEDGER` is set). `--check` exits nonzero when any entry's
//! per-phase Eq. (1) residual exceeds its scenario reference by more
//! than the threshold; `--golden` byte-compares the report rendered over
//! the baseline's pinned entry prefix. See `docs/observability.md` §9.
//!
//! `faults` runs the **self-healing** TSQR (`tsqr_core::ft_tsqr`) with
//! real numerics under an injected failure schedule — rank crashes at
//! virtual times, transient message drops, WAN degradation windows — and
//! verifies that the recovered R factor is bitwise identical to the
//! failure-free run; `--baseline` additionally shows how the plain
//! program fails (typed, structured — no panic) under the same schedule.
//! See `docs/fault-injection.md`.
//!
//! `serve` runs the deterministic multi-tenant serving layer
//! (`tsqr-serve`, handbook in `docs/serving.md`): a seeded open-loop
//! request stream multiplexed over one Grid'5000 catalog with cluster
//! slots leased per job and WAN transfers priced against shared
//! per-link capacity. `--policy all` scores every discipline on the
//! same trace; `--batch` coalesces same-shape queued requests into one
//! stacked TSQR; `--sweep` renders the latency/throughput knee over a
//! comma-separated load list; `--trace-out` writes per-request
//! dispositions as JSON lines. Failure injection rides the same flag
//! grammar as `faults`, lifted to the site level: `--crash SITE@MS`
//! kills a whole catalog cluster, `--wan-slow` opens a WAN degradation
//! window, `--drop-flow`/`--drop-prob` lose drained R messages on a
//! site-pair flow; `--retry`, `--backoff`, `--no-checkpoint` and
//! `--brownout` tune the recovery layer (docs/serving.md §Failures).
//!
//! `check` is the **commcheck** gate (`docs/static-analysis.md`): it runs
//! the figure-style scenarios and the fault matrix with tracing on, feeds
//! every trace through the happens-before analyzer
//! (`gridmpi::hb`) — receive races, deadlock cycles, clock monotonicity —
//! and runs the DPOR-lite schedule explorer (`gridmpi::explore`) on a
//! dedicated 8-rank grid, proving the TSQR result bit-identical under
//! every permuted delivery order. One structural summary line per
//! scenario is compared against the blessed `COMMCHECK_baseline.txt`
//! (regenerate with `--bless`), exactly like the benchmark gate.
//!
//! Every subcommand accepts `--recv-timeout <seconds>`: the *wall-clock*
//! deadlock safety net of the simulator (failure *detection* happens in
//! virtual time; see `docs/fault-injection.md` §Detection).
//!
//! `analyze` runs the same traced point and prints the diagnosis instead:
//! the Scalasca-style wait-state breakdown (reconciled against the metrics
//! registry), per-link-class utilization timelines, the rank-to-rank
//! communication matrix, and the Eq. (1) least-squares fit with its
//! residual. See `docs/observability.md` §8 ("Diagnosing a run").

#![forbid(unsafe_code)]

use std::process::ExitCode;

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use grid_tsqr::core::ft_tsqr::ft_tsqr_rank_program;
use grid_tsqr::core::modelfit;
use grid_tsqr::core::tree::{ReductionTree, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::core::tune;
use grid_tsqr::core::workload;
use grid_tsqr::gridmpi::{explore, fnv1a, schedules_for, FoldedProfile, HbReport, Runtime};
use grid_tsqr::linalg::prelude::QrFactors;
use grid_tsqr::linalg::verify::r_distance;
use grid_tsqr::netsim::{
    ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime,
};
use grid_tsqr::obs::ledger::{append_entry, path_from_env, read_ledger};
use grid_tsqr::serve::{
    BrownoutConfig, Policy as ServePolicy, PolicyReport, RetryPolicy, ServeConfig,
};
use grid_tsqr::obs::report::{detect_anomalies, render_report, ReportOptions};
use tsqr_bench::{calib, grid_runtime, ledger_entry, serve_ledger_entry};

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Every value given for a repeatable flag, in order.
    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

/// Extracts `K` from the `- entries: K` header line of a blessed report.
///
/// The report golden is **prefix-pinned**: the baseline records how many
/// ledger entries it was rendered over, and the gate re-renders the report
/// over exactly that prefix. Appending new runs to the ledger therefore
/// never invalidates the golden — only a change to how existing entries
/// are rendered does.
fn golden_entry_count(report: &str) -> Option<usize> {
    report
        .lines()
        .find_map(|l| l.strip_prefix("- entries: "))
        .and_then(|v| v.trim().parse().ok())
}

/// Renders a line-by-line diff in the same `baseline:/current:` style the
/// commcheck gate uses.
fn line_diff(want: &str, got: &str) -> String {
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    let mut diff = String::new();
    for i in 0..want_lines.len().max(got_lines.len()) {
        let w = want_lines.get(i).copied().unwrap_or("<missing>");
        let g = got_lines.get(i).copied().unwrap_or("<missing>");
        if w != g {
            diff.push_str(&format!(
                "  line {}:\n    baseline: {w}\n    current:  {g}\n",
                i + 1
            ));
        }
    }
    diff
}

/// Parses a `--tree` value: the three fixed shapes plus the generated
/// families the autotuner searches over (`kary:<k>`, `binomial`,
/// `greedy`; `kary:1` is a chain).
fn parse_shape(s: &str) -> Result<TreeShape, String> {
    if let Some(k) = s.strip_prefix("kary:") {
        let k: usize =
            k.parse().map_err(|_| format!("--tree kary:<k>: cannot parse {k:?}"))?;
        if k == 0 {
            return Err("--tree kary:<k> needs k >= 1".into());
        }
        return Ok(TreeShape::Kary(k));
    }
    match s {
        "grid" => Ok(TreeShape::GridHierarchical),
        "binary" => Ok(TreeShape::Binary),
        "flat" => Ok(TreeShape::Flat),
        "binomial" => Ok(TreeShape::Binomial),
        "greedy" => Ok(TreeShape::Greedy),
        other => Err(format!(
            "unknown tree shape {other:?} (flat|binary|grid|kary:<k>|binomial|greedy)"
        )),
    }
}

fn usage() -> ExitCode {
    eprint!(
        "grid-tsqr: TSQR / ScaLAPACK QR on a simulated computational grid\n\
         \n\
         USAGE:\n\
         \x20 grid-tsqr info\n\
         \x20 grid-tsqr tsqr      --m <rows> --n <cols> [--sites 1..4] [--domains <d/cluster>]\n\
         \x20                     [--tree <shape>] [--real] [--q] [--seed <u64>]\n\
         \x20 grid-tsqr scalapack --m <rows> --n <cols> [--sites 1..4] [--real] [--blocked]\n\
         \x20 grid-tsqr compare   --m <rows> --n <cols> [--sites 1..4]\n\
         \x20 grid-tsqr tune      --m <rows> --n <cols> [--sites 1..4] [--domains <d/cluster>]\n\
         \x20 grid-tsqr trace     --m <rows> --n <cols> [--sites 1..4] [--algo tsqr|scalapack]\n\
         \x20                     [--domains <d>] [--tree <shape>] [--real]\n\
         \x20                     [--out <file.json>] [--folded-out <file>] [--timeline]\n\
         \x20 grid-tsqr analyze   --m <rows> --n <cols> [--sites 1..4] [--algo tsqr|scalapack]\n\
         \x20                     [--domains <d>] [--tree <shape>] [--bins <timeline bins>]\n\
         \x20 grid-tsqr faults    --m <rows> --n <cols> [--sites 1..4] [--fault-seed <u64>]\n\
         \x20                     [--crash RANK@MS ...] [--drop SRC:DST:NTH ...]\n\
         \x20                     [--drop-prob SRC:DST:P ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]\n\
         \x20                     [--baseline]\n\
         \x20 grid-tsqr serve     [--policy fifo|sjf|edf|fair|all] [--load <x>] [--requests <k>]\n\
         \x20                     [--seed <u64>] [--batch] [--queue <cap>] [--shape <menu ix>]\n\
         \x20                     [--sweep <l1,l2,...>] [--trace-out <file.jsonl>]\n\
         \x20                     [--crash SITE@MS ...] [--wan-slow FROM_MS:UNTIL_MS:LATx:BWx]\n\
         \x20                     [--drop-flow A:B:NTH ...] [--drop-prob A:B:P ...]\n\
         \x20                     [--fault-seed <u64>] [--retry <n>] [--backoff <ms>]\n\
         \x20                     [--no-checkpoint] [--brownout ENTER:EXIT]\n\
         \x20 grid-tsqr check     [--m <rows> --n <cols>] [--sites 1..4] [--no-matrix]\n\
         \x20                     [--no-explore] [--golden <baseline.txt>] [--bless]\n\
         \x20 grid-tsqr report    [--ledger <runs.jsonl>] [--threshold <frac>] [--top <k>]\n\
         \x20                     [--check] [--golden <baseline.md>] [--bless] [--out <file.md>]\n\
         \n\
         Tree shapes: flat | binary | grid | kary:<k> | binomial | greedy\n\
         (kary:1 is a chain; see docs/tuning.md for the closed forms).\n\
         Every subcommand accepts --recv-timeout <seconds> (wall-clock deadlock\n\
         safety net; failure detection itself runs in virtual time).\n\
         faults runs the self-healing TSQR with real numerics under an injected\n\
         failure schedule and checks the recovered R against the failure-free\n\
         run bit for bit; --baseline shows the plain program's typed failure.\n\
         See docs/fault-injection.md.\n\
         Symbolic runs (default) execute the full distributed schedule with\n\
         model-priced virtual time; --real moves actual matrices and checks R.\n\
         tune searches every candidate tree shape with the analytic makespan\n\
         predictor (docs/tuning.md), prints the table, and cross-checks the\n\
         winner against a netsim replay to 1e-9.\n\
         trace prints the critical path and per-phase Eq. (1) ledger of one\n\
         run; --out writes Chrome-trace JSON for ui.perfetto.dev.\n\
         analyze prints the wait-state breakdown, link utilization, the\n\
         communication matrix and the Eq. (1) model fit of one run.\n\
         check runs every figure scenario and the fault matrix under the\n\
         happens-before analyzer (races, deadlock cycles, clock violations)\n\
         and the DPOR-lite schedule explorer (8-rank determinism proof);\n\
         --golden compares one structural line per scenario against the\n\
         blessed baseline, --bless regenerates it. See docs/static-analysis.md.\n\
         report renders the trend/anomaly dashboard over the experiment\n\
         ledger (append with GRID_TSQR_LEDGER=<file>); --check exits nonzero\n\
         on per-phase model residuals exceeding the scenario reference by\n\
         more than --threshold. See docs/observability.md #9.\n\
         serve multiplexes a seeded multi-tenant request stream over one\n\
         grid: bounded-queue admission, fifo/sjf/edf/fair dispatch, slot\n\
         leasing, shared-WAN contention, optional same-shape batching.\n\
         See docs/serving.md.\n"
    );
    ExitCode::from(2)
}

fn run() -> Result<String, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        return Err("missing command".into());
    };
    let args = Args::parse(rest)?;

    if cmd == "info" {
        let catalog = grid_tsqr::qcg::ResourceCatalog::grid5000();
        let mut out = String::from("Grid'5000 catalog (paper §V-A):\n");
        for c in &catalog.clusters {
            out.push_str(&format!(
                "  {:<10} {:>4} nodes x {} procs, {:>5.1} Gflop/s peak/proc\n",
                c.name, c.nodes, c.procs_per_node, c.peak_gflops_per_proc
            ));
        }
        out.push_str(&format!(
            "experiment platform: 32 nodes x 2 procs per site; DGEMM {} Gflop/s/proc\n",
            grid_tsqr::netsim::grid5000::DGEMM_GFLOPS
        ));
        return Ok(out);
    }

    if cmd == "report" {
        // Trend/anomaly dashboard over the cross-run experiment ledger
        // (docs/observability.md §9). Pure post-processing: no simulation
        // runs, so it stays fast enough for CI.
        let ledger_path = args.get("ledger").unwrap_or("ledger/runs.jsonl");
        let threshold: f64 = args.num("threshold", 0.05f64)?;
        if !threshold.is_finite() || threshold < 0.0 {
            return Err("--threshold must be a non-negative fraction (e.g. 0.05)".into());
        }
        let top: usize = args.num("top", 10usize)?;
        let opts = ReportOptions { threshold, top_phases: top };
        let entries = read_ledger(std::path::Path::new(ledger_path))?;
        if entries.is_empty() {
            return Err(format!(
                "{ledger_path}: no entries — seed the ledger with \
                 `GRID_TSQR_LEDGER={ledger_path} scripts/bench_check.sh`"
            ));
        }
        let rendered = render_report(&entries, &opts);
        let mut out = String::new();
        if let Some(path) = args.get("out") {
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            out.push_str(&format!(
                "report over {} entries written to {path}\n",
                entries.len()
            ));
        } else if !args.has("check") && args.get("golden").is_none() && !args.has("bless") {
            // Plain `grid-tsqr report` prints the dashboard itself; the
            // gating modes print one status line each instead.
            out.push_str(&rendered);
        }
        if args.has("bless") {
            let path = args.get("golden").unwrap_or("REPORT_baseline.md");
            std::fs::write(path, &rendered)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            out.push_str(&format!(
                "blessed report over {} ledger entries into {path}\n",
                entries.len()
            ));
        } else if let Some(path) = args.get("golden") {
            let want = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {path:?}: {e}"))?;
            let k = golden_entry_count(&want).ok_or_else(|| {
                format!("{path}: not a blessed report (missing `- entries: <K>` header)")
            })?;
            if k > entries.len() {
                return Err(format!(
                    "{path} pins the first {k} entries but {ledger_path} holds only {} \
                     — the ledger is append-only and must not shrink",
                    entries.len()
                ));
            }
            let pinned = render_report(&entries[..k], &opts);
            if want != pinned {
                return Err(format!(
                    "report differs from {path} over the first {k} ledger entries \
                     (re-bless with `grid-tsqr report --bless` if intended):\n{}",
                    line_diff(&want, &pinned)
                ));
            }
            out.push_str(&format!(
                "report matches {path} (rendered over the first {k} of {} entries)\n",
                entries.len()
            ));
        }
        if args.has("check") {
            let anomalies = detect_anomalies(&entries, &opts);
            if !anomalies.is_empty() {
                let mut msg = format!(
                    "report --check: {} anomalous per-phase model residual(s) \
                     (> {:.2}% over the scenario reference):\n",
                    anomalies.len(),
                    threshold * 100.0
                );
                for a in &anomalies {
                    msg.push_str(&format!("  - {}\n", a.describe()));
                }
                return Err(msg);
            }
            out.push_str(&format!(
                "report check OK: {} entries, every per-phase residual within {:.2}% \
                 of its scenario reference\n",
                entries.len(),
                threshold * 100.0
            ));
        }
        return Ok(out);
    }

    if cmd == "serve" {
        // Multi-tenant serving layer (docs/serving.md): pure virtual-time
        // simulation over the Grid'5000 catalog — no runtime needed.
        let catalog = grid_tsqr::qcg::ResourceCatalog::grid5000();
        let load: f64 = args.num("load", 0.8f64)?;
        if !load.is_finite() || load <= 0.0 {
            return Err("--load must be a positive finite fraction of grid capacity".into());
        }
        let requests: usize = args.num("requests", 200usize)?;
        if requests == 0 {
            return Err("--requests must be at least 1".into());
        }
        let queue_capacity: usize = args.num("queue", 64usize)?;
        let single_shape: Option<usize> = match args.get("shape") {
            None => None,
            Some(v) => {
                let i: usize =
                    v.parse().map_err(|_| format!("--shape: cannot parse {v:?}"))?;
                if i >= grid_tsqr::serve::menu().len() {
                    return Err(format!(
                        "--shape {i}: the menu has {} shapes",
                        grid_tsqr::serve::menu().len()
                    ));
                }
                Some(i)
            }
        };
        let policy_arg = args.get("policy").unwrap_or("fifo");
        let policies: Vec<ServePolicy> = if policy_arg == "all" {
            ServePolicy::all().to_vec()
        } else {
            vec![ServePolicy::parse(policy_arg)?]
        };

        // --- Failure schedule (site axis) + recovery knobs. Times are
        // --- wall-flag milliseconds, converted to virtual seconds like
        // --- the `faults` subcommand.
        let fseed: u64 = args.num("fault-seed", 1u64)?;
        let mut schedule = FailureSchedule::new(fseed);
        for spec in args.all("crash") {
            let (s, ms) = spec
                .split_once('@')
                .ok_or_else(|| format!("--crash wants SITE@MS, got {spec:?}"))?;
            let s: usize = s.parse().map_err(|_| format!("--crash: bad site {s:?}"))?;
            if s >= catalog.clusters.len() {
                return Err(format!("--crash: site {s} not in the {}-cluster catalog", catalog.clusters.len()));
            }
            let ms: f64 = ms.parse().map_err(|_| format!("--crash: bad time {ms:?}"))?;
            schedule = schedule.crash_site(s, VirtualTime::from_secs(ms * 1e-3));
        }
        let triple = |flag: &str, spec: &str| -> Result<(usize, usize, String), String> {
            let parts: Vec<&str> = spec.split(':').collect();
            let [src, dst, x] = parts[..] else {
                return Err(format!("--{flag} wants A:B:X, got {spec:?}"));
            };
            let src = src.parse().map_err(|_| format!("--{flag}: bad site {src:?}"))?;
            let dst = dst.parse().map_err(|_| format!("--{flag}: bad site {dst:?}"))?;
            Ok((src, dst, x.to_string()))
        };
        for spec in args.all("drop-flow") {
            let (a, b, nth) = triple("drop-flow", spec)?;
            let nth: u64 =
                nth.parse().map_err(|_| format!("--drop-flow: bad nth {nth:?}"))?;
            schedule = schedule.drop_nth_message(a.min(b), a.max(b), nth);
        }
        for spec in args.all("drop-prob") {
            let (a, b, prob) = triple("drop-prob", spec)?;
            let prob: f64 =
                prob.parse().map_err(|_| format!("--drop-prob: bad p {prob:?}"))?;
            schedule = schedule.drop_probability(a.min(b), a.max(b), prob);
        }
        if let Some(spec) = args.get("wan-slow") {
            let parts: Vec<&str> = spec.split(':').collect();
            let [from, until, lat, bw] = parts[..] else {
                return Err(format!(
                    "--wan-slow wants FROM_MS:UNTIL_MS:LATx:BWx, got {spec:?}"
                ));
            };
            let p = |what: &str, v: &str| -> Result<f64, String> {
                v.parse().map_err(|_| format!("--wan-slow: bad {what} {v:?}"))
            };
            schedule = schedule.degrade_all_wan(
                VirtualTime::from_secs(p("from", from)? * 1e-3),
                VirtualTime::from_secs(p("until", until)? * 1e-3),
                p("latency factor", lat)?,
                p("bandwidth divisor", bw)?,
            );
        }
        let faulty = !schedule.is_empty();
        let max_attempts: usize = args.num("retry", 3usize)?;
        if max_attempts == 0 {
            return Err("--retry must allow at least one attempt".into());
        }
        let backoff_ms: f64 = args.num("backoff", 50.0f64)?;
        if !backoff_ms.is_finite() || backoff_ms < 0.0 {
            return Err("--backoff must be a non-negative duration in ms".into());
        }
        let retry = grid_tsqr::serve::RetryPolicy {
            max_attempts,
            backoff_base_s: backoff_ms * 1e-3,
            checkpoint_drain: !args.has("no-checkpoint"),
            ..Default::default()
        };
        let brownout = match args.get("brownout") {
            None => grid_tsqr::serve::BrownoutConfig::default(),
            Some(spec) => {
                let (enter, exit) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("--brownout wants ENTER:EXIT, got {spec:?}"))?;
                let enter: usize =
                    enter.parse().map_err(|_| format!("--brownout: bad enter {enter:?}"))?;
                let exit: usize =
                    exit.parse().map_err(|_| format!("--brownout: bad exit {exit:?}"))?;
                if exit > enter {
                    return Err("--brownout: exit watermark must not exceed enter".into());
                }
                grid_tsqr::serve::BrownoutConfig {
                    enter_watermark: enter,
                    exit_watermark: exit,
                    ..Default::default()
                }
            }
        };

        let base = ServeConfig {
            policy: policies[0],
            load,
            requests,
            seed: args.num("seed", 42u64)?,
            batch: args.has("batch"),
            queue_capacity,
            single_shape,
            faults: schedule,
            retry,
            brownout,
            ..Default::default()
        };

        let mut out = String::new();
        if let Some(sweep) = args.get("sweep") {
            // Latency/throughput knee: one row per load, first policy only.
            let mut rows = Vec::new();
            for tok in sweep.split(',') {
                let l: f64 =
                    tok.parse().map_err(|_| format!("--sweep: cannot parse {tok:?}"))?;
                if !l.is_finite() || l <= 0.0 {
                    return Err("--sweep loads must be positive".into());
                }
                let outcome =
                    grid_tsqr::serve::serve(&catalog, &ServeConfig { load: l, ..base.clone() });
                rows.push((l, PolicyReport::from_outcome(&outcome)));
            }
            out.push_str(&format!(
                "load sweep, policy {}{}:\n",
                base.policy.label(),
                if base.batch { " +batch" } else { "" }
            ));
            out.push_str(&grid_tsqr::serve::load_sweep_table(&rows));
            return Ok(out);
        }

        let ledger = path_from_env();
        for (i, &policy) in policies.iter().enumerate() {
            let cfg = ServeConfig { policy, ..base.clone() };
            let outcome = grid_tsqr::serve::serve(&catalog, &cfg);
            let report = PolicyReport::from_outcome(&outcome);
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&report.render());
            if faulty {
                // The typed fault audit trail, in event order — the
                // worked example in docs/serving.md §Failures.
                for f in &outcome.faults {
                    let kind = match f.kind {
                        grid_tsqr::serve::FaultKind::SiteCrashed { site } => {
                            format!("site {site} crashed")
                        }
                        grid_tsqr::serve::FaultKind::DrainDropped { link } => {
                            format!("drain dropped on {}-{}", link.0, link.1)
                        }
                    };
                    let action = match f.action {
                        grid_tsqr::serve::RecoveryAction::Retried { attempts, checkpointed } => {
                            format!(
                                "retry #{attempts}{}",
                                if checkpointed { " (checkpointed drain)" } else { " (full restart)" }
                            )
                        }
                        grid_tsqr::serve::RecoveryAction::FailedPermanent { attempts } => {
                            format!("failed permanently after {attempts} attempt(s)")
                        }
                    };
                    out.push_str(&format!(
                        "fault t={:.3}s req {}: {kind} -> {action}\n",
                        f.at.secs(),
                        f.request
                    ));
                }
                for &(s, e) in &outcome.brownout_windows {
                    out.push_str(&format!("brownout window {s:.3}s -> {e:.3}s\n"));
                }
            }
            if policies.len() == 1 {
                out.push_str("\nlink-class busy timeline:\n");
                out.push_str(&grid_tsqr::serve::timeline(&outcome, 48).render());
            }
            if let Some(path) = args.get("trace-out") {
                // One JSON line per request, in id order — deterministic.
                let suffixed = if policies.len() == 1 {
                    path.to_string()
                } else {
                    format!("{path}.{}", policy.label())
                };
                let mut body = String::new();
                for r in &outcome.records {
                    let disp = match &r.disposition {
                        grid_tsqr::serve::Disposition::Completed {
                            start,
                            finish,
                            batch_size,
                            attempts,
                        } => format!(
                            "\"completed\",\"start_s\":{:.9},\"finish_s\":{:.9},\"batch\":{},\
                             \"attempts\":{}",
                            start.secs(),
                            finish.secs(),
                            batch_size,
                            attempts
                        ),
                        grid_tsqr::serve::Disposition::RejectedQueueFull => {
                            "\"rejected-queue-full\"".to_string()
                        }
                        grid_tsqr::serve::Disposition::RejectedInfeasible => {
                            "\"rejected-infeasible\"".to_string()
                        }
                        grid_tsqr::serve::Disposition::Shed => "\"shed\"".to_string(),
                        grid_tsqr::serve::Disposition::FailedPermanent { attempts } => {
                            format!("\"failed-permanent\",\"attempts\":{attempts}")
                        }
                    };
                    body.push_str(&format!(
                        "{{\"id\":{},\"tenant\":{},\"shape\":{},\"rows\":{},\"cols\":{},\
                         \"sites\":{},\"arrival_s\":{:.9},\"deadline_s\":{:.9},\
                         \"disposition\":{disp}}}\n",
                        r.request.id,
                        r.request.tenant,
                        r.request.shape,
                        r.request.rows,
                        r.request.cols,
                        r.request.sites,
                        r.request.arrival.secs(),
                        r.request.deadline.secs(),
                    ));
                }
                std::fs::write(&suffixed, body)
                    .map_err(|e| format!("cannot write {suffixed:?}: {e}"))?;
                out.push_str(&format!(
                    "dispositions for {} request(s) written to {suffixed}\n",
                    outcome.records.len()
                ));
            }
            // Record the run in the experiment ledger. Serving reuses the
            // critical-path columns for queueing statistics — the mapping
            // is documented in docs/serving.md §Ledger.
            if let Some(path) = &ledger {
                let source = if faulty { "serve-faults" } else { "serve" };
                let scenario = format!(
                    "cli/{source}/{}-load{load:.2}{}",
                    policy.label(),
                    if cfg.batch { "-batch" } else { "" }
                );
                let tree = format!("serve/{}", policy.label());
                let entry =
                    serve_ledger_entry(source, &scenario, &tree, &catalog, &outcome, &report);
                let seq = append_entry(path, entry)?;
                out.push_str(&format!("ledger: entry {seq} appended to {}\n", path.display()));
            }
        }
        if policies.len() > 1 {
            out.push_str("\nsummary (same seeded trace, one line per policy):\n");
            for &policy in &policies {
                let cfg = ServeConfig { policy, ..base.clone() };
                let report =
                    PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &cfg));
                out.push_str(&format!("  {}\n", report.summary_line()));
            }
        }
        return Ok(out);
    }

    let m: u64 = args.num("m", 1u64 << 20)?;
    let n: usize = args.num("n", 64usize)?;
    let sites: usize = args.num("sites", 4usize)?;
    let seed: u64 = args.num("seed", 42u64)?;
    if !(1..=4).contains(&sites) {
        return Err("--sites must be 1..=4".into());
    }
    // Wall-clock deadlock safety net (failure *detection* is virtual-time;
    // see docs/fault-injection.md §Detection).
    let recv_timeout: Option<f64> = match args.get("recv-timeout") {
        None => None,
        Some(v) => {
            let secs: f64 =
                v.parse().map_err(|_| format!("--recv-timeout: cannot parse {v:?}"))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err("--recv-timeout must be positive".into());
            }
            Some(secs)
        }
    };
    let mut rt: Runtime = grid_runtime(sites);
    if let Some(secs) = recv_timeout {
        rt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
    }
    let rt = rt;
    let mode = if args.has("real") { Mode::Real { seed } } else { Mode::Symbolic };
    let rates = |n: usize| {
        (
            Some(calib::kernel_rate_flops(n)),
            Some(calib::combine_rate_flops()),
        )
    };

    let describe = |label: &str, res: &grid_tsqr::core::experiment::ExperimentResult| {
        format!(
            "{label}: {:.3} s simulated, {:.1} Gflop/s, {} msgs ({} WAN), {:.1} MB moved\n",
            res.makespan.secs(),
            res.gflops,
            res.totals.total_msgs(),
            res.totals.inter_cluster_msgs(),
            res.totals.total_bytes() as f64 / 1e6,
        )
    };

    let verify = |res: &grid_tsqr::core::experiment::ExperimentResult| -> Result<String, String> {
        let Some(r) = &res.r else { return Ok(String::new()) };
        if m > 1 << 22 {
            return Ok("  (matrix too tall to verify in-process; skipped)\n".into());
        }
        let reference = QrFactors::compute(&workload::full_matrix(seed, m as usize, n), 64)
            .r()
            .upper_triangular_padded();
        let d = r_distance(r, &reference);
        if d < 1e-9 {
            Ok(format!("  R verified against single-process QR (max diff {d:.2e})\n"))
        } else {
            Err(format!("R mismatch: {d:.2e}"))
        }
    };

    match cmd.as_str() {
        "tsqr" => {
            let domains: usize = args.num("domains", 64usize)?;
            let shape = parse_shape(args.get("tree").unwrap_or("grid"))?;
            let (rate, combine) = rates(n);
            let res = run_experiment(
                &rt,
                &Experiment {
                    m,
                    n,
                    algorithm: Algorithm::Tsqr { shape, domains_per_cluster: domains },
                    compute_q: args.has("q"),
                    mode,
                    rate_flops: rate,
                    combine_rate_flops: combine,
                },
            );
            let mut out = describe("TSQR", &res);
            out.push_str(&verify(&res)?);
            Ok(out)
        }
        "scalapack" => {
            let algorithm = if args.has("blocked") {
                Algorithm::ScalapackQrf { nb: 64, nx: 128 }
            } else {
                Algorithm::ScalapackQr2
            };
            let (rate, _) = rates(n);
            let res = run_experiment(
                &rt,
                &Experiment {
                    m,
                    n,
                    algorithm,
                    compute_q: false,
                    mode,
                    rate_flops: rate,
                    combine_rate_flops: None,
                },
            );
            let mut out = describe("ScaLAPACK", &res);
            out.push_str(&verify(&res)?);
            Ok(out)
        }
        "compare" => {
            let (rate, combine) = rates(n);
            let mk = |algorithm| Experiment {
                m,
                n,
                algorithm,
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: rate,
                combine_rate_flops: combine,
            };
            let t = run_experiment(
                &rt,
                &mk(Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 64,
                }),
            );
            let s = run_experiment(&rt, &mk(Algorithm::ScalapackQr2));
            let mut out = describe("TSQR     ", &t);
            out.push_str(&describe("ScaLAPACK", &s));
            out.push_str(&format!("speedup: {:.2}x\n", s.makespan.secs() / t.makespan.secs()));
            Ok(out)
        }
        "trace" | "analyze" => {
            let domains: usize = args.num("domains", 64usize)?;
            let shape = parse_shape(args.get("tree").unwrap_or("grid"))?;
            let (algorithm, rate, combine) = match args.get("algo").unwrap_or("tsqr") {
                "tsqr" => {
                    let (r, c) = rates(n);
                    (Algorithm::Tsqr { shape, domains_per_cluster: domains }, r, c)
                }
                "scalapack" => {
                    let (r, _) = rates(n);
                    (Algorithm::ScalapackQr2, r, None)
                }
                "scalapack-blocked" => {
                    let (r, _) = rates(n);
                    (Algorithm::ScalapackQrf { nb: 64, nx: 128 }, r, None)
                }
                other => return Err(format!("unknown --algo {other:?}")),
            };
            let mut rt = grid_runtime(sites);
            if let Some(secs) = recv_timeout {
                rt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
            }
            rt.enable_tracing();
            let res = run_experiment(
                &rt,
                &Experiment {
                    m,
                    n,
                    algorithm,
                    compute_q: false,
                    mode,
                    rate_flops: rate,
                    combine_rate_flops: combine,
                },
            );
            let trace = res.trace.as_ref().expect("tracing was enabled");
            let cp = trace.critical_path();
            let drift = (cp.total().secs() - res.makespan.secs()).abs();
            if drift > 1e-9 * res.makespan.secs().max(1.0) {
                return Err(format!(
                    "critical path ({:.9} s) does not tile the makespan ({:.9} s)",
                    cp.total().secs(),
                    res.makespan.secs()
                ));
            }
            if cmd == "analyze" {
                let bins: usize = args.num("bins", 64usize)?;
                if bins == 0 {
                    return Err("--bins must be at least 1".into());
                }
                let diag = trace.diagnose(rt.topology().num_procs(), bins);
                let wait_drift = diag.reconcile(&res.metrics);
                let wait_scale = diag.total().total_wait_s().max(1.0);
                if wait_drift > 1e-9 * wait_scale {
                    return Err(format!(
                        "wait states do not reconcile with the metrics registry \
                         (max drift {wait_drift:.3e} s)"
                    ));
                }
                let mut out = describe("analyzed run", &res);
                out.push_str(&verify(&res)?);
                out.push_str(&format!(
                    "wait states reconcile with the metrics registry \
                     (max drift {wait_drift:.2e} s, tol 1e-9 relative)\n\n"
                ));
                out.push_str(&diag.render());
                out.push_str("\n== model fit (Eq. 1) ==\n");
                match modelfit::fit(&modelfit::samples_from_metrics(&res.metrics)) {
                    Some(f) => out.push_str(&f.render()),
                    None => out.push_str("(no active samples to fit)\n"),
                }
                return Ok(out);
            }
            let mut out = describe("traced run", &res);
            out.push_str(&verify(&res)?);
            out.push_str(&format!(
                "{} events traced ({} WAN sends); critical path tiles the makespan exactly\n",
                trace.len(),
                trace.wan_sends().len()
            ));
            out.push_str("\ncritical path:\n");
            let rendered = cp.render();
            let lines: Vec<&str> = rendered.lines().collect();
            if lines.len() > 40 {
                for l in &lines[..16] {
                    out.push_str(l);
                    out.push('\n');
                }
                out.push_str(&format!("  ... {} more segments ...\n", lines.len() - 32));
                for l in &lines[lines.len() - 16..] {
                    out.push_str(l);
                    out.push('\n');
                }
            } else {
                out.push_str(&rendered);
            }
            out.push('\n');
            out.push_str(&res.aggregate_metrics().render());
            if args.has("timeline") {
                out.push_str("\ntimeline:\n");
                out.push_str(&trace.render());
            }
            if let Some(path) = args.get("out") {
                std::fs::write(path, trace.chrome_json())
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                out.push_str(&format!(
                    "\nChrome trace written to {path} (load in ui.perfetto.dev or chrome://tracing)\n"
                ));
            }
            if let Some(path) = args.get("folded-out") {
                let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
                let tile_err = profile.max_tiling_error_rel();
                if tile_err > 1e-9 {
                    return Err(format!(
                        "folded profile does not tile the per-rank timelines \
                         (max rel err {tile_err:.3e}, tol 1e-9)"
                    ));
                }
                std::fs::write(path, profile.render_folded())
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                let agg_path = format!("{path}.agg");
                std::fs::write(&agg_path, profile.render_aggregate())
                    .map_err(|e| format!("cannot write {agg_path:?}: {e}"))?;
                out.push_str(&format!(
                    "\nfolded stacks written to {path} (per rank) and {agg_path} (aggregate); \
                     leaf self-times tile every rank's makespan (max rel err {tile_err:.2e})\n",
                ));
                out.push('\n');
                out.push_str(&profile.render_hot_table(10));
            }
            Ok(out)
        }
        "faults" => {
            // --- Build the failure schedule from the repeatable flags. ---
            let fseed: u64 = args.num("fault-seed", 1u64)?;
            let mut schedule = FailureSchedule::new(fseed);
            for spec in args.all("crash") {
                let (r, ms) = spec
                    .split_once('@')
                    .ok_or_else(|| format!("--crash wants RANK@MS, got {spec:?}"))?;
                let r: usize = r.parse().map_err(|_| format!("--crash: bad rank {r:?}"))?;
                let ms: f64 = ms.parse().map_err(|_| format!("--crash: bad time {ms:?}"))?;
                schedule = schedule.crash_rank(r, VirtualTime::from_secs(ms * 1e-3));
            }
            let triple = |flag: &str, spec: &str| -> Result<(usize, usize, String), String> {
                let parts: Vec<&str> = spec.split(':').collect();
                let [src, dst, x] = parts[..] else {
                    return Err(format!("--{flag} wants SRC:DST:X, got {spec:?}"));
                };
                let src = src.parse().map_err(|_| format!("--{flag}: bad src {src:?}"))?;
                let dst = dst.parse().map_err(|_| format!("--{flag}: bad dst {dst:?}"))?;
                Ok((src, dst, x.to_string()))
            };
            for spec in args.all("drop") {
                let (src, dst, nth) = triple("drop", spec)?;
                let nth: u64 =
                    nth.parse().map_err(|_| format!("--drop: bad nth {nth:?}"))?;
                schedule = schedule.drop_nth_message(src, dst, nth);
            }
            for spec in args.all("drop-prob") {
                let (src, dst, prob) = triple("drop-prob", spec)?;
                let prob: f64 =
                    prob.parse().map_err(|_| format!("--drop-prob: bad p {prob:?}"))?;
                schedule = schedule.drop_probability(src, dst, prob);
            }
            if let Some(spec) = args.get("wan-slow") {
                let parts: Vec<&str> = spec.split(':').collect();
                let [from, until, lat, bw] = parts[..] else {
                    return Err(format!(
                        "--wan-slow wants FROM_MS:UNTIL_MS:LATx:BWx, got {spec:?}"
                    ));
                };
                let p = |what: &str, v: &str| -> Result<f64, String> {
                    v.parse().map_err(|_| format!("--wan-slow: bad {what} {v:?}"))
                };
                schedule = schedule.degrade_all_wan(
                    VirtualTime::from_secs(p("from", from)? * 1e-3),
                    VirtualTime::from_secs(p("until", until)? * 1e-3),
                    p("latency factor", lat)?,
                    p("bandwidth divisor", bw)?,
                );
            }

            // --- One domain per process, as self-healing TSQR requires. ---
            let dpc = rt.topology().num_procs() / sites;
            let layout = DomainLayout::build(rt.topology(), m, n, dpc);
            let tree = ReductionTree::build(
                &TreeShape::GridHierarchical,
                layout.num_domains(),
                &layout.clusters(),
            );
            let (rate, combine) = rates(n);
            let cfg = TsqrConfig {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: dpc,
                compute_q: false,
                combine_rate_flops: combine,
            };

            // Failure-free reference: the plain program, empty schedule.
            let clean = rt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
            let reference = clean.ranks[0]
                .result
                .clone()
                .map_err(|e| format!("failure-free run failed: {e}"))?
                .r
                .expect("root holds R");
            let mut out = format!(
                "failure-free: {:.3} s simulated ({} domains, tree grid)\n",
                clean.makespan.secs(),
                layout.num_domains(),
            );

            // Self-healing run under the schedule.
            let ledger = path_from_env();
            let mut frt = grid_runtime(sites);
            if let Some(secs) = recv_timeout {
                frt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
            }
            if ledger.is_some() {
                // The ledger entry wants the critical-path split, which
                // needs the event trace.
                frt.enable_tracing();
            }
            frt.set_failure_schedule(schedule.clone());
            let mut report =
                frt.run(|p, _| ft_tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
            let makespan = report.makespan;
            // `outcome()` consumes the report, so lift the observability
            // payloads the ledger entry needs out of it first.
            let run_metrics = std::mem::take(&mut report.metrics);
            let run_trace = report.trace.take();
            let outcome = report.outcome();
            let mut holder: Option<(usize, grid_tsqr::core::ft_tsqr::FtTsqrOutput)> = None;
            let (mut rebuilt, mut salvaged) = (0usize, 0usize);
            for (rank, o) in &outcome.survivors {
                rebuilt += o.rebuilt_subtrees.len();
                salvaged += o.salvaged_children.len();
                if o.r.is_some() {
                    holder = Some((*rank, o.clone()));
                }
            }
            let (holder_rank, holder_out) =
                holder.ok_or("no survivor holds an R factor — recovery failed")?;
            out.push_str(&format!(
                "self-healing: {:.3} s simulated; {} crashed rank(s) {:?}; \
                 {} subtree(s) rebuilt, {} salvaged; R held by rank {}\n",
                makespan.secs(),
                outcome.failed_ranks().len(),
                outcome.failed_ranks(),
                rebuilt,
                salvaged,
                holder_rank,
            ));
            let r = holder_out.r.expect("holder has R");
            let d = r_distance(&r, &reference);
            if !r.approx_eq(&reference, 0.0) {
                return Err(format!(
                    "recovered R differs from the failure-free R (max diff {d:.2e})"
                ));
            }
            out.push_str("  recovered R is bitwise identical to the failure-free R\n");

            // Optionally show how the plain program fares (typed, no panic).
            if args.has("baseline") {
                let mut brt = grid_runtime(sites);
                if let Some(secs) = recv_timeout {
                    brt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
                }
                brt.set_failure_schedule(schedule);
                let base =
                    brt.run(|p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
                let bo = base.outcome();
                if bo.is_clean() {
                    out.push_str("baseline tsqr: unaffected by this schedule\n");
                } else {
                    out.push_str(&format!(
                        "baseline tsqr: {} rank(s) failed {:?}; first error: {}\n",
                        bo.failed_ranks().len(),
                        bo.failed_ranks(),
                        bo.failures
                            .first()
                            .map(|(r, e)| format!("rank {r}: {e}"))
                            .unwrap_or_default(),
                    ));
                }
            }

            // Record the self-healing run in the experiment ledger.
            if let Some(path) = &ledger {
                let gflops = grid_tsqr::core::model::useful_flops(m, n as u64, false)
                    / makespan.secs().max(1e-12)
                    / 1e9;
                let entry = ledger_entry(
                    "faults",
                    &format!("cli/faults/s{sites}-m{m}-n{n}"),
                    sites,
                    frt.topology().num_procs(),
                    m,
                    n,
                    &format!("ft-GridHierarchical/dpc{dpc}"),
                    makespan.secs(),
                    gflops,
                    &run_metrics,
                    run_trace.as_ref(),
                );
                let seq = append_entry(path, entry)?;
                out.push_str(&format!(
                    "ledger: entry {seq} appended to {}\n",
                    path.display()
                ));
            }
            Ok(out)
        }
        "tune" => {
            // Model-driven reduction-tree search (docs/tuning.md): predict
            // every candidate's makespan from the calibrated cost model,
            // pick the argmin, replay the winner through netsim, and show
            // how it stacks up against the fixed shapes.
            let domains: usize = args.num("domains", 64usize)?;
            let topo = rt.topology();
            let per_cluster = topo.num_procs() / topo.num_clusters().max(1);
            if domains != per_cluster {
                return Err(format!(
                    "--domains {domains}: the analytic predictor needs single-process \
                     domains, i.e. --domains {per_cluster} on this topology \
                     ({per_cluster} procs/cluster). Grouped-domain runs are still \
                     available via `grid-tsqr tsqr --domains {domains}`."
                ));
            }
            let (rate, combine) = rates(n);
            let outcome = tune::autotune(&rt, m, n, domains, rate, combine);
            let mut out = format!(
                "model-driven tree search: {} single-process domains over {sites} site(s), \
                 M={m}, N={n}\n\n  {:<12} {:>15} {:>6} {:>9}\n",
                outcome.domains, "tree", "predicted (s)", "depth", "WAN msgs"
            );
            for (i, c) in outcome.table.iter().enumerate() {
                let mark = if i == outcome.winner { "   <-- winner" } else { "" };
                out.push_str(&format!(
                    "  {:<12} {:>15.6} {:>6} {:>9}{mark}\n",
                    c.name,
                    c.predicted.secs(),
                    c.depth,
                    c.wan_msgs
                ));
            }
            let best = outcome.best();
            let rel = (best.predicted.secs() - outcome.replayed.secs()).abs()
                / outcome.replayed.secs().abs().max(1e-12);
            out.push_str(&format!(
                "\nwinner: {} — predicted {:.6} s, netsim replay {:.6} s (agree to {rel:.1e} rel)\n",
                best.name,
                best.predicted.secs(),
                outcome.replayed.secs()
            ));
            let layout = DomainLayout::build(rt.topology(), m, n, domains);
            for (name, shape) in [
                ("flat", TreeShape::Flat),
                ("binary", TreeShape::Binary),
                ("grid", TreeShape::GridHierarchical),
            ] {
                let fixed = tune::replay_makespan(&rt, &layout, &shape, rate, combine);
                out.push_str(&format!(
                    "vs fixed {name:<7} {:>10.6} s  (tuned is {:.3}x)\n",
                    fixed.secs(),
                    fixed.secs() / outcome.replayed.secs()
                ));
            }

            // Record the winner in the experiment ledger: re-run it traced
            // so the entry carries the critical-path split and per-phase
            // Eq. (1) residuals like every other ledger source.
            if let Some(path) = path_from_env() {
                let mut trt = grid_runtime(sites);
                if let Some(secs) = recv_timeout {
                    trt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
                }
                trt.enable_tracing();
                let res = run_experiment(
                    &trt,
                    &Experiment {
                        m,
                        n,
                        algorithm: Algorithm::Tsqr {
                            shape: best.shape.clone(),
                            domains_per_cluster: domains,
                        },
                        compute_q: false,
                        mode: Mode::Symbolic,
                        rate_flops: rate,
                        combine_rate_flops: combine,
                    },
                );
                let entry = ledger_entry(
                    "tune",
                    &format!("cli/tune/s{sites}-m{m}-n{n}"),
                    sites,
                    trt.topology().num_procs(),
                    m,
                    n,
                    &format!("{:?}/dpc{domains}", best.shape),
                    res.makespan.secs(),
                    res.gflops,
                    &res.metrics,
                    res.trace.as_ref(),
                );
                let seq = append_entry(&path, entry)?;
                out.push_str(&format!(
                    "ledger: entry {seq} (winner {}) appended to {}\n",
                    best.name,
                    path.display()
                ));
            }
            Ok(out)
        }
        "check" => {
            // commcheck: every scenario runs with tracing on, every trace
            // goes through the happens-before analyzer, and the structural
            // summary lines are gated against a blessed golden file — the
            // race/deadlock analogue of `scripts/bench_check.sh`.
            //
            // Sizes default *small* (the golden file is blessed at exactly
            // these defaults): the analyzer checks structure, not speed.
            let m: u64 = args.num("m", 1u64 << 16)?;
            let n: usize = args.num("n", 32usize)?;
            let run_matrix = !args.has("no-matrix");
            let run_explore = !args.has("no-explore");
            let golden = args.get("golden");
            let bless = args.has("bless");
            if (golden.is_some() || bless) && !(run_matrix && run_explore) {
                return Err(
                    "--golden/--bless gate the full scenario set; drop --no-matrix/--no-explore"
                        .into(),
                );
            }

            let (rate, combine) = rates(n);
            // (name, summary line) in a fixed order — this is the golden
            // file body. `bad` collects full renderings of any scenario
            // whose HbReport is not clean.
            let mut lines: Vec<String> = Vec::new();
            let mut bad: Vec<String> = Vec::new();
            let mut record = |name: &str, hb: &HbReport| {
                lines.push(format!("{name:<22} {}", hb.summary_line()));
                if !hb.ok() {
                    bad.push(format!("{name}:\n{}", hb.render()));
                }
            };

            // --- Figure-style scenarios (§V, Figs. 4–8): each tree shape
            // and both ScaLAPACK baselines, traced, symbolic numerics
            // (the schedule — and therefore the HB DAG — is identical to
            // the real-numerics run by construction).
            let figure = |algorithm: Algorithm, comb: Option<f64>| -> Result<HbReport, String> {
                let mut trt = grid_runtime(sites);
                if let Some(secs) = recv_timeout {
                    trt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
                }
                trt.enable_tracing();
                let res = run_experiment(
                    &trt,
                    &Experiment {
                        m,
                        n,
                        algorithm,
                        compute_q: false,
                        mode: Mode::Symbolic,
                        rate_flops: rate,
                        combine_rate_flops: comb,
                    },
                );
                let trace = res
                    .trace
                    .as_ref()
                    .ok_or_else(|| "tracing was enabled but no trace came back".to_string())?;
                Ok(trace.hb_analysis())
            };
            for (name, shape) in [
                ("tsqr-grid", TreeShape::GridHierarchical),
                ("tsqr-binary", TreeShape::Binary),
                ("tsqr-flat", TreeShape::Flat),
                ("tsqr-kary3", TreeShape::Kary(3)),
                ("tsqr-binomial", TreeShape::Binomial),
                ("tsqr-greedy", TreeShape::Greedy),
            ] {
                let hb = figure(Algorithm::Tsqr { shape, domains_per_cluster: 64 }, combine)?;
                record(name, &hb);
            }
            let hb = figure(
                Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 16,
                },
                combine,
            )?;
            record("tsqr-grid-d16", &hb);
            let hb = figure(Algorithm::ScalapackQr2, None)?;
            record("scalapack-qr2", &hb);
            let hb = figure(Algorithm::ScalapackQrf { nb: 64, nx: 128 }, None)?;
            record("scalapack-blocked", &hb);

            // --- The fault matrix of `scripts/verify.sh`: the self-healing
            // TSQR under every schedule the fault-injection PR gates, each
            // trace analyzed. Crash schedules legitimately orphan sends
            // (counted in the summary line); races/cycles/violations must
            // still be zero.
            if run_matrix {
                let dpc = rt.topology().num_procs() / sites;
                let layout = DomainLayout::build(rt.topology(), m, n, dpc);
                let tree = ReductionTree::build(
                    &TreeShape::GridHierarchical,
                    layout.num_domains(),
                    &layout.clusters(),
                );
                let cfg = TsqrConfig {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: dpc,
                    compute_q: false,
                    combine_rate_flops: combine,
                };
                let fault = |schedule: FailureSchedule| -> Result<HbReport, String> {
                    let mut frt = grid_runtime(sites);
                    if let Some(secs) = recv_timeout {
                        frt.set_recv_timeout(std::time::Duration::from_secs_f64(secs));
                    }
                    frt.enable_tracing();
                    frt.set_failure_schedule(schedule);
                    let report =
                        frt.run(|p, _| ft_tsqr_rank_program(p, &layout, &tree, &cfg, seed, rate));
                    let hb = report
                        .trace
                        .as_ref()
                        .ok_or_else(|| "tracing was enabled but no trace came back".to_string())?
                        .hb_analysis();
                    let outcome = report.outcome();
                    if !outcome.survivors.iter().any(|(_, o)| o.r.is_some()) {
                        return Err("no survivor holds an R factor — recovery failed".into());
                    }
                    Ok(hb)
                };
                let at = |ms: f64| VirtualTime::from_secs(ms * 1e-3);
                record("faults-none", &fault(FailureSchedule::new(1))?);
                for (r, ms) in
                    [(255usize, 0.5), (2, 2.0), (64, 2.0), (128, 6.0), (0, 6.0)]
                {
                    let hb = fault(FailureSchedule::new(1).crash_rank(r, at(ms)))?;
                    record(&format!("faults-crash-{r}"), &hb);
                }
                let hb = fault(
                    FailureSchedule::new(1).crash_rank(0, at(2.0)).crash_rank(1, at(4.0)),
                )?;
                record("faults-crash-0+1", &hb);
                let hb = fault(
                    FailureSchedule::new(7)
                        .drop_probability(64, 0, 0.4)
                        .degrade_all_wan(at(0.0), at(50.0), 4.0, 4.0),
                )?;
                record("faults-drop-wan", &hb);
            }

            // --- DPOR-lite determinism proof on a dedicated 8-rank grid
            // (P ≤ 8 is the exhaustive regime of `schedules_for`): run the
            // real-numerics TSQR under every permuted delivery order and
            // require bit-identical R, makespan, metrics — plus race-free
            // traces, so unexplored interleavings cannot differ either.
            if run_explore {
                let small_topo = || {
                    GridTopology::block_placement(
                        vec![
                            ClusterSpec {
                                name: "expl-a".into(),
                                nodes: 4,
                                procs_per_node: 1,
                                peak_gflops_per_proc: 8.0,
                            },
                            ClusterSpec {
                                name: "expl-b".into(),
                                nodes: 4,
                                procs_per_node: 1,
                                peak_gflops_per_proc: 8.0,
                            },
                        ],
                        4,
                        1,
                    )
                };
                let small_model =
                    CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 2);
                let slayout = DomainLayout::build(&small_topo(), 4096, 8, 4);
                let stree = ReductionTree::build(
                    &TreeShape::GridHierarchical,
                    slayout.num_domains(),
                    &slayout.clusters(),
                );
                let scfg = TsqrConfig {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 4,
                    compute_q: false,
                    combine_rate_flops: None,
                };
                let rep = explore(
                    || Runtime::new(small_topo(), small_model.clone()),
                    |p, _| tsqr_rank_program(p, &slayout, &stree, &scfg, seed, None),
                    |o| {
                        o.r.as_ref().map_or(0, |r| {
                            let mut bytes = Vec::with_capacity(r.as_slice().len() * 8);
                            for x in r.as_slice() {
                                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                            }
                            fnv1a(&bytes)
                        })
                    },
                    &schedules_for(8),
                );
                let yn = |b: bool| if b { "yes" } else { "no" };
                lines.push(format!(
                    "{:<22} schedules={} identical={} hb_clean={} proved={}",
                    "explore-tsqr-p8",
                    rep.schedules(),
                    yn(rep.all_identical()),
                    yn(rep.hb_ok()),
                    yn(rep.proves_determinism()),
                ));
                if !rep.proves_determinism() {
                    bad.push(format!("explore-tsqr-p8:\n{}", rep.render()));
                }
            }

            // --- Serving-layer scenarios (docs/serving.md): the summary
            // lines of the four policies plus a batched same-shape burst on
            // one seeded trace. Structural invariants of the deterministic
            // serving engine, pinned like every other line.
            {
                let catalog = grid_tsqr::qcg::ResourceCatalog::grid5000();
                let base = ServeConfig {
                    requests: 30,
                    load: 1.5,
                    seed: 7,
                    ..Default::default()
                };
                for policy in ServePolicy::all() {
                    let cfg = ServeConfig { policy, ..base.clone() };
                    let r =
                        PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &cfg));
                    lines.push(format!(
                        "{:<22} {}",
                        format!("serve-{}", policy.label()),
                        r.summary_line()
                    ));
                }
                let cfg = ServeConfig {
                    batch: true,
                    single_shape: Some(3),
                    load: 3.0,
                    ..base.clone()
                };
                let r = PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &cfg));
                lines.push(format!("{:<22} {}", "serve-fifo-batch", r.summary_line()));

                // Fault-injected serving (docs/serving.md §Failures): a
                // site crash recovered by checkpointed retries, the same
                // crash forcing 4-site jobs onto survivors via elastic
                // re-planning, and a degraded-WAN window driving brownout
                // shed. Each must replay byte-identically like the rest.
                let crash = ServeConfig {
                    load: 1.0,
                    faults: FailureSchedule::new(1)
                        .crash_site(2, VirtualTime::from_secs(0.1)),
                    ..base.clone()
                };
                let r = PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &crash));
                lines.push(format!("{:<22} {}", "serve-fault-crash", r.summary_line()));

                let replan = ServeConfig {
                    single_shape: Some(3),
                    load: 1.0,
                    ..crash.clone()
                };
                let r = PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &replan));
                lines.push(format!("{:<22} {}", "serve-fault-replan", r.summary_line()));

                let brownout = ServeConfig {
                    requests: 40,
                    load: 0.5,
                    faults: (0..6)
                        .fold(FailureSchedule::new(1), |s, nth| s.drop_nth_message(0, 2, nth))
                        .degrade_all_wan(
                            VirtualTime::from_secs(0.05),
                            VirtualTime::from_secs(5.0),
                            1.0,
                            8.0,
                        ),
                    retry: RetryPolicy { backoff_base_s: 0.2, ..Default::default() },
                    brownout: BrownoutConfig {
                        enter_watermark: 1,
                        exit_watermark: 0,
                        shed_slack: 0.0,
                    },
                    ..base
                };
                let r =
                    PolicyReport::from_outcome(&grid_tsqr::serve::serve(&catalog, &brownout));
                lines.push(format!("{:<22} {}", "serve-fault-brownout", r.summary_line()));
            }

            if !bad.is_empty() {
                return Err(format!("commcheck found problems:\n{}", bad.join("\n")));
            }

            let mut out = String::from("== commcheck: happens-before analysis ==\n");
            let body: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
            out.push_str(&body);
            if bless {
                let path = golden.unwrap_or("COMMCHECK_baseline.txt");
                std::fs::write(path, &body)
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                out.push_str(&format!(
                    "blessed {} scenario line(s) into {path}\n",
                    lines.len()
                ));
            } else if let Some(path) = golden {
                let want = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                if want != body {
                    let want_lines: Vec<&str> = want.lines().collect();
                    let got_lines: Vec<&str> = body.lines().collect();
                    let mut diff = String::new();
                    for i in 0..want_lines.len().max(got_lines.len()) {
                        let w = want_lines.get(i).copied().unwrap_or("<missing>");
                        let g = got_lines.get(i).copied().unwrap_or("<missing>");
                        if w != g {
                            diff.push_str(&format!(
                                "  line {}:\n    baseline: {w}\n    current:  {g}\n",
                                i + 1
                            ));
                        }
                    }
                    return Err(format!(
                        "commcheck summary differs from {path} \
                         (re-bless with `grid-tsqr check --bless` if intended):\n{diff}"
                    ));
                }
                out.push_str(&format!(
                    "all {} scenario line(s) match {path}\n",
                    lines.len()
                ));
            }
            out.push_str(
                "commcheck: 0 races, 0 deadlock cycles, 0 clock violations across all scenarios\n",
            );
            Ok(out)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            usage()
        }
    }
}
