//! The scenario registry and the perf-regression records behind
//! `BENCH_results.json`.
//!
//! [`scenarios`] lists every record the gate pins, in the order of the
//! committed `BENCH_baseline.json`: the Fig. 4–8 headline points, the
//! WAN-degradation scenarios of the fault injector, the autotuned trees,
//! the serving points and the fault-injected serving points — 24 records
//! in five families. [`measure`] runs one scenario and distils it into a
//! [`BenchRecord`] plus an experiment-ledger entry; [`check_claims`]
//! asserts the claims that compare records with each other. The Fig. 4–8
//! binaries reach the same registry through [`figure_points`] and
//! [`crate::harness::run_figure`], so the figure a reader traces is
//! byte-for-byte the configuration the gate measures.
//!
//! A [`BenchRecord`] carries everything `scripts/bench_check.sh` compares
//! against the committed `BENCH_baseline.json`: the makespan and Gflop/s,
//! the Eq. (1) traffic totals (message/byte counts, WAN messages — the
//! paper's headline `O(log #clusters)` vs `2N·log₂P` claim as data), the
//! critical-path split, the total blocked-receive seconds, and the
//! model-fit residual. The simulation is deterministic, so counts compare
//! exactly and times to 1e-9 relative.

use std::fmt::Write as _;

use tsqr_core::domains::DomainLayout;
use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use tsqr_core::modelfit;
use tsqr_core::tree::TreeShape;
use tsqr_core::tune;
use tsqr_gridmpi::{FoldedProfile, MetricsRegistry, Trace};
use tsqr_netsim::{FailureSchedule, VirtualTime};
use tsqr_obs::json::{escape, num, Json};
use tsqr_obs::ledger::{EnvFingerprint, LedgerEntry, ModelCoeffs, PhaseRow};
use tsqr_qcg::ResourceCatalog;
use tsqr_serve::{
    serve as run_serve, BrownoutConfig, Policy as ServePolicy, PolicyReport as ServeReport,
    RetryPolicy, ServeConfig, ServeOutcome,
};

use crate::calib;
use crate::harness::grid_runtime;

/// One headline configuration of a figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FigurePoint {
    /// Which figure it belongs to (`"fig4"` … `"fig8"`).
    pub figure: &'static str,
    /// Distinguishes multiple points of one figure (`"tsqr"`,
    /// `"scalapack"`); the first listed point is the primary one.
    pub label: &'static str,
    /// Number of Grid'5000 sites.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// The algorithm under test.
    pub algorithm: Algorithm,
}

impl FigurePoint {
    /// Stable identifier used in `BENCH_results.json` (`"fig5/tsqr"`).
    pub fn id(&self) -> String {
        format!("{}/{}", self.figure, self.label)
    }

    /// The point as a gate scenario (ledger source `"figure"`).
    pub fn scenario(&self) -> Scenario {
        Scenario { id: self.id(), source: "figure", run: Run::Traced(self.clone(), None) }
    }
}

const TSQR64: Algorithm =
    Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 64 };
const TSQR32: Algorithm =
    Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster: 32 };

/// The figures with registered headline points, in order.
pub fn all_figures() -> [&'static str; 5] {
    ["fig4", "fig5", "fig6", "fig7", "fig8"]
}

/// The headline configuration(s) of one figure binary — the points
/// `--trace-out` dumps and the bench gate pins.
///
/// # Panics
/// Panics on an unknown figure name.
pub fn figure_points(figure: &str) -> Vec<FigurePoint> {
    let p = |label, sites, m, n, algorithm| FigurePoint {
        figure: match figure {
            "fig4" => "fig4",
            "fig5" => "fig5",
            "fig6" => "fig6",
            "fig7" => "fig7",
            "fig8" => "fig8",
            other => panic!("unknown figure {other:?}"),
        },
        label,
        sites,
        m,
        n,
        algorithm,
    };
    match figure {
        // Fig. 4's story is ScaLAPACK on the grid; Figs. 5–7 are TSQR;
        // Fig. 8 is the head-to-head at the paper's peak point.
        "fig4" => vec![p("scalapack", 4, 1_048_576, 64, Algorithm::ScalapackQr2)],
        "fig5" => vec![p("tsqr", 4, 1_048_576, 64, TSQR64)],
        "fig6" => vec![p("tsqr", 4, 4_194_304, 64, TSQR64)],
        "fig7" => vec![p("tsqr", 1, 1_048_576, 64, TSQR64)],
        "fig8" => vec![
            p("tsqr", 4, 8_388_608, 512, TSQR32),
            p("scalapack", 4, 8_388_608, 512, Algorithm::ScalapackQr2),
        ],
        other => panic!("unknown figure {other:?}"),
    }
}

/// One autotuner gate point: a Fig. 4–8 topology re-run under the
/// reduction tree `tsqr_core::tune::autotune` picks for it. The record id
/// is `tune/<figure>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunePoint {
    /// Which figure's topology/problem this tunes (`"fig4"` … `"fig8"`).
    pub figure: &'static str,
    /// Number of Grid'5000 sites.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// Single-process domains per cluster (= ranks per cluster).
    pub domains_per_cluster: usize,
}

/// The autotuner gate points — every Fig. 4–8 topology at its headline
/// problem size, always with single-process domains (64 per 64-proc
/// site, the regime the analytic predictor models). Fig. 4's point runs
/// TSQR on the ScaLAPACK figure's topology; Fig. 8's headline TSQR point
/// groups two processes per domain, so its tune twin drops to
/// one-process domains instead.
pub fn tune_points() -> Vec<TunePoint> {
    let p = |figure, sites, m, n| TunePoint { figure, sites, m, n, domains_per_cluster: 64 };
    vec![
        p("fig4", 4, 1_048_576, 64),
        p("fig5", 4, 1_048_576, 64),
        p("fig6", 4, 4_194_304, 64),
        p("fig7", 1, 1_048_576, 64),
        p("fig8", 4, 8_388_608, 512),
    ]
}

/// A WAN degradation: every inter-cluster link slowed for a window of
/// virtual time ([`tsqr_netsim::FailureSchedule::degrade_all_wan`]).
///
/// Degradation changes link *pricing*, never routing, so the message /
/// byte / WAN counts of a degraded run must equal its failure-free twin —
/// `fault_degradation` asserts exactly that, and the perf gate pins the
/// slowed makespans the same way it pins Figs. 4–8.
#[derive(Debug, Clone, PartialEq)]
pub struct WanDegradation {
    /// Degradation window `[from, until)`, virtual seconds.
    pub window_s: (f64, f64),
    /// Latency multiplier applied to every WAN link in the window.
    pub latency_factor: f64,
    /// Bandwidth divisor applied to every WAN link in the window.
    pub bandwidth_divisor: f64,
}

impl WanDegradation {
    /// The injected schedule: every WAN link degraded in the window.
    pub fn schedule(&self) -> FailureSchedule {
        FailureSchedule::new(0).degrade_all_wan(
            VirtualTime::from_secs(self.window_s.0),
            VirtualTime::from_secs(self.window_s.1),
            self.latency_factor,
            self.bandwidth_divisor,
        )
    }
}

/// What a [`Scenario`] runs.
#[derive(Debug, Clone)]
pub enum Run {
    /// A traced symbolic run of one configuration, optionally under a
    /// WAN degradation.
    Traced(FigurePoint, Option<WanDegradation>),
    /// Autotunes the reduction tree, then measures the winner traced.
    Tune(TunePoint),
    /// A full `tsqr-serve` trace over the Grid'5000 catalog.
    Serve(ServeConfig),
}

/// One record of the perf gate: its id, its ledger provenance and what
/// it runs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Record id in `BENCH_results.json` (`"fig5/tsqr"`, `"serve/fifo@2.5"`).
    pub id: String,
    /// Ledger source: `"figure"`, `"faults"`, `"tune"`, `"serve"` or
    /// `"serve-faults"`.
    pub source: &'static str,
    /// What the scenario runs.
    pub run: Run,
}

impl Scenario {
    /// The same scenario with every injected fault removed: the
    /// failure-free twin a fault scenario's claims are measured against.
    pub fn clean_twin(&self) -> Scenario {
        let run = match &self.run {
            Run::Traced(point, _) => Run::Traced(point.clone(), None),
            Run::Tune(point) => Run::Tune(point.clone()),
            Run::Serve(cfg) => {
                Run::Serve(ServeConfig { faults: FailureSchedule::default(), ..cfg.clone() })
            }
        };
        Scenario { id: self.id.clone(), source: self.source, run }
    }
}

/// Every gate scenario, in `BENCH_baseline.json` order:
///
/// * the Fig. 4–8 headline points ([`figure_points`]);
/// * `faults/<name>` — Fig. 5's headline configuration under three WAN
///   degradations;
/// * `tune/<figure>` — the autotuned trees ([`tune_points`]);
/// * `serve/<policy>@<load>` — the 200-request seeded trace at high load
///   under every policy (where the disciplines separate), plus the
///   same-shape burst with and without batching (`+batch`, where
///   batching's WAN-message claim is measurable);
/// * `serve-faults/<name>` — the failure schedules `grid-tsqr check`
///   pins as COMMCHECK lines: a site crash at t = 0.1 s virtual recovered
///   with checkpointed WAN drain vs full restart, the same crash under a
///   4-site-wide shape (elastic re-planning onto the three survivors),
///   and a degraded-WAN window plus transient drain drops with aggressive
///   watermarks so admission browns out and sheds.
pub fn scenarios() -> Vec<Scenario> {
    let mut all: Vec<Scenario> =
        all_figures().into_iter().flat_map(figure_points).map(|p| p.scenario()).collect();

    let fig5 = figure_points("fig5").remove(0);
    let wan = |name: &str, window_s, latency_factor, bandwidth_divisor| Scenario {
        id: format!("faults/{name}"),
        source: "faults",
        run: Run::Traced(
            fig5.clone(),
            Some(WanDegradation { window_s, latency_factor, bandwidth_divisor }),
        ),
    };
    all.extend([
        // The whole run under a 10×-latency, 10×-less-bandwidth WAN —
        // the "bad day on the backbone" bound.
        wan("wan-10x", (0.0, 60.0), 10.0, 10.0),
        // A transient 4×/4× brown-out covering the reduction's WAN phase
        // only; the run mostly rides it out.
        wan("wan-brownout", (0.05, 0.25), 4.0, 4.0),
        // Pure latency inflation (congested but not saturated links):
        // the TSQR makespan moves by ~the extra round trips, a direct
        // probe of the paper's latency-dominated WAN term in Eq. (1).
        wan("wan-latency-5x", (0.0, 60.0), 5.0, 1.0),
    ]);

    all.extend(tune_points().into_iter().map(|p| Scenario {
        id: format!("tune/{}", p.figure),
        source: "tune",
        run: Run::Tune(p),
    }));

    let serve = |policy: ServePolicy, load: f64, batch, requests, single_shape| Scenario {
        id: format!("serve/{}@{load:.1}{}", policy.label(), if batch { "+batch" } else { "" }),
        source: "serve",
        run: Run::Serve(ServeConfig {
            policy,
            load,
            requests,
            seed: 42,
            batch,
            single_shape,
            ..Default::default()
        }),
    };
    all.extend(
        [ServePolicy::Fifo, ServePolicy::Sjf, ServePolicy::Edf, ServePolicy::Fair]
            .map(|policy| serve(policy, 2.5, false, 200, None)),
    );
    all.extend([false, true].map(|batch| serve(ServePolicy::Fifo, 4.0, batch, 60, Some(3))));

    let chaos = |name: &str, cfg| Scenario {
        id: format!("serve-faults/{name}"),
        source: "serve-faults",
        run: Run::Serve(cfg),
    };
    let base = ServeConfig { requests: 30, load: 1.0, seed: 7, ..Default::default() };
    let crash = FailureSchedule::new(1).crash_site(2, VirtualTime::from_secs(0.1));
    all.extend([
        chaos("crash-ckpt", ServeConfig { faults: crash.clone(), ..base.clone() }),
        chaos(
            "crash-restart",
            ServeConfig {
                faults: crash.clone(),
                retry: RetryPolicy { checkpoint_drain: false, ..Default::default() },
                ..base.clone()
            },
        ),
        chaos(
            "crash-replan",
            ServeConfig { faults: crash, single_shape: Some(3), ..base.clone() },
        ),
        chaos(
            "wan-brownout",
            ServeConfig {
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
            },
        ),
    ]);
    all
}

/// One measured headline point — the unit of the perf-regression gate.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// `figure/label` identifier.
    pub id: String,
    /// Sites / rows / columns of the configuration.
    pub sites: usize,
    /// Rows.
    pub m: u64,
    /// Columns.
    pub n: usize,
    /// Simulated makespan, seconds.
    pub makespan_s: f64,
    /// The paper's Gflop/s metric.
    pub gflops: f64,
    /// Total messages sent.
    pub msgs: u64,
    /// Messages that crossed a wide-area link.
    pub wan_msgs: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Critical-path compute seconds.
    pub cp_compute_s: f64,
    /// Critical-path send seconds.
    pub cp_send_s: f64,
    /// WAN messages *on the critical path*.
    pub cp_wan_msgs: u64,
    /// Total blocked-receive seconds across all ranks.
    pub wait_s: f64,
    /// Relative residual of the Eq. (1) least-squares fit.
    pub model_residual: f64,
}

/// Stable ledger label for the configuration's reduction structure.
fn tree_label(algorithm: &Algorithm) -> String {
    match algorithm {
        Algorithm::Tsqr { shape, domains_per_cluster } => {
            format!("{shape:?}/dpc{domains_per_cluster}")
        }
        Algorithm::ScalapackQr2 => "scalapack-qr2".to_string(),
        Algorithm::ScalapackQrf { nb, nx } => format!("scalapack-qrf/nb{nb}/nx{nx}"),
    }
}

/// Distills a finished run into an experiment-ledger entry
/// (`grid-tsqr-ledger/v1`): totals and per-phase Eq. (1) ledgers from
/// the metrics registries, the critical-path split from the trace (zeros
/// without one), the fitted model with per-phase predictions, and the
/// environment fingerprint. Shared by the bench harness and the CLI's
/// `tune`/`faults` ledger hooks.
#[allow(clippy::too_many_arguments)] // a ledger line simply has this many facts
pub fn ledger_entry(
    source: &str,
    scenario: &str,
    sites: usize,
    procs: usize,
    m: u64,
    n: usize,
    tree: &str,
    makespan_s: f64,
    gflops: f64,
    metrics: &[MetricsRegistry],
    trace: Option<&Trace>,
) -> LedgerEntry {
    let mut agg = MetricsRegistry::default();
    for reg in metrics {
        agg.merge(reg);
    }
    let fit = modelfit::fit(&modelfit::samples_from_metrics(metrics));
    let phases: Vec<PhaseRow> = agg
        .phase_names()
        .iter()
        .map(|name| {
            let c = agg.phase(name).expect("listed phase exists");
            let predicted_s = fit
                .as_ref()
                .and_then(|f| f.per_phase.iter().find(|(l, _, _)| l == name))
                .map(|(_, _, pred)| *pred)
                .unwrap_or(0.0);
            PhaseRow {
                name: name.to_string(),
                msgs: c.msgs,
                bytes: c.bytes,
                flops: c.flops,
                send_s: c.send_s.iter().sum(),
                compute_s: c.compute_s,
                wait_s: c.recv_wait_s,
                predicted_s,
            }
        })
        .collect();
    let total = agg.total();
    let cps = trace.map(|t| t.critical_path().summary());
    LedgerEntry {
        seq: 0, // assigned by tsqr_obs::ledger::append_entry
        source: source.to_string(),
        scenario: scenario.to_string(),
        sites,
        procs,
        m: m as usize,
        n,
        tree: tree.to_string(),
        makespan_s,
        gflops,
        msgs: total.total_msgs(),
        wan_msgs: total.wan_msgs(),
        bytes: total.total_bytes(),
        cp_compute_s: cps.as_ref().map(|s| s.compute_s).unwrap_or(0.0),
        cp_send_s: cps.as_ref().map(|s| s.send_s).unwrap_or(0.0),
        cp_wan_msgs: cps.as_ref().map(|s| s.wan_messages as u64).unwrap_or(0),
        wait_s: total.recv_wait_s,
        fit: fit
            .map(|f| ModelCoeffs {
                beta_s: f.beta_s,
                alpha_s_per_word: f.alpha_s_per_word,
                gamma_s_per_flop: f.gamma_s_per_flop,
                rel_residual: f.rel_residual,
            })
            .unwrap_or_default(),
        phases,
        env: EnvFingerprint::current(),
    }
}

/// Distills a serving run into an experiment-ledger entry. Serving reuses
/// the critical-path columns for queueing statistics (documented in
/// `docs/serving.md` §Ledger): `cp_compute_s` = mean sojourn, `cp_send_s`
/// = p99 sojourn, `cp_wan_msgs` = SLO misses, `wait_s` = total queue
/// wait; `m` is the trace's total rows, and the fit is all zeros —
/// serving runs have no Eq. (1) fit. Shared by the bench gate and
/// `grid-tsqr serve`.
pub fn serve_ledger_entry(
    source: &str,
    scenario: &str,
    tree: &str,
    catalog: &ResourceCatalog,
    outcome: &ServeOutcome,
    report: &ServeReport,
) -> LedgerEntry {
    let total_rows: u64 = outcome.records.iter().map(|r| r.request.rows).sum();
    LedgerEntry {
        seq: 0, // assigned by tsqr_obs::ledger::append_entry
        source: source.to_string(),
        scenario: scenario.to_string(),
        sites: catalog.clusters.len(),
        procs: catalog.total_procs(),
        m: total_rows as usize,
        n: 64,
        tree: tree.to_string(),
        makespan_s: report.horizon_s,
        gflops: report.gflops,
        msgs: report.msgs,
        wan_msgs: report.wan_msgs,
        bytes: report.bytes,
        cp_compute_s: report.mean_sojourn_s,
        cp_send_s: report.p99_sojourn_s,
        cp_wan_msgs: report.slo_miss as u64,
        wait_s: report.total_wait_s,
        phases: Vec::new(),
        fit: ModelCoeffs::default(),
        env: EnvFingerprint::current(),
    }
}

/// Runs one gate scenario and distills it into a [`BenchRecord`] and an
/// experiment-ledger entry (with the scenario's source).
///
/// Traced runs assert the three cross-layer invariants of `measure_on`,
/// so every bench run doubles as an integration test of the diagnostics.
/// A tune scenario first asserts the autotuner's headline claim: the
/// autotuned tree's replayed makespan is never slower than any of the
/// three fixed shapes on this topology (ties allowed — the search table
/// lists fixed shapes first precisely so a tie resolves to one of them).
pub fn measure(s: &Scenario) -> (BenchRecord, LedgerEntry) {
    match &s.run {
        Run::Traced(p, wan) => measure_on(
            s,
            p.sites,
            p.m,
            p.n,
            p.algorithm.clone(),
            wan.as_ref().map(WanDegradation::schedule),
        ),
        Run::Tune(p) => {
            let rt = grid_runtime(p.sites);
            let rate = Some(calib::kernel_rate_flops(p.n));
            let combine = Some(calib::combine_rate_flops());
            let outcome = tune::autotune(&rt, p.m, p.n, p.domains_per_cluster, rate, combine);
            let layout = DomainLayout::build(rt.topology(), p.m, p.n, p.domains_per_cluster);
            for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
                let fixed = tune::replay_makespan(&rt, &layout, &shape, rate, combine);
                assert!(
                    outcome.replayed.secs() <= fixed.secs() * (1.0 + 1e-12),
                    "{}: autotuned {:?} ({} s) slower than fixed {shape:?} ({} s)",
                    s.id,
                    outcome.best().shape,
                    outcome.replayed.secs(),
                    fixed.secs()
                );
            }
            let algorithm = Algorithm::Tsqr {
                shape: outcome.best().shape.clone(),
                domains_per_cluster: p.domains_per_cluster,
            };
            measure_on(s, p.sites, p.m, p.n, algorithm, None)
        }
        Run::Serve(_) => {
            let (record, entry, _) = serve_trace(s);
            (record, entry)
        }
    }
}

/// The traced measurement core: runs one configuration symbolically
/// (optionally under a failure schedule) and distills it into a
/// [`BenchRecord`] and a ledger entry. Asserts the three cross-layer
/// invariants the observability stack guarantees: the critical path
/// tiles the makespan, the wait-state classification reconciles with the
/// metrics registry to 1e-9, and the folded-stack profile tiles every
/// rank's timeline.
fn measure_on(
    s: &Scenario,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
    schedule: Option<FailureSchedule>,
) -> (BenchRecord, LedgerEntry) {
    let id = &s.id;
    let tree = tree_label(&algorithm);
    let mut rt = grid_runtime(sites);
    if let Some(schedule) = schedule {
        rt.set_failure_schedule(schedule);
    }
    rt.enable_tracing();
    let res = run_experiment(
        &rt,
        &Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: Some(calib::kernel_rate_flops(n)),
            combine_rate_flops: Some(calib::combine_rate_flops()),
        },
    );
    let trace = res.trace.as_ref().expect("tracing was enabled");
    let cp = trace.critical_path();
    assert!(
        (cp.total().secs() - res.makespan.secs()).abs()
            <= 1e-9 * res.makespan.secs().max(1.0),
        "critical path must tile the makespan ({id})"
    );
    let cps = cp.summary();
    let diag = trace.diagnose(rt.topology().num_procs(), 64);
    let drift = diag.reconcile(&res.metrics);
    // Relative 1e-9: the two sides sum millions of f64 intervals in
    // different orders, so the agreement is exact up to rounding noise
    // proportional to the total wait.
    let wait_scale = diag.total().total_wait_s().max(1.0);
    assert!(
        drift <= 1e-9 * wait_scale,
        "wait states must reconcile with recv_wait_s ({id}: drift {drift})"
    );
    // Folded-profile tiling invariant (`docs/observability.md` §9): the
    // flamegraph's per-rank leaf self-times must sum to that rank's
    // makespan — nothing dropped, nothing double-counted.
    let profile = FoldedProfile::from_trace(trace, rt.topology().num_procs());
    let tile_err = profile.max_tiling_error_rel();
    assert!(
        tile_err <= 1e-9,
        "folded profile must tile every rank's timeline ({id}: rel err {tile_err:.3e})"
    );
    let entry = ledger_entry(
        s.source,
        id,
        sites,
        rt.topology().num_procs(),
        m,
        n,
        &tree,
        res.makespan.secs(),
        res.gflops,
        &res.metrics,
        Some(trace),
    );
    let record = BenchRecord {
        id: id.clone(),
        sites,
        m,
        n,
        makespan_s: res.makespan.secs(),
        gflops: res.gflops,
        msgs: res.totals.total_msgs(),
        wan_msgs: res.totals.inter_cluster_msgs(),
        bytes: res.totals.total_bytes(),
        cp_compute_s: cps.compute_s,
        cp_send_s: cps.send_s,
        cp_wan_msgs: cps.wan_messages as u64,
        wait_s: diag.total().total_wait_s(),
        model_residual: entry.fit.rel_residual,
    };
    (record, entry)
}

/// The serve-trace core: runs one serving scenario and distills it into
/// a [`BenchRecord`] whose columns are the ledger entry's (see
/// [`serve_ledger_entry`]; `model_residual` is 0), the entry itself
/// (scenario `bench/<id>`, tree `<source>/<policy>`), and the full
/// policy report.
///
/// # Panics
/// Panics when the scenario is not a [`Run::Serve`].
fn serve_trace(s: &Scenario) -> (BenchRecord, LedgerEntry, ServeReport) {
    let Run::Serve(cfg) = &s.run else { panic!("{} is not a serving scenario", s.id) };
    let catalog = ResourceCatalog::grid5000();
    let outcome = run_serve(&catalog, cfg);
    let report = ServeReport::from_outcome(&outcome);
    let entry = serve_ledger_entry(
        s.source,
        &format!("bench/{}", s.id),
        &format!("{}/{}", s.source, cfg.policy.label()),
        &catalog,
        &outcome,
        &report,
    );
    let record = BenchRecord {
        id: s.id.clone(),
        sites: entry.sites,
        m: entry.m as u64,
        n: entry.n,
        makespan_s: entry.makespan_s,
        gflops: entry.gflops,
        msgs: entry.msgs,
        wan_msgs: entry.wan_msgs,
        bytes: entry.bytes,
        cp_compute_s: entry.cp_compute_s,
        cp_send_s: entry.cp_send_s,
        cp_wan_msgs: entry.cp_wan_msgs,
        wait_s: entry.wait_s,
        model_residual: entry.fit.rel_residual,
    };
    (record, entry, report)
}

/// Asserts the gate's cross-record claims over one measured set
/// (`measured` holds the records of `scenarios`, by id).
///
/// Serving:
/// * FIFO and SJF genuinely differ on the same seeded high-load trace
///   (p99 sojourn or throughput — a scheduler that cannot change the
///   outcome is not scheduling);
/// * SJF's mean sojourn is no worse than FIFO's at high load (the
///   textbook shortest-job-first claim, held as data);
/// * batching strictly reduces WAN messages on the same-shape burst;
/// * a same-seed re-measure of every serving scenario reproduces its
///   records byte-identically.
///
/// Fault-injected serving:
/// * every crash scenario both faults *and* recovers (fault events and
///   retried completions are nonzero, nothing fails permanently);
/// * checkpointed drain beats full restart in mean sojourn on the same
///   crash (the retry pays only the residual WAN drain);
/// * the elastic re-plan scenario still completes every request even
///   though its 4-site shape lost a site;
/// * the degraded-WAN scenario actually browns out (sheds > 0, nonzero
///   brownout seconds);
/// * injecting faults is never free: each scenario's mean sojourn is
///   strictly worse than its failure-free twin's.
///
/// # Panics
/// Panics when a claim fails or a registered serving record is missing.
pub fn check_claims(scenarios: &[Scenario], measured: &[BenchRecord]) {
    let by_id = |id: &str| -> &BenchRecord {
        measured.iter().find(|r| r.id == id).expect("gate scenario measured")
    };
    let fifo = by_id("serve/fifo@2.5");
    let sjf = by_id("serve/sjf@2.5");
    assert!(
        fifo.cp_send_s != sjf.cp_send_s || fifo.gflops != sjf.gflops,
        "fifo and sjf must differ on the same trace (p99 {} vs {})",
        fifo.cp_send_s,
        sjf.cp_send_s
    );
    assert!(
        sjf.cp_compute_s <= fifo.cp_compute_s,
        "SJF mean sojourn {} must not exceed FIFO's {} at high load",
        sjf.cp_compute_s,
        fifo.cp_compute_s
    );
    let unbatched = by_id("serve/fifo@4.0");
    let batched = by_id("serve/fifo@4.0+batch");
    assert!(
        batched.wan_msgs < unbatched.wan_msgs,
        "batching must strictly cut WAN messages on a same-shape burst \
         ({} vs {})",
        batched.wan_msgs,
        unbatched.wan_msgs
    );

    // The replay's reports carry the recovery counters the fault claims
    // read; the records themselves must match the first measurement.
    let mut reports: Vec<(&Scenario, ServeReport)> = Vec::new();
    for source in ["serve", "serve-faults"] {
        let mut first = Vec::new();
        let mut replay = Vec::new();
        for s in scenarios.iter().filter(|s| s.source == source) {
            let (record, _, report) = serve_trace(s);
            first.push(by_id(&s.id).clone());
            replay.push(record);
            reports.push((s, report));
        }
        assert_eq!(
            records_json(&first),
            records_json(&replay),
            "{source} records must replay byte-identically"
        );
    }

    let chaos = |name: &str| -> &ServeReport {
        let id = format!("serve-faults/{name}");
        &reports.iter().find(|(s, _)| s.id == id).expect("fault gate scenario measured").1
    };
    for name in ["crash-ckpt", "crash-restart", "crash-replan"] {
        let rep = chaos(name);
        assert!(rep.fault_events > 0, "{name}: the scripted crash must fault someone");
        assert!(rep.retried_completions > 0, "{name}: faulted jobs must recover via retry");
        assert_eq!(rep.failed_permanent, 0, "{name}: the retry budget suffices here");
    }
    assert!(
        chaos("crash-ckpt").mean_sojourn_s <= chaos("crash-restart").mean_sojourn_s,
        "checkpointed drain must not lose to full restart ({} vs {})",
        chaos("crash-ckpt").mean_sojourn_s,
        chaos("crash-restart").mean_sojourn_s
    );
    let replan = chaos("crash-replan");
    assert_eq!(
        replan.completed, 30,
        "elastic re-planning must complete every 4-site request on 3 survivors"
    );
    let brown = chaos("wan-brownout");
    assert!(brown.shed > 0, "degraded WAN must drive brownout shedding");
    assert!(brown.brownout_s > 0.0, "brownout must stay open for measurable virtual time");
    for (s, faulty) in reports.iter().filter(|(s, _)| s.source == "serve-faults") {
        let name = &s.id;
        let clean = serve_trace(&s.clean_twin()).2;
        if name == "serve-faults/crash-replan" {
            // Re-planning is the one fault response that can come out
            // net *faster*: the 3-survivor trees are narrower, so each
            // drain crosses fewer contended WAN links. The structural
            // claim is that the trees genuinely changed shape.
            assert_ne!(
                faulty.wan_msgs, clean.wan_msgs,
                "{name}: surviving-site re-plans must change the WAN traffic pattern"
            );
        } else {
            assert!(
                faulty.mean_sojourn_s > clean.mean_sojourn_s,
                "{name}: faults must cost sojourn time ({} vs clean {})",
                faulty.mean_sojourn_s,
                clean.mean_sojourn_s
            );
        }
    }
}

/// Serializes records as the `BENCH_results.json` document (schema
/// documented in `docs/observability.md` §8.4). Deterministic: fixed key
/// order, shortest-round-trip numbers.
pub fn records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": \"grid-tsqr-bench/v1\",\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"id\": \"{}\", \"sites\": {}, \"m\": {}, \"n\": {}, \
             \"makespan_s\": {}, \"gflops\": {}, \"msgs\": {}, \"wan_msgs\": {}, \
             \"bytes\": {}, \"cp_compute_s\": {}, \"cp_send_s\": {}, \
             \"cp_wan_msgs\": {}, \"wait_s\": {}, \"model_residual\": {}}}",
            escape(&r.id),
            r.sites,
            r.m,
            r.n,
            num(r.makespan_s),
            num(r.gflops),
            r.msgs,
            r.wan_msgs,
            r.bytes,
            num(r.cp_compute_s),
            num(r.cp_send_s),
            r.cp_wan_msgs,
            num(r.wait_s),
            num(r.model_residual),
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_*.json` document back into records.
pub fn parse_records(text: &str) -> Result<Vec<BenchRecord>, String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("grid-tsqr-bench/v1") => {}
        other => return Err(format!("unsupported bench schema {other:?}")),
    }
    let recs = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or("missing records array")?;
    let f = |r: &Json, k: &str| -> Result<f64, String> {
        r.get(k).and_then(Json::as_num).ok_or(format!("record missing {k:?}"))
    };
    recs.iter()
        .map(|r| {
            Ok(BenchRecord {
                id: r
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("record missing \"id\"")?
                    .to_string(),
                sites: f(r, "sites")? as usize,
                m: f(r, "m")? as u64,
                n: f(r, "n")? as usize,
                makespan_s: f(r, "makespan_s")?,
                gflops: f(r, "gflops")?,
                msgs: f(r, "msgs")? as u64,
                wan_msgs: f(r, "wan_msgs")? as u64,
                bytes: f(r, "bytes")? as u64,
                cp_compute_s: f(r, "cp_compute_s")?,
                cp_send_s: f(r, "cp_send_s")?,
                cp_wan_msgs: f(r, "cp_wan_msgs")? as u64,
                wait_s: f(r, "wait_s")?,
                model_residual: f(r, "model_residual")?,
            })
        })
        .collect()
}

/// Compares measured records against a baseline. Counts must match
/// exactly; seconds/Gflop/s to `rel_tol` relative (the simulation is
/// deterministic, so 1e-9 is the expected setting — the tolerance only
/// absorbs float-summation changes from refactors); residuals to an
/// absolute 1e-6. Returns human-readable failure lines (empty = pass).
pub fn compare_records(
    baseline: &[BenchRecord],
    measured: &[BenchRecord],
    rel_tol: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for b in baseline {
        let Some(m) = measured.iter().find(|m| m.id == b.id) else {
            failures.push(format!("{}: missing from measured records", b.id));
            continue;
        };
        let mut exact = |name: &str, want: u64, got: u64| {
            if want != got {
                failures.push(format!("{}: {name} changed {want} -> {got}", b.id));
            }
        };
        exact("sites", b.sites as u64, m.sites as u64);
        exact("m", b.m, m.m);
        exact("n", b.n as u64, m.n as u64);
        exact("msgs", b.msgs, m.msgs);
        exact("wan_msgs", b.wan_msgs, m.wan_msgs);
        exact("bytes", b.bytes, m.bytes);
        exact("cp_wan_msgs", b.cp_wan_msgs, m.cp_wan_msgs);
        let mut close = |name: &str, want: f64, got: f64| {
            let scale = want.abs().max(1e-12);
            if ((got - want) / scale).abs() > rel_tol {
                failures.push(format!(
                    "{}: {name} drifted {want} -> {got} (rel {:.3e} > {rel_tol:.1e})",
                    b.id,
                    ((got - want) / scale).abs()
                ));
            }
        };
        close("makespan_s", b.makespan_s, m.makespan_s);
        close("gflops", b.gflops, m.gflops);
        close("cp_compute_s", b.cp_compute_s, m.cp_compute_s);
        close("cp_send_s", b.cp_send_s, m.cp_send_s);
        close("wait_s", b.wait_s, m.wait_s);
        if (b.model_residual - m.model_residual).abs() > 1e-6 {
            failures.push(format!(
                "{}: model_residual drifted {} -> {}",
                b.id, b.model_residual, m.model_residual
            ));
        }
    }
    for m in measured {
        if !baseline.iter().any(|b| b.id == m.id) {
            failures.push(format!(
                "{}: not in baseline (bless with scripts/bench_check.sh --bless)",
                m.id
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    #[test]
    fn registry_covers_all_figures_with_valid_points() {
        for fig in all_figures() {
            let pts = figure_points(fig);
            assert!(!pts.is_empty());
            assert_eq!(pts[0].figure, fig);
            for p in &pts {
                assert!(p.sites >= 1 && p.m > 0 && p.n > 0);
                assert!(p.id().starts_with(fig));
            }
        }
        assert_eq!(figure_points("fig8").len(), 2);
    }

    #[test]
    #[should_panic(expected = "unknown figure")]
    fn unknown_figure_panics() {
        figure_points("fig9");
    }

    fn rec(id: &str, msgs: u64, makespan: f64) -> BenchRecord {
        BenchRecord {
            id: id.into(),
            sites: 2,
            m: 1 << 20,
            n: 64,
            makespan_s: makespan,
            gflops: 10.0,
            msgs,
            wan_msgs: 1,
            bytes: 4096,
            cp_compute_s: makespan * 0.9,
            cp_send_s: makespan * 0.1,
            cp_wan_msgs: 1,
            wait_s: 0.25,
            model_residual: 0.01,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let records = vec![rec("fig5/tsqr", 127, 0.134261), rec("fig4/scalapack", 113792, 1.184)];
        let text = records_json(&records);
        let back = parse_records(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn compare_flags_count_and_time_drift() {
        let base = vec![rec("fig5/tsqr", 127, 0.134261)];
        assert!(compare_records(&base, &base, 1e-9).is_empty());
        let mut worse = base.clone();
        worse[0].msgs = 128;
        worse[0].makespan_s *= 1.0 + 1e-6;
        let fails = compare_records(&base, &worse, 1e-9);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("msgs changed")));
        assert!(fails.iter().any(|f| f.contains("makespan_s drifted")));
        // Missing and extra records are both flagged.
        let fails = compare_records(&base, &[rec("fig9/x", 1, 1.0)], 1e-9);
        assert_eq!(fails.len(), 2);
    }

    #[test]
    fn scenario_registry_is_well_formed_and_matches_the_baseline() {
        let all = scenarios();
        let ids: Vec<&str> = all.iter().map(|s| s.id.as_str()).collect();
        let unique: BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "scenario ids must be unique");
        let baseline = parse_records(include_str!("../../../BENCH_baseline.json")).unwrap();
        let committed: Vec<&str> = baseline.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, committed, "scenarios() must list BENCH_baseline.json's ids in order");

        let mut degraded = 0;
        for s in &all {
            if let Run::Traced(_, Some(w)) = &s.run {
                assert!(s.id.starts_with("faults/"));
                assert!(w.window_s.0 < w.window_s.1);
                assert!(w.latency_factor >= 1.0 && w.bandwidth_divisor >= 1.0);
                assert!(w.latency_factor > 1.0 || w.bandwidth_divisor > 1.0);
                let _ = w.schedule(); // builder asserts its own invariants
                degraded += 1;
            }
        }
        assert!(degraded > 0);
    }

    #[test]
    fn degraded_scenario_keeps_traffic_and_slows_the_clock() {
        // A down-scaled twin of the registered scenarios: cheap enough
        // for unit tests, same invariants.
        let point = FigurePoint {
            figure: "faults",
            label: "test",
            sites: 2,
            m: 1 << 17,
            n: 64,
            algorithm: TSQR64,
        };
        let wan = WanDegradation {
            window_s: (0.0, 60.0),
            latency_factor: 10.0,
            bandwidth_divisor: 10.0,
        };
        let degraded =
            Scenario { id: point.id(), source: "faults", run: Run::Traced(point, Some(wan)) };
        let (clean, _) = measure(&degraded.clean_twin());
        let (slow, entry) = measure(&degraded);
        assert_eq!(slow.id, "faults/test");
        assert_eq!(entry.source, "faults");
        assert_eq!(
            (clean.msgs, clean.wan_msgs, clean.bytes),
            (slow.msgs, slow.wan_msgs, slow.bytes),
            "degradation must not change routing"
        );
        assert!(slow.makespan_s > clean.makespan_s, "degradation must slow the run");
    }

    #[test]
    fn measure_smoke_on_a_small_config() {
        // A tiny single-site TSQR point: cheap enough for unit tests and
        // exercises the full traced-measurement path including the
        // embedded invariants.
        let p = FigurePoint {
            figure: "fig7",
            label: "tsqr",
            sites: 1,
            m: 1 << 17,
            n: 64,
            algorithm: TSQR64,
        };
        let (r, entry) = measure(&p.scenario());
        assert!(r.makespan_s > 0.0 && r.gflops > 0.0);
        assert!(r.msgs > 0);
        assert_eq!(r.wan_msgs, 0, "single site has no WAN traffic");
        assert!(r.model_residual >= 0.0);
        assert_eq!(entry.source, "figure");
    }
}
