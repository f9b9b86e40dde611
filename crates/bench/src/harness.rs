//! Sweep machinery shared by the figure binaries.

use tsqr_core::experiment::{run_experiment, Algorithm, Experiment, ExperimentResult, Mode};
use tsqr_core::tree::TreeShape;
use tsqr_gridmpi::Runtime;
use tsqr_qcg::{allocate, JobProfile, ResourceCatalog};

use crate::calib;

/// Builds the runtime of the paper's experimental platform: `sites`
/// Grid'5000 clusters, 32 nodes × 2 processes each, allocated through the
/// QCG meta-scheduler (so the placement and throttling match §III/§V-A).
pub fn grid_runtime(sites: usize) -> Runtime {
    let catalog = ResourceCatalog::grid5000();
    let profile = JobProfile::cluster_of_clusters(sites, 64);
    let alloc = allocate(&catalog, &profile)
        .unwrap_or_else(|e| panic!("Grid'5000 allocation failed: {e}"));
    Runtime::new(alloc.topology, alloc.network)
}

/// The row counts the paper sweeps for a given N: powers of two from
/// 2¹⁷, up to 33,554,432 for N ≤ 128 and up to 8,388,608 for the wider
/// matrices — the x-ranges of Figs. 4–5 (a/b vs c/d).
pub fn paper_m_values(n: usize) -> Vec<u64> {
    let all: [u64; 9] = [
        131_072,     // 2^17
        262_144,     // 2^18
        524_288,     // 2^19
        1_048_576,   // 2^20
        2_097_152,   // 2^21
        4_194_304,   // 2^22
        8_388_608,   // 2^23
        16_777_216,  // 2^24
        33_554_432,  // 2^25
    ];
    let cap: u64 = if n <= 128 { 33_554_432 } else { 8_388_608 };
    all.iter().copied().filter(|&m| m <= cap).collect()
}

/// Domain-per-cluster options of Figs. 6–7 (1 = per-site ScaLAPACK call,
/// 32 = one per node, 64 = one per process).
pub fn domain_options() -> [usize; 7] {
    [1, 2, 4, 8, 16, 32, 64]
}

fn symbolic_point(rt: &Runtime, m: u64, n: usize, algorithm: Algorithm) -> ExperimentResult {
    run_experiment(
        rt,
        &Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: Some(calib::kernel_rate_flops(n)),
            combine_rate_flops: Some(calib::combine_rate_flops()),
        },
    )
}

/// TSQR Gflop/s at one sweep point (grid-hierarchical tree).
pub fn tsqr_gflops(rt: &Runtime, m: u64, n: usize, domains_per_cluster: usize) -> f64 {
    symbolic_point(
        rt,
        m,
        n,
        Algorithm::Tsqr { shape: TreeShape::GridHierarchical, domains_per_cluster },
    )
    .gflops
}

/// TSQR Gflop/s with the optimum domain count, and that count — the
/// quantity Fig. 5 plots ("the TSQR performance for the optimum number of
/// domains").
pub fn tsqr_best_gflops(rt: &Runtime, m: u64, n: usize) -> (f64, usize) {
    let mut best = (0.0f64, 1usize);
    for dpc in domain_options() {
        let g = tsqr_gflops(rt, m, n, dpc);
        if g > best.0 {
            best = (g, dpc);
        }
    }
    best
}

/// ScaLAPACK QR2 Gflop/s at one sweep point.
pub fn scalapack_gflops(rt: &Runtime, m: u64, n: usize) -> f64 {
    symbolic_point(rt, m, n, Algorithm::ScalapackQr2).gflops
}

/// Parses the optional `--trace-out <file>` flag every figure binary
/// accepts (see `docs/observability.md`). Returns the file path when the
/// flag is present; exits with usage on a missing value.
pub fn trace_out_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            match args.next() {
                Some(v) => return Some(v.into()),
                None => {
                    eprintln!("error: --trace-out needs a file path");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Runs one traced symbolic point (the calling figure's headline
/// configuration), writes its Chrome-trace JSON to `path` and prints a
/// digest: event counts, the critical path through the happens-before
/// DAG, and the per-phase Eq. (1) ledger.
///
/// Also asserts the free invariant that the critical path tiles the
/// makespan exactly — every figure regeneration doubles as a check of
/// the analyzer.
pub fn dump_traced_point(
    path: &std::path::Path,
    sites: usize,
    m: u64,
    n: usize,
    algorithm: Algorithm,
) -> std::io::Result<()> {
    let mut rt = grid_runtime(sites);
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
    let err = (cp.total().secs() - res.makespan.secs()).abs();
    assert!(
        err <= 1e-9 * res.makespan.secs().max(1.0),
        "critical path ({} s) must tile the makespan ({} s)",
        cp.total().secs(),
        res.makespan.secs()
    );
    std::fs::write(path, trace.chrome_json())?;
    println!(
        "# trace: {} events, {} WAN sends, makespan {:.3} s -> {} (load in ui.perfetto.dev)",
        trace.len(),
        trace.wan_sends().len(),
        res.makespan.secs(),
        path.display()
    );
    println!("# critical path (== makespan, checked):");
    for line in cp.render().lines() {
        println!("#   {line}");
    }
    for line in res.aggregate_metrics().render().lines() {
        println!("#   {line}");
    }
    Ok(())
}

/// The shared `--trace-out` / bench-emission entry point every Fig. 4–8
/// binary calls before printing its sweep.
///
/// Looks up the figure's headline configuration(s) in the registry
/// ([`crate::figures::figure_points`]) and:
///
/// * when `--trace-out <file>` was passed, dumps each point's Chrome
///   trace via [`dump_traced_point`] — the primary (first) point goes to
///   `<file>` itself, any further point to
///   `<file>.with_extension("json.<label>.json")` (so `fig8` still
///   produces its ScaLAPACK companion trace next to the TSQR one);
/// * when `GRID_TSQR_BENCH_OUT=<dir>` is set, measures every point and
///   writes the records as `<dir>/BENCH_<figure>.json` (the same schema
///   `bench_check` compares against the committed baseline);
/// * when `GRID_TSQR_LEDGER=<file>` is set, appends one experiment-ledger
///   entry per point to that JSONL file (schema
///   [`tsqr_obs::ledger::LEDGER_SCHEMA`]) so `grid-tsqr report` can trend
///   the figure over time.
///
/// Doing all three through one registry keeps the traced configuration and
/// the perf-gated configuration byte-for-byte identical.
pub fn run_figure(figure: &str) {
    let points = crate::figures::figure_points(figure);
    if let Some(path) = trace_out_arg() {
        for (i, p) in points.iter().enumerate() {
            let target = if i == 0 {
                path.clone()
            } else {
                path.with_extension(format!("json.{}.json", p.label))
            };
            dump_traced_point(&target, p.sites, p.m, p.n, p.algorithm.clone())
                .expect("write trace");
        }
    }
    let bench_out = std::env::var("GRID_TSQR_BENCH_OUT").ok();
    let ledger = tsqr_obs::ledger::path_from_env();
    if bench_out.is_none() && ledger.is_none() {
        return;
    }
    let measured: Vec<_> =
        points.iter().map(|p| crate::figures::measure(&p.scenario())).collect();
    if let Some(dir) = bench_out {
        let records: Vec<_> = measured.iter().map(|(r, _)| r.clone()).collect();
        let out = std::path::Path::new(&dir).join(format!("BENCH_{figure}.json"));
        std::fs::write(&out, crate::figures::records_json(&records))
            .expect("write bench records");
        println!("# bench records -> {}", out.display());
    }
    if let Some(path) = ledger {
        let n = measured.len();
        for (_, entry) in measured {
            tsqr_obs::ledger::append_entry(&path, entry)
                .expect("append experiment-ledger entry");
        }
        println!("# ledger: {n} entries -> {}", path.display());
    }
}

/// One plotted line: a label and its `(M, Gflop/s)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(u64, f64)>,
}

/// The results directory for [`save_series_tsv`]: the
/// `GRID_TSQR_RESULTS` environment variable, unless a test has
/// installed a scoped [`results_override`] guard.
fn results_dir() -> Option<std::ffi::OsString> {
    #[cfg(test)]
    if let Some(dir) = results_override::current() {
        return Some(dir.into());
    }
    std::env::var_os("GRID_TSQR_RESULTS")
}

/// Scoped, serialized test-only override of the results directory.
///
/// Mutating a process-global environment variable from tests is a race
/// between threads (which is exactly why `std::env::set_var` became
/// `unsafe`); this guard replaces the old `unsafe { set_var }` /
/// `remove_var` pair, which was the workspace's last `unsafe` block.
/// [`ResultsDirGuard::set`] holds a process-wide mutex for the guard's
/// lifetime, so concurrent tests serialize instead of clobbering each
/// other, and the override is cleared on drop — panic included.
#[cfg(test)]
pub(crate) mod results_override {
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static SERIALIZE: Mutex<()> = Mutex::new(());
    static VALUE: Mutex<Option<PathBuf>> = Mutex::new(None);

    /// Holds the override (and the serialization lock) until dropped.
    pub struct ResultsDirGuard {
        _serial: MutexGuard<'static, ()>,
    }

    impl ResultsDirGuard {
        /// Installs `dir` as the results directory, blocking until any
        /// other guard-holding test has finished.
        pub fn set(dir: PathBuf) -> Self {
            let serial = SERIALIZE.lock().unwrap_or_else(PoisonError::into_inner);
            *VALUE.lock().unwrap_or_else(PoisonError::into_inner) = Some(dir);
            ResultsDirGuard { _serial: serial }
        }
    }

    impl Drop for ResultsDirGuard {
        fn drop(&mut self) {
            *VALUE.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// The override currently in force, if any.
    pub fn current() -> Option<PathBuf> {
        VALUE.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

/// Writes a series table as TSV into the directory named by the
/// `GRID_TSQR_RESULTS` environment variable (no-op when unset). The file
/// name is a slug of the title; the format is the same `x  series…` table
/// the binaries print, ready for gnuplot or pandas.
pub fn save_series_tsv(title: &str, x_label: &str, series: &[Series]) -> std::io::Result<()> {
    let Some(dir) = results_dir() else {
        return Ok(());
    };
    std::fs::create_dir_all(&dir)?;
    let slug: String = title
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");
    let path = std::path::Path::new(&dir).join(format!("{slug}.tsv"));
    let mut out = String::new();
    out.push_str(x_label);
    for s in series {
        out.push('\t');
        out.push_str(&s.label);
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for (i, &(x, _)) in first.points.iter().enumerate() {
            out.push_str(&x.to_string());
            for s in series {
                out.push('\t');
                match s.points.get(i) {
                    Some(&(px, y)) if px == x => out.push_str(&format!("{y:.4}")),
                    _ => out.push_str("nan"),
                }
            }
            out.push('\n');
        }
    }
    std::fs::write(path, out)
}

/// Prints a gnuplot-ready table: `x  series1  series2 …`.
pub fn print_series_table(title: &str, x_label: &str, series: &[Series]) {
    if let Err(e) = save_series_tsv(title, x_label, series) {
        eprintln!("warning: could not save results TSV: {e}");
    }
    println!("\n# {title}");
    print!("# {x_label:>12}");
    for s in series {
        print!("  {:>18}", s.label);
    }
    println!();
    let xs: Vec<u64> = series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("  {x:>12}");
        for s in series {
            match s.points.get(i) {
                Some(&(px, y)) if px == *x => print!("  {y:>18.2}"),
                _ => print!("  {:>18}", "-"),
            }
        }
        println!();
    }
}

/// A named pass/fail check of a qualitative "shape" the paper reports.
/// Collect them, print them, and fail the process if any fail — the figure
/// binaries double as regression tests of the reproduction.
#[derive(Debug, Default)]
pub struct ShapeCheck {
    results: Vec<(String, bool, String)>,
}

impl ShapeCheck {
    /// New empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one check.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.results.push((name.to_string(), pass, detail));
    }

    /// Print all results; returns `true` when everything passed.
    pub fn report(&self) -> bool {
        println!("\n# paper-shape checks");
        let mut all = true;
        for (name, pass, detail) in &self.results {
            println!("#   [{}] {name}: {detail}", if *pass { "PASS" } else { "FAIL" });
            all &= *pass;
        }
        all
    }

    /// Print and exit nonzero on failure.
    pub fn finish(&self) {
        if !self.report() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m_values_match_figure_ranges() {
        assert_eq!(paper_m_values(64).last(), Some(&33_554_432));
        assert_eq!(paper_m_values(128).last(), Some(&33_554_432));
        assert_eq!(paper_m_values(256).last(), Some(&8_388_608));
        assert_eq!(paper_m_values(512).last(), Some(&8_388_608));
        assert_eq!(paper_m_values(64).first(), Some(&131_072));
    }

    #[test]
    fn grid_runtime_sizes() {
        assert_eq!(grid_runtime(1).topology().num_procs(), 64);
        assert_eq!(grid_runtime(4).topology().num_procs(), 256);
    }

    #[test]
    fn sweep_points_are_positive_and_deterministic() {
        let rt = grid_runtime(1);
        let a = tsqr_gflops(&rt, 1 << 20, 64, 16);
        let b = tsqr_gflops(&rt, 1 << 20, 64, 16);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn best_domains_beats_fixed_choice() {
        let rt = grid_runtime(1);
        let (best, dpc) = tsqr_best_gflops(&rt, 1 << 20, 64);
        assert!(best >= tsqr_gflops(&rt, 1 << 20, 64, 1));
        assert!(domain_options().contains(&dpc));
    }

    #[test]
    fn save_series_tsv_round_trip() {
        let dir = std::env::temp_dir().join(format!("tsqr_results_{}", std::process::id()));
        let _guard = results_override::ResultsDirGuard::set(dir.clone());
        let series = vec![
            Series { label: "a".into(), points: vec![(1, 1.5), (2, 2.5)] },
            Series { label: "b".into(), points: vec![(1, 3.0), (2, 4.0)] },
        ];
        save_series_tsv("Fig. X (test) — demo", "M", &series).unwrap();
        let content = std::fs::read_to_string(dir.join("fig_x_test_demo.tsv")).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines[0], "M\ta\tb");
        assert_eq!(lines[1], "1\t1.5000\t3.0000");
        assert_eq!(lines[2], "2\t2.5000\t4.0000");
        drop(_guard);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shape_check_reports_failures() {
        let mut sc = ShapeCheck::new();
        sc.check("good", true, "ok".into());
        assert!(sc.report());
        sc.check("bad", false, "nope".into());
        assert!(!sc.report());
    }
}
