//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§IV–§V) on the simulated Grid'5000.
//!
//! Each binary in `src/bin/` reproduces one artifact:
//!
//! | binary              | artifact                                            |
//! |---------------------|-----------------------------------------------------|
//! | `table1`            | Table I (R-only communication/computation counts)   |
//! | `table2`            | Table II (Q+R counts)                               |
//! | `fig12_trees`       | Figs. 1–2 (inter-cluster messages per tree)         |
//! | `fig3_network`      | Fig. 3(a) (measured link performance)               |
//! | `fig4_scalapack`    | Fig. 4 (ScaLAPACK Gflop/s vs M, 1/2/4 sites)        |
//! | `fig5_tsqr`         | Fig. 5 (TSQR Gflop/s vs M, 1/2/4 sites)             |
//! | `fig6_domains_grid` | Fig. 6 (domains/cluster sweep, 4 sites)             |
//! | `fig7_domains_site` | Fig. 7 (domains sweep, 1 site)                      |
//! | `fig8_best`         | Fig. 8 (best TSQR vs best ScaLAPACK)                |
//! | `prop1_qr_vs_r`     | Property 1 (Q+R ≈ 2× R-only)                        |
//! | `ablation_balance`  | §III extension: load-balanced domains               |
//! | `ablation_cholqr`   | §II-E: TSQR vs the unstable CholeskyQR scheme       |
//! | `ablation_blocking` | §II-B: NB/NX blocking machinery of PDGEQRF          |
//! | `ablation_wan_congestion` | the Fig. 4 deviation, closed               |
//! | `caqr_scaling`      | §VI: the "CAQR should scale" experiment             |
//! | `fault_degradation` | WAN-degradation scenarios of the fault injector     |
//! | `desktop_grid`      | §II-E future work: the internet-scale regime        |
//! | `eq1_validation`    | §IV: Eq. (1) vs the simulation, per configuration   |
//!
//! Set `GRID_TSQR_RESULTS=<dir>` to also save every printed series as TSV.
//! Pass `--trace-out <file>` to the Fig. 4–8 binaries to additionally dump
//! a Chrome-trace JSON of that figure's headline configuration, plus its
//! critical path and per-phase Eq. (1) ledger (see `docs/observability.md`).
//! Set `GRID_TSQR_BENCH_OUT=<dir>` to have the same binaries emit their
//! headline points as `BENCH_<fig>.json` perf-gate records; the `bench_check`
//! binary (driven by `scripts/bench_check.sh`) measures every scenario of
//! the registry in `figures` and diffs it against the committed
//! `BENCH_baseline.json`.
//!
//! The sweeps execute the *actual distributed schedules* of the algorithms
//! (symbolic payloads, real message passing, virtual clocks priced with the
//! paper's measured constants); see `calib` for the one fitted constant
//! (the domain-kernel efficiency curve η(N)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod figures;
pub mod harness;

pub use figures::{ledger_entry, serve_ledger_entry};
pub use harness::{
    domain_options, dump_traced_point, grid_runtime, paper_m_values, print_series_table,
    run_figure, save_series_tsv, scalapack_gflops, trace_out_arg, tsqr_best_gflops,
    tsqr_gflops, ShapeCheck, Series,
};
