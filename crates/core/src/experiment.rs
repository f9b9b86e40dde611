//! One-call experiment driver: run an algorithm on an allocation and get
//! the numbers the paper plots.
//!
//! The paper's figures all report **Gflop/s** computed as the useful flop
//! count `2MN² − 2N³/3` (doubled when Q is formed) divided by the run
//! time; this module runs either algorithm in real or symbolic mode on a
//! placed topology and returns that metric along with the full traffic
//! breakdown.

use tsqr_gridmpi::{
    MetricsRegistry, Process, RankStats, RunReport, Runtime, Trace, TrafficCounters,
};
use tsqr_linalg::Matrix;
use tsqr_netsim::VirtualTime;

use crate::domains::{even_chunks, DomainLayout};
use crate::model;
use crate::scalapack::{pdgeqr2, pdgeqr2_symbolic, pdgeqrf, pdgeqrf_symbolic};
use crate::tree::{ReductionTree, TreeShape};
use crate::tsqr::{tsqr_rank_program, tsqr_rank_program_symbolic, TsqrConfig};
use crate::workload;

/// Which algorithm to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// QCG-TSQR with the given reduction-tree shape and domain count.
    Tsqr {
        /// Reduction-tree shape over domains.
        shape: TreeShape,
        /// Domains per cluster (Figs. 6–7 knob).
        domains_per_cluster: usize,
    },
    /// The ScaLAPACK-style baseline: one `PDGEQR2` over all processes.
    ScalapackQr2,
    /// The blocked ScaLAPACK driver (`PDGEQRF`) with panel width `nb` and
    /// blocking crossover `nx` (§II-B's NB/NX).
    ScalapackQrf {
        /// Panel width (ScaLAPACK default 64).
        nb: usize,
        /// Unblocked crossover (ScaLAPACK default 128).
        nx: usize,
    },
}

/// Real numerics or symbolic (paper-scale) execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Real data, seeded workload; returns the R factor.
    Real {
        /// Workload seed.
        seed: u64,
    },
    /// Phantom payloads and closed-form flops; same schedule and clocks.
    Symbolic,
}

/// A fully-specified experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Global row count M.
    pub m: u64,
    /// Column count N.
    pub n: usize,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Also form the explicit Q (Table II / Property 1).
    pub compute_q: bool,
    /// Execution mode.
    pub mode: Mode,
    /// Per-process sustained flop rate (γ⁻¹); `None` uses the cost model's
    /// default. The figure harness passes the calibrated domain-kernel
    /// rate η(N)·DGEMM here.
    pub rate_flops: Option<f64>,
    /// Rate charged for the TSQR combine kernels (see
    /// [`TsqrConfig::combine_rate_flops`]); `None` = leaf rate.
    pub combine_rate_flops: Option<f64>,
}

/// What an experiment point produced.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Simulated run time (Eq. (1)'s `time`).
    pub makespan: VirtualTime,
    /// Useful Gflop/s — the paper's y-axis.
    pub gflops: f64,
    /// Aggregated traffic.
    pub totals: TrafficCounters,
    /// Per-rank final clocks and counters (critical-path analysis).
    pub per_rank: Vec<RankStats>,
    /// The R factor (real mode, from rank 0).
    pub r: Option<Matrix>,
    /// The event trace, when the runtime had tracing enabled
    /// (see [`Runtime::enable_tracing`]). Feed it to
    /// [`Trace::chrome_json`] or [`Trace::critical_path`].
    pub trace: Option<Trace>,
    /// Per-rank Eq. (1) metrics ledgers (always collected).
    pub metrics: Vec<MetricsRegistry>,
}

impl ExperimentResult {
    /// All ranks' metrics merged into one registry.
    pub fn aggregate_metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::default();
        for m in &self.metrics {
            out.merge(m);
        }
        out
    }

    /// The largest per-rank flop count — the compute term of the critical
    /// path (for TSQR this is the tree root: leaf + `log₂(P)` combines).
    pub fn max_flops_per_rank(&self) -> u64 {
        self.per_rank.iter().map(|r| r.traffic.flops).max().unwrap_or(0)
    }
}

/// Runs one experiment point on the given runtime.
pub fn run_experiment(rt: &Runtime, exp: &Experiment) -> ExperimentResult {
    let report: RunReport<Option<Matrix>> = match &exp.algorithm {
        Algorithm::Tsqr { shape, domains_per_cluster } => {
            let domains_per_cluster = *domains_per_cluster;
            let cfg = TsqrConfig {
                shape: shape.clone(),
                domains_per_cluster,
                compute_q: exp.compute_q,
                combine_rate_flops: exp.combine_rate_flops,
            };
            let layout = DomainLayout::build(rt.topology(), exp.m, exp.n, domains_per_cluster);
            let tree = ReductionTree::build(shape, layout.num_domains(), &layout.clusters());
            match exp.mode {
                Mode::Real { seed } => rt.run(|p, _| {
                    tsqr_rank_program(p, &layout, &tree, &cfg, seed, exp.rate_flops)
                        .map(|out| out.r)
                }),
                Mode::Symbolic => rt.run(|p, _| {
                    tsqr_rank_program_symbolic(p, &layout, &tree, &cfg, exp.rate_flops)
                        .map(|_| None)
                }),
            }
        }
        Algorithm::ScalapackQrf { nb, nx } => {
            let (nb, nx) = (*nb, *nx);
            let procs = rt.topology().num_procs();
            let chunks = even_chunks(exp.m, procs);
            assert!(!exp.compute_q, "the blocked baseline computes R only");
            match exp.mode {
                Mode::Real { seed } => rt.run(|p: &mut Process, world| {
                    let me = world.my_index(p);
                    let row0: u64 = chunks[..me].iter().sum();
                    let local = workload::block(seed, row0, chunks[me] as usize, exp.n);
                    let out = pdgeqrf(p, world, local, nb, nx, exp.rate_flops)?;
                    Ok(out.r)
                }),
                Mode::Symbolic => rt.run(|p, world| {
                    let me = world.my_index(p);
                    pdgeqrf_symbolic(p, world, chunks[me], exp.n, nb, nx, exp.rate_flops)?;
                    Ok(None)
                }),
            }
        }
        Algorithm::ScalapackQr2 => {
            let procs = rt.topology().num_procs();
            let chunks = even_chunks(exp.m, procs);
            match exp.mode {
                Mode::Real { seed } => {
                    assert!(!exp.compute_q, "real-mode ScaLAPACK baseline computes R only");
                    rt.run(|p: &mut Process, world| {
                        let me = world.my_index(p);
                        let row0: u64 = chunks[..me].iter().sum();
                        let local = workload::block(seed, row0, chunks[me] as usize, exp.n);
                        let out = pdgeqr2(p, world, local, exp.rate_flops)?;
                        Ok(out.r)
                    })
                }
                Mode::Symbolic => rt.run(|p, world| {
                    let me = world.my_index(p);
                    pdgeqr2_symbolic(p, world, chunks[me], exp.n, exp.rate_flops)?;
                    if exp.compute_q {
                        // Table II: forming Q doubles messages, volume and
                        // flops; the back-transformation sweep has the same
                        // per-column reduction structure as the
                        // factorization, so replaying the schedule charges
                        // exactly the doubled cost.
                        pdgeqr2_symbolic(p, world, chunks[me], exp.n, exp.rate_flops)?;
                    }
                    Ok(None)
                }),
            }
        }
    };

    let r = report.ranks[0].result.clone().expect("rank program failed");
    let makespan = report.makespan;
    let per_rank = report.ranks.iter().map(|r| r.stats).collect();
    let gflops = model::useful_flops(exp.m, exp.n as u64, exp.compute_q)
        / makespan.secs().max(f64::MIN_POSITIVE)
        / 1e9;
    ExperimentResult {
        makespan,
        gflops,
        totals: report.totals,
        per_rank,
        r,
        trace: report.trace,
        metrics: report.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_linalg::verify::r_distance;
    use tsqr_linalg::prelude::QrFactors;
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

    fn mini_runtime(clusters: usize, procs_per_cluster: usize) -> Runtime {
        let specs = (0..clusters)
            .map(|i| ClusterSpec {
                name: format!("c{i}"),
                nodes: procs_per_cluster,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            })
            .collect();
        let topo = GridTopology::block_placement(specs, procs_per_cluster, 1);
        let mut model =
            CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 3.67e9, clusters);
        for a in 0..clusters {
            for b in 0..clusters {
                if a != b {
                    model.inter_cluster[a][b] = LinkParams::from_ms_mbps(8.0, 80.0);
                }
            }
        }
        Runtime::new(topo, model)
    }

    #[test]
    fn both_algorithms_compute_the_same_r() {
        let rt = mini_runtime(2, 4);
        let (m, n) = (512u64, 8);
        let tsqr = run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 4,
                },
                compute_q: false,
                mode: Mode::Real { seed: 61 },
                rate_flops: None,
                combine_rate_flops: None,
            },
        );
        let scal = run_experiment(
            &rt,
            &Experiment {
                m,
                n,
                algorithm: Algorithm::ScalapackQr2,
                compute_q: false,
                mode: Mode::Real { seed: 61 },
                rate_flops: None,
                combine_rate_flops: None,
            },
        );
        let a = workload::full_matrix(61, m as usize, n);
        let want = QrFactors::compute(&a, 8).r().upper_triangular_padded();
        assert!(r_distance(tsqr.r.as_ref().unwrap(), &want) < 1e-11);
        assert!(r_distance(scal.r.as_ref().unwrap(), &want) < 1e-11);
    }

    #[test]
    fn tsqr_beats_scalapack_on_the_simulated_grid() {
        // The paper's headline comparison, at test scale but with the
        // skewed grid network: TSQR's O(log P) messages beat ScaLAPACK's
        // O(N log P).
        let rt = mini_runtime(4, 4);
        let (m, n) = (1u64 << 20, 64);
        let mk = |algorithm| Experiment {
            m,
            n,
            algorithm,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let tsqr = run_experiment(
            &rt,
            &mk(Algorithm::Tsqr {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: 4,
            }),
        );
        let scal = run_experiment(&rt, &mk(Algorithm::ScalapackQr2));
        assert!(
            tsqr.gflops > 1.5 * scal.gflops,
            "TSQR {} Gflop/s vs ScaLAPACK {} Gflop/s",
            tsqr.gflops,
            scal.gflops
        );
    }

    #[test]
    fn symbolic_scalapack_q_doubles_cost() {
        let rt = mini_runtime(1, 4);
        let (m, n) = (1u64 << 16, 32);
        let base = Experiment {
            m,
            n,
            algorithm: Algorithm::ScalapackQr2,
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let r_only = run_experiment(&rt, &base);
        let with_q = run_experiment(&rt, &Experiment { compute_q: true, ..base });
        let ratio = with_q.makespan.secs() / r_only.makespan.secs();
        assert!((ratio - 2.0).abs() < 0.05, "got ratio {ratio}");
        // Gflop/s stays comparable since useful flops also double.
        assert!((with_q.gflops / r_only.gflops - 1.0).abs() < 0.05);
    }

    #[test]
    fn gflops_metric_uses_useful_flops() {
        let rt = mini_runtime(1, 2);
        let exp = Experiment {
            m: 1 << 14,
            n: 16,
            algorithm: Algorithm::Tsqr { shape: TreeShape::Binary, domains_per_cluster: 2 },
            compute_q: false,
            mode: Mode::Symbolic,
            rate_flops: None,
            combine_rate_flops: None,
        };
        let res = run_experiment(&rt, &exp);
        let expect = model::useful_flops(1 << 14, 16, false) / res.makespan.secs() / 1e9;
        assert!((res.gflops - expect).abs() < 1e-9);
    }

    #[test]
    fn traced_experiment_exposes_phases_metrics_and_critical_path() {
        let mut rt = mini_runtime(2, 2);
        rt.enable_tracing();
        let exp = Experiment {
            m: 1 << 10,
            n: 8,
            algorithm: Algorithm::Tsqr {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: 2,
            },
            compute_q: false,
            mode: Mode::Real { seed: 7 },
            rate_flops: None,
            combine_rate_flops: None,
        };
        let res = run_experiment(&rt, &exp);
        let trace = res.trace.as_ref().expect("tracing was enabled");
        // The TSQR phase annotations survive the plumbing.
        assert!(trace
            .events
            .iter()
            .any(|e| e.phase == Some(crate::tsqr::PHASE_REDUCE)));
        // The critical path tiles the makespan exactly (free invariant).
        let cp = trace.critical_path();
        assert!((cp.total().secs() - res.makespan.secs()).abs() < 1e-9);
        // Metrics are always on; phase ledgers exist for leaf and reduce.
        let agg = res.aggregate_metrics();
        assert!(agg.phase(crate::tsqr::PHASE_LEAF).is_some());
        assert!(agg.phase(crate::tsqr::PHASE_REDUCE).is_some());
        assert!(agg.total().flops > 0);
    }
}
