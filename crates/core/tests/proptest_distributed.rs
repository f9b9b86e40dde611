//! Property-based tests of the distributed algorithms: for arbitrary
//! grid shapes, matrix sizes, tree shapes and domain counts, the
//! distributed factorizations must agree with the single-process
//! reference, and the symbolic twins must be traffic/clock-identical.

use proptest::prelude::*;

use tsqr_core::domains::DomainLayout;
use tsqr_core::tree::{ReductionTree, Step, TreeShape};
use tsqr_core::tsqr::{tsqr_rank_program, tsqr_rank_program_symbolic, TsqrConfig};
use tsqr_core::workload;
use tsqr_gridmpi::Runtime;
use tsqr_linalg::prelude::*;
use tsqr_linalg::verify::r_distance;
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

fn mini_grid(clusters: usize, procs: usize) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, clusters);
    for a in 0..clusters {
        for b in 0..clusters {
            if a != b {
                model.inter_cluster[a][b] = LinkParams::from_ms_mbps(8.0, 80.0);
            }
        }
    }
    Runtime::new(topo, model)
}

fn reference_r(seed: u64, m: usize, n: usize) -> tsqr_linalg::Matrix {
    let a = workload::full_matrix(seed, m, n);
    QrFactors::compute(&a, 16).r().upper_triangular_padded()
}

fn shape_from(ix: u8) -> TreeShape {
    match ix % 3 {
        0 => TreeShape::Flat,
        1 => TreeShape::Binary,
        _ => TreeShape::GridHierarchical,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Distributed TSQR R == single-process R for random configurations.
    #[test]
    fn tsqr_matches_reference(
        clusters in 1usize..4,
        procs_pow in 0u32..3,
        dpc_pow in 0u32..3,
        shape_ix in 0u8..3,
        n in 1usize..10,
        m_mult in 2u64..6,
        seed in 0u64..100_000,
    ) {
        let procs = 1usize << procs_pow;          // 1..4 per cluster
        let dpc = (1usize << dpc_pow).min(procs); // divides procs
        let shape = shape_from(shape_ix);
        let rt = mini_grid(clusters, procs);
        // Every group member (not just every domain) needs >= n rows.
        let m = (clusters * procs) as u64 * (n as u64) * m_mult;
        let layout = DomainLayout::build(rt.topology(), m, n, dpc);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig { shape: shape.clone(), domains_per_cluster: dpc, ..Default::default() };
        let report = rt.run_async(async |p, _| {
            tsqr_rank_program(p, &layout, &tree, &cfg, seed, None).await
        });
        let r = report.ranks[0].result.as_ref().unwrap().r.clone().unwrap();
        let want = reference_r(seed, m as usize, n);
        prop_assert!(
            r_distance(&r, &want) < 1e-10,
            "mismatch: clusters={clusters} procs={procs} dpc={dpc} {shape:?} m={m} n={n}"
        );
    }

    /// The symbolic twin produces identical traffic counters and virtual
    /// clocks on every rank, for random configurations.
    #[test]
    fn symbolic_twin_equivalence(
        clusters in 1usize..3,
        procs_pow in 0u32..3,
        dpc_pow in 0u32..3,
        shape_ix in 0u8..3,
        n in 1usize..8,
        seed in 0u64..100_000,
    ) {
        let procs = 1usize << procs_pow;
        let dpc = (1usize << dpc_pow).min(procs);
        let shape = shape_from(shape_ix);
        let rt = mini_grid(clusters, procs);
        let m = (clusters * procs) as u64 * n as u64 * 4;
        let layout = DomainLayout::build(rt.topology(), m, n, dpc);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let compute_q = dpc == procs && (seed % 2 == 0);
        let cfg = TsqrConfig { shape: shape.clone(), domains_per_cluster: dpc, compute_q, ..Default::default() };
        let real = rt.run_async(async |p, _| {
            tsqr_rank_program(p, &layout, &tree, &cfg, seed, None).await.map(|_| ())
        });
        let sym = rt.run_async(async |p, _| {
            tsqr_rank_program_symbolic(p, &layout, &tree, &cfg, None).await
        });
        for (rank, (a, b)) in real.ranks.iter().zip(&sym.ranks).enumerate() {
            prop_assert_eq!(a.stats.traffic, b.stats.traffic, "rank {}", rank);
            prop_assert!((a.stats.clock.secs() - b.stats.clock.secs()).abs() < 1e-12);
        }
    }

    /// Reduction trees are well-formed for arbitrary participant counts
    /// and cluster maps: n−1 total sends, unique final holder, and the
    /// hierarchical tree never exceeds clusters−1 WAN edges.
    #[test]
    fn tree_wellformed(
        n in 1usize..64,
        clusters in 1usize..6,
        shape_ix in 0u8..3,
    ) {
        let shape = shape_from(shape_ix);
        // Contiguous cluster assignment (what allocations produce).
        let cluster_of: Vec<usize> = (0..n).map(|i| i * clusters.min(n) / n).collect();
        let tree = ReductionTree::build(&shape, n, &cluster_of);
        prop_assert_eq!(tree.total_messages(), n - 1);
        if shape == TreeShape::GridHierarchical {
            let distinct = {
                let mut c = cluster_of.clone();
                c.dedup();
                c.len()
            };
            prop_assert_eq!(tree.inter_cluster_messages(&cluster_of), distinct - 1);
        }
        // Every non-root sends exactly once, after all its receives.
        for (i, steps) in tree.steps.iter().enumerate() {
            let sends = steps.iter().filter(|s| matches!(s, Step::Send(_))).count();
            if i == 0 {
                prop_assert_eq!(sends, 0);
            } else {
                prop_assert_eq!(sends, 1);
                prop_assert!(matches!(steps.last(), Some(Step::Send(_))));
            }
        }
    }

    /// Virtual time is deterministic across repeated runs of the same
    /// random program.
    #[test]
    fn deterministic_clocks(
        clusters in 1usize..3,
        procs in 1usize..5,
        n in 1usize..6,
        seed in 0u64..100_000,
    ) {
        let rt = mini_grid(clusters, procs);
        let m = (clusters * procs) as u64 * n as u64 * 3;
        let layout = DomainLayout::build(rt.topology(), m, n, procs);
        let tree = ReductionTree::build(&TreeShape::Binary, layout.num_domains(), &layout.clusters());
        let cfg = TsqrConfig {
            shape: TreeShape::Binary,
            domains_per_cluster: procs,
            ..Default::default()
        };
        let run = || {
            rt.run_async(async |p, _| {
                tsqr_rank_program(p, &layout, &tree, &cfg, seed, None).await.map(|_| ())
            })
                .ranks
                .iter()
                .map(|r| r.stats.clock.secs())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Workload blocks tile the global matrix for arbitrary splits.
    #[test]
    fn workload_blocks_tile(
        m in 1usize..200,
        n in 1usize..8,
        cut in 0usize..200,
        seed in 0u64..100_000,
    ) {
        let cut = cut.min(m);
        let full = workload::full_matrix(seed, m, n);
        let top = workload::block(seed, 0, cut, n);
        let bottom = workload::block(seed, cut as u64, m - cut, n);
        prop_assert!(top.vstack(&bottom).approx_eq(&full, 0.0));
    }
}
