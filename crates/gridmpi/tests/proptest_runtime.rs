//! Property-based tests of the runtime: determinism, collective
//! correctness and cost-model monotonicity under random configurations.

use proptest::prelude::*;

use tsqr_gridmpi::Runtime;
use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams, VirtualTime};

fn runtime(clusters: usize, procs: usize, latency_ms: f64, mbps: f64) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs, 1);
    let mut model =
        CostModel::homogeneous(LinkParams::from_ms_mbps(latency_ms, mbps), 1e9, clusters);
    for a in 0..clusters {
        for b in 0..clusters {
            if a != b {
                model.inter_cluster[a][b] = LinkParams::from_ms_mbps(latency_ms * 100.0, mbps / 8.0);
            }
        }
    }
    Runtime::new(topo, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Collectives compute the right value for arbitrary group sizes and
    /// member values.
    #[test]
    fn allreduce_and_reduce_sum_correctly(
        clusters in 1usize..3,
        procs in 1usize..6,
        values in proptest::collection::vec(-100.0f64..100.0, 1..18),
    ) {
        let rt = runtime(clusters, procs, 0.1, 890.0);
        let n = clusters * procs;
        let vals: Vec<f64> = (0..n).map(|i| values[i % values.len()]).collect();
        let want: f64 = vals.iter().sum();
        let vals2 = vals.clone();
        let report = rt.run_async(async move |p, world| {
            let mine = vals2[p.rank()];
            let all = world.allreduce(p, mine, |a, b| a + b).await?;
            let rooted = world.reduce(p, 0, mine, |a, b| a + b).await?;
            Ok((all, rooted))
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let (all, rooted) = r.result.clone().unwrap();
            prop_assert!((all - want).abs() < 1e-9 * want.abs().max(1.0), "rank {rank}");
            if rank == 0 {
                prop_assert!((rooted.unwrap() - want).abs() < 1e-9 * want.abs().max(1.0));
            } else {
                prop_assert!(rooted.is_none());
            }
        }
    }

    /// Virtual time is deterministic and monotone in the payload size.
    #[test]
    fn makespan_deterministic_and_monotone_in_bytes(
        procs in 2usize..6,
        len1 in 1usize..200,
        extra in 1usize..200,
    ) {
        let rt = runtime(1, procs, 0.5, 100.0);
        let run = |len: usize| {
            rt.run_async(async move |p, world| {
                let me = world.my_index(p) as f64;
                world.allreduce(p, vec![me; len], |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                })
                .await?;
                Ok(p.clock())
            })
            .makespan
        };
        let small = run(len1);
        let small_again = run(len1);
        prop_assert_eq!(small, small_again, "determinism");
        let big = run(len1 + extra);
        prop_assert!(big > small, "more bytes must take longer");
    }

    /// Makespan is monotone in latency and inverse-monotone in bandwidth.
    #[test]
    fn makespan_monotone_in_link_quality(
        procs in 2usize..5,
        lat_ms in 0.01f64..2.0,
        mbps in 50.0f64..1000.0,
    ) {
        let run = |lat: f64, bw: f64| {
            runtime(1, procs, lat, bw)
                .run_async(async |p, world| {
                    let me = world.my_index(p) as f64;
                    world.allreduce(p, vec![me; 64], |a, b| {
                        a.iter().zip(&b).map(|(x, y)| x + y).collect()
                    })
                    .await?;
                    Ok(())
                })
                .makespan
        };
        let base = run(lat_ms, mbps);
        prop_assert!(run(lat_ms * 2.0, mbps) > base, "higher latency must cost more");
        prop_assert!(run(lat_ms, mbps * 2.0) < base, "higher bandwidth must cost less");
    }

    /// Traffic counters are conserved: everything sent is classified into
    /// exactly one bucket, and WAN counts appear only with > 1 cluster.
    #[test]
    fn counters_conserved(
        clusters in 1usize..4,
        procs in 1usize..4,
    ) {
        let rt = runtime(clusters, procs, 0.1, 890.0);
        let n = clusters * procs;
        let report = rt.run_async(async |p, world| {
            world.allgather(p, p.rank() as u64).await?;
            Ok(())
        });
        let t = report.totals;
        prop_assert_eq!(t.total_msgs(), t.msgs[0] + t.msgs[1] + t.msgs[2]);
        if clusters == 1 {
            prop_assert_eq!(t.inter_cluster_msgs(), 0);
        }
        if n > 1 {
            prop_assert!(t.total_msgs() > 0);
        }
        prop_assert!(report.makespan > VirtualTime::ZERO || n == 1);
    }

    /// A barrier dominates every member's pre-barrier clock.
    #[test]
    fn barrier_is_a_clock_supremum(
        procs in 2usize..6,
        heavy_rank_sel in 0usize..6,
        megaflops in 1u64..2_000,
    ) {
        let rt = runtime(1, procs, 0.1, 890.0);
        let heavy = heavy_rank_sel % procs;
        let report = rt.run_async(async move |p, world| {
            let before = if p.rank() == heavy {
                p.compute(megaflops * 1_000_000, None);
                p.clock()
            } else {
                p.clock()
            };
            world.barrier(p).await?;
            Ok((before, p.clock()))
        });
        let heavy_before = report.ranks[heavy].result.clone().unwrap().0;
        for r in &report.ranks {
            let (_, after) = r.result.clone().unwrap();
            prop_assert!(after >= heavy_before, "barrier must wait for the slowest");
        }
    }
}
