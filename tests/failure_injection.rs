//! Failure-injection integration tests: deterministic link failures must
//! surface as typed errors in whatever rank program hits them, and leave
//! the other ranks' results intact where the protocol allows.

use grid_tsqr::gridmpi::{CommError, Runtime};
use grid_tsqr::netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

fn runtime(procs: usize) -> Runtime {
    let topo = GridTopology::block_placement(
        vec![ClusterSpec {
            name: "c".into(),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        }],
        procs,
        1,
    );
    Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 890.0), 1e9, 1))
}

#[test]
fn failed_send_is_typed_and_attributed() {
    let mut rt = runtime(2);
    rt.fail_link(0, 1);
    let report = rt.run(|p, _| {
        if p.rank() == 0 {
            p.send(1, 0, 1.0f64)
        } else {
            Ok(()) // rank 1 checks the link before waiting
        }
    });
    assert_eq!(report.ranks[0].result, Err(CommError::LinkDown { src: 0, dst: 1 }));
    assert!(report.ranks[1].result.is_ok());
}

#[test]
fn reverse_direction_still_works() {
    let mut rt = runtime(2);
    rt.fail_link(0, 1); // directed: 1 -> 0 still up
    let report = rt.run_async(async |p, _| {
        if p.rank() == 1 {
            p.send(0, 0, 2.5f64)?;
            Ok(0.0)
        } else {
            p.recv::<f64>(1, 0).await
        }
    });
    assert_eq!(report.ranks[0].result, Ok(2.5));
    assert!(report.ranks[1].result.is_ok());
}

#[test]
fn collective_propagates_failure_along_the_tree() {
    // Fail the link a binomial reduce must use; the sender gets LinkDown
    // and returns, so the root, left waiting on it, gets PeerGone from
    // rank 1 once the run is quiescent — a typed end, not a hang.
    let mut rt = runtime(4);
    rt.fail_link(1, 0); // reduce edge 1 -> 0 at the first level
    let report = rt.run_async(async |p, world| {
        if p.rank() == 1 {
            // Rank 1 will fail to send its partial to rank 0; surface it.
            let r = world.reduce(p, 0, 1.0f64, |a, b| a + b).await;
            match r {
                Err(CommError::LinkDown { src: 1, dst: 0 }) => Ok("failed-as-expected"),
                other => panic!("rank 1 expected LinkDown, got {other:?}"),
            }
        } else if p.rank() == 0 {
            // The root will never hear from rank 1, which has returned.
            match world.reduce(p, 0, 1.0f64, |a, b| a + b).await {
                Err(CommError::PeerGone { rank: 0, from: 1 }) => Ok("root-saw-failure"),
                other => panic!("root expected PeerGone from rank 1, got {other:?}"),
            }
        } else {
            // Other ranks' sub-trees are unaffected; their sends target
            // healthy links (2->0 would... 2 sends to 0 at level 2 — that
            // link is healthy; 3 sends to 2).
            world.reduce(p, 0, 1.0f64, |a, b| a + b).await.map(|_| "ok")
        }
    });
    assert_eq!(report.ranks[1].result, Ok("failed-as-expected"));
    assert_eq!(report.ranks[0].result, Ok("root-saw-failure"));
}

#[test]
fn tsqr_surfaces_failure_on_the_reduction_edge() {
    use grid_tsqr::core::domains::DomainLayout;
    use grid_tsqr::core::tree::{ReductionTree, TreeShape};
    use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};

    let mut rt = runtime(4);
    rt.fail_link(1, 0); // the binary tree's first combine edge
    let layout = DomainLayout::build(rt.topology(), 256, 4, 4);
    let tree = ReductionTree::build(&TreeShape::Binary, 4, &layout.clusters());
    let cfg = TsqrConfig { shape: TreeShape::Binary, domains_per_cluster: 4, ..Default::default() };
    let report =
        rt.run_async(async |p, _| tsqr_rank_program(p, &layout, &tree, &cfg, 1, None).await);
    // Rank 1 hits the dead link; rank 0 can then never finish its combine.
    assert!(matches!(
        report.ranks[1].result,
        Err(CommError::LinkDown { src: 1, dst: 0 })
    ));
    assert!(report.ranks[0].result.is_err());
    // Rank 3 -> 2 leg is healthy and completes its send.
    assert!(report.ranks[3].result.is_ok());
}

/// Two clusters × two nodes × two procs per node: the smallest grid on
/// which every link class (intra-node, intra-cluster, inter-cluster)
/// appears. Ranks 0–3 are cluster 0 (0,1 share a node), ranks 4–7 are
/// cluster 1.
fn multi_class_runtime() -> Runtime {
    let specs = (0..2)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: 2,
            procs_per_node: 2,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, 2, 2);
    Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(0.1, 890.0), 1e9, 2))
}

#[test]
fn fail_link_is_directional_for_every_link_class() {
    // One representative pair per link class, failed in each direction:
    // the failed direction surfaces as LinkDown at the sender while the
    // reverse direction still carries data.
    for (a, b, class) in [
        (0usize, 1usize, "intra-node"),
        (0, 2, "intra-cluster"),
        (0, 4, "inter-cluster"),
    ] {
        for (src, dst) in [(a, b), (b, a)] {
            let mut rt = multi_class_runtime();
            rt.fail_link(src, dst);
            let report = rt.run_async(async |p, _| {
                if p.rank() == src {
                    match p.send(dst, 0, 1.0f64) {
                        Err(CommError::LinkDown { src: s, dst: d }) if s == src && d == dst => {}
                        other => {
                            panic!("{class} {src}->{dst}: expected LinkDown, got {other:?}")
                        }
                    }
                    // The reverse direction is untouched.
                    p.recv::<f64>(dst, 1).await
                } else if p.rank() == dst {
                    p.send(src, 1, 2.0f64)?;
                    Ok(2.0)
                } else {
                    Ok(0.0)
                }
            });
            assert_eq!(report.ranks[src].result, Ok(2.0), "{class} {src}->{dst}");
            assert!(report.ranks[dst].result.is_ok(), "{class} {src}->{dst}");
        }
    }
}

#[test]
fn starving_rank_terminates_typed_for_every_link_class() {
    // The receiver waits on a message that can never arrive (its only
    // sender hits a dead link and returns). Once the run is quiescent it
    // gets PeerGone naming that sender — a typed end, never a hang.
    for (src, dst, class) in [
        (1usize, 0usize, "intra-node"),
        (2, 0, "intra-cluster"),
        (4, 0, "inter-cluster"),
    ] {
        let mut rt = multi_class_runtime();
        rt.fail_link(src, dst);
        let report = rt.run_async(async |p, _| {
            if p.rank() == src {
                match p.send(dst, 0, 1.0f64) {
                    Err(CommError::LinkDown { .. }) => Ok("sender-saw-linkdown"),
                    other => panic!("{class}: sender expected LinkDown, got {other:?}"),
                }
            } else if p.rank() == dst {
                match p.recv::<f64>(src, 0).await {
                    Err(CommError::PeerGone { rank, from }) if rank == dst && from == src => {
                        Ok("starved-but-typed")
                    }
                    other => panic!("{class}: starved rank expected a typed end, got {other:?}"),
                }
            } else {
                Ok("idle")
            }
        });
        assert_eq!(report.ranks[src].result, Ok("sender-saw-linkdown"), "{class}");
        assert_eq!(report.ranks[dst].result, Ok("starved-but-typed"), "{class}");
    }
}

#[test]
fn unrelated_traffic_is_unaffected() {
    let mut rt = runtime(4);
    rt.fail_link(0, 1);
    let report = rt.run_async(async |p, _| {
        // Ring among ranks 2 and 3 only.
        match p.rank() {
            2 => {
                p.send(3, 0, 7.0f64)?;
                p.recv::<f64>(3, 1).await
            }
            3 => {
                let x: f64 = p.recv(2, 0).await?;
                p.send(2, 1, x * 2.0)?;
                Ok(x)
            }
            _ => Ok(-1.0),
        }
    });
    assert_eq!(report.ranks[2].result, Ok(14.0));
    assert_eq!(report.ranks[3].result, Ok(7.0));
}
