//! Determinism regression tests for the commcheck work
//! (`docs/static-analysis.md`):
//!
//! 1. two independent runs of the same experiment emit **byte-identical**
//!    Chrome-trace JSON and equal metrics registries (the regression test
//!    guarding the `BTreeMap`-everywhere policy the `commlint`
//!    `hashmap-iter` rule enforces statically);
//! 2. a deliberately injected receive race (a test-only wildcard
//!    `recv_any` fold) is caught by the happens-before analyzer *and*
//!    makes the DPOR-lite explorer refuse its determinism proof;
//! 3. the explorer **proves** the real-numerics TSQR bit-identical —
//!    R factor, makespan, metrics — across every explored delivery order
//!    on an 8-rank grid (the exhaustive regime of `schedules_for`).

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::experiment::{run_experiment, Algorithm, Experiment, Mode};
use grid_tsqr::core::tree::{ReductionTree, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::gridmpi::{explore, fnv1a, schedules_for, Runtime};
use grid_tsqr::netsim::{grid5000, ClusterSpec, CostModel, GridTopology, LinkParams};

/// A scaled-down Grid'5000 (real constants, few nodes): 2 sites × 2 nodes
/// × 2 procs = 8 ranks.
fn small_grid5000() -> Runtime {
    let clusters = grid5000::clusters().into_iter().take(2).collect();
    let topo = GridTopology::block_placement(clusters, 2, 2);
    Runtime::new(topo, grid5000::cost_model())
}

/// A dedicated 8-rank two-cluster grid with one domain per rank — the
/// same topology `grid-tsqr check --explore` uses for its proof.
fn explorer_grid() -> Runtime {
    let topo = GridTopology::block_placement(
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
    );
    let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 2);
    Runtime::new(topo, model)
}

#[test]
fn two_runs_emit_byte_identical_chrome_json() {
    let run = || {
        let mut rt = small_grid5000();
        rt.enable_tracing();
        let res = run_experiment(
            &rt,
            &Experiment {
                m: 1 << 14,
                n: 16,
                algorithm: Algorithm::Tsqr {
                    shape: TreeShape::GridHierarchical,
                    domains_per_cluster: 4,
                },
                compute_q: false,
                mode: Mode::Symbolic,
                rate_flops: Some(1.0e9),
                combine_rate_flops: Some(1.0e9),
            },
        );
        let json = res.trace.as_ref().expect("tracing enabled").chrome_json();
        (json, res.metrics.clone(), res.makespan.secs().to_bits())
    };
    let (json1, metrics1, makespan1) = run();
    let (json2, metrics2, makespan2) = run();
    assert_eq!(json1, json2, "Chrome-trace JSON must be byte-identical across runs");
    assert_eq!(metrics1, metrics2, "per-rank metrics must be identical across runs");
    assert_eq!(makespan1, makespan2, "makespan must be bit-identical across runs");
    // The export is genuinely non-trivial (guards against a vacuous pass).
    assert!(json1.len() > 1000, "suspiciously small trace: {} bytes", json1.len());
}

#[test]
fn injected_wildcard_race_is_caught_by_analyzer_and_explorer() {
    // Rank 0 folds with a non-commutative operation over *wildcard*
    // receives — the canonical seeded race. No shipped rank program uses
    // `recv_any` (the commlint wildcard-recv rule denies it outside test
    // code); this test keeps the detector honest.
    let make = || {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "race".into(),
                nodes: 4,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            4,
            1,
        );
        let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.5, 800.0), 1e9, 1);
        Runtime::new(topo, model)
    };

    // Single run, tracing on: the analyzer flags the wildcard receives.
    let mut rt = make();
    rt.enable_tracing();
    let report = rt.run_async(async |p, _| {
        if p.rank() == 0 {
            let mut acc = 1.0f64;
            for _ in 1..p.size() {
                let (_, x) = p.recv_any::<f64>(1).await?;
                acc = acc * 3.0 + x; // order-sensitive fold
            }
            Ok(acc)
        } else {
            p.send(0, 1, p.rank() as f64)?;
            Ok(0.0)
        }
    });
    let hb = report.trace.as_ref().expect("tracing enabled").hb_analysis();
    assert!(hb.wildcard_recvs >= 3, "expected 3 wildcard receives, saw {}", hb.wildcard_recvs);
    assert!(!hb.races.is_empty(), "the analyzer must flag the wildcard race");
    assert!(!hb.ok());

    // And the explorer refuses the determinism proof for the same program.
    let rep = explore(
        make,
        async |p, _| {
            if p.rank() == 0 {
                let mut acc = 1.0f64;
                for _ in 1..p.size() {
                    let (_, x) = p.recv_any::<f64>(1).await?;
                    acc = acc * 3.0 + x;
                }
                Ok(acc)
            } else {
                p.send(0, 1, p.rank() as f64)?;
                Ok(0.0)
            }
        },
        |x| x.to_bits(),
        &schedules_for(4),
    );
    assert!(
        !rep.proves_determinism(),
        "a wildcard fold must never be proved deterministic:\n{}",
        rep.render()
    );
}

#[test]
fn explorer_proves_tsqr_r_bit_identical_for_p8() {
    // The upgrade of the fault-tolerance PR's single-seed replay test:
    // for P = 8 the explorer permutes every commutable delivery order
    // (27 schedules) and requires bit-identical R, makespan and metrics,
    // with race-free traces — an exhaustive argument for small trees.
    let layout = DomainLayout::build(explorer_grid().topology(), 4096, 8, 4);
    let tree = ReductionTree::build(
        &TreeShape::GridHierarchical,
        layout.num_domains(),
        &layout.clusters(),
    );
    let cfg = TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 4,
        compute_q: false,
        combine_rate_flops: None,
    };
    let rep = explore(
        explorer_grid,
        async |p, _| tsqr_rank_program(p, &layout, &tree, &cfg, 42, None).await,
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
    assert_eq!(rep.schedules(), 27, "P ≤ 8 is the exhaustive regime");
    assert!(
        rep.proves_determinism(),
        "TSQR must be schedule-independent:\n{}",
        rep.render()
    );
    // The R digest is real: rank 0 held an R in the first run.
    assert!(matches!(rep.runs[0].rank_digests[0], Ok(d) if d != 0));
}
