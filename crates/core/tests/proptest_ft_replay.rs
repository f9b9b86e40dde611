//! Replay determinism of the self-healing TSQR: for arbitrary failure
//! schedules (random crashes, random lossy links, random seeds), two
//! runs with the same `(matrix, schedule, seed)` must produce
//!
//! * the **byte-identical** R factor,
//! * the **identical failure-event trace** (compared via the
//!   deterministic Chrome-trace serialization),
//! * identical virtual makespans and identical failed-rank sets,
//!
//! and the recovered R must equal the failure-free reference **bit for
//! bit** (the whole point of `tsqr_core::ft_tsqr`).

use proptest::prelude::*;

use tsqr_core::domains::DomainLayout;
use tsqr_core::ft_tsqr::ft_tsqr_rank_program;
use tsqr_core::tree::{ReductionTree, TreeShape};
use tsqr_core::tsqr::{tsqr_rank_program, TsqrConfig};
use tsqr_gridmpi::Runtime;
use tsqr_linalg::Matrix;
use tsqr_netsim::{
    ClusterSpec, CostModel, FailureSchedule, GridTopology, LinkParams, VirtualTime,
};

const M: u64 = 256;
const N: usize = 8;
const RANKS: usize = 16;

/// The 4-site fault grid: 4 clusters × 4 single-proc nodes, LAN inside,
/// WAN between (same shape as the `ft_tsqr` unit tests).
fn grid4() -> Runtime {
    let specs = (0..4)
        .map(|i| ClusterSpec {
            name: format!("site{i}"),
            nodes: 4,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, 4, 1);
    let mut model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, 4);
    for a in 0..4 {
        for b in 0..4 {
            if a != b {
                model.inter_cluster[a][b] = LinkParams::from_ms_mbps(8.0, 80.0);
            }
        }
    }
    Runtime::new(topo, model)
}

fn cfg() -> TsqrConfig {
    TsqrConfig {
        shape: TreeShape::GridHierarchical,
        domains_per_cluster: 4,
        ..Default::default()
    }
}

/// A random-but-replayable failure scenario.
#[derive(Debug, Clone)]
struct Scenario {
    /// `(rank, at_ms)` crashes — ranks deduplicated.
    crashes: Vec<(usize, f64)>,
    /// `(src, dst, p)` lossy links.
    lossy: Vec<(usize, usize, f64)>,
    fault_seed: u64,
    workload_seed: u64,
}

impl Scenario {
    fn schedule(&self) -> FailureSchedule {
        let mut s = FailureSchedule::new(self.fault_seed);
        let mut seen = Vec::new();
        for &(rank, at_ms) in &self.crashes {
            if !seen.contains(&rank) {
                seen.push(rank);
                s = s.crash_rank(rank, VirtualTime::from_secs(at_ms * 1e-3));
            }
        }
        for &(src, dst, p) in &self.lossy {
            if src != dst {
                s = s.drop_probability(src, dst, p);
            }
        }
        s
    }
}

/// One traced self-healing run: `(R-holder's R, makespan, failed ranks,
/// chrome-trace JSON)`.
fn run_ft(scenario: &Scenario) -> (Matrix, f64, Vec<usize>, String) {
    let mut rt = grid4();
    rt.set_failure_schedule(scenario.schedule());
    rt.enable_tracing();
    let layout = DomainLayout::build(rt.topology(), M, N, 4);
    let tree = ReductionTree::build(&TreeShape::GridHierarchical, RANKS, &layout.clusters());
    let c = cfg();
    let report = rt.run_async(async |p, _| {
        ft_tsqr_rank_program(p, &layout, &tree, &c, scenario.workload_seed, None).await
    });
    let makespan = report.makespan.secs();
    let chrome = report.trace.as_ref().expect("tracing enabled").chrome_json();
    let outcome = report.outcome();
    let mut holders: Vec<Matrix> = outcome
        .survivors
        .iter()
        .filter_map(|(_, o)| o.r.clone())
        .collect();
    assert_eq!(
        holders.len(),
        1,
        "exactly one survivor must hold R (crashes {:?})",
        scenario.crashes
    );
    (holders.pop().unwrap(), makespan, outcome.failed_ranks(), chrome)
}

/// The failure-free R of the plain program — the recovery target.
fn reference_r(workload_seed: u64) -> Matrix {
    let rt = grid4();
    let layout = DomainLayout::build(rt.topology(), M, N, 4);
    let tree = ReductionTree::build(&TreeShape::GridHierarchical, RANKS, &layout.clusters());
    let c = cfg();
    let report = rt.run_async(async |p, _| {
        tsqr_rank_program(p, &layout, &tree, &c, workload_seed, None).await
    });
    report.ranks[0].result.clone().unwrap().r.unwrap()
}

/// The property: replaying a scenario is exact, and recovery is bitwise.
fn check_replay(scenario: &Scenario) {
    let (r1, t1, failed1, chrome1) = run_ft(scenario);
    let (r2, t2, failed2, chrome2) = run_ft(scenario);
    assert!(r1.approx_eq(&r2, 0.0), "replayed R must be byte-identical");
    assert_eq!(t1, t2, "replayed makespan must be identical");
    assert_eq!(failed1, failed2, "replayed failed-rank set must be identical");
    assert_eq!(chrome1, chrome2, "replayed failure-event trace must be identical");
    let reference = reference_r(scenario.workload_seed);
    assert!(
        r1.approx_eq(&reference, 0.0),
        "recovered R must equal the failure-free R bit for bit (crashes {:?}, lossy {:?})",
        scenario.crashes,
        scenario.lossy
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary crash/loss schedules replay exactly and recover the
    /// failure-free R bitwise.
    #[test]
    fn ft_replay_is_deterministic_and_bitwise(
        crashes in proptest::collection::vec((0usize..RANKS, 0.005f64..20.0), 0..=2),
        lossy in proptest::collection::vec((0usize..RANKS, 0usize..RANKS, 0.05f64..0.35), 0..=2),
        fault_seed in 0u64..1_000,
        workload_seed in 1u64..1_000,
    ) {
        check_replay(&Scenario { crashes, lossy, fault_seed, workload_seed });
    }
}

/// A pinned heavy scenario (cascading crashes + a lossy WAN pair) kept
/// outside the proptest loop so it always runs, shrunk or not.
#[test]
fn pinned_cascade_with_loss_replays_exactly() {
    check_replay(&Scenario {
        crashes: vec![(0, 1.0), (1, 2.0)],
        lossy: vec![(4, 0, 0.3), (3, 2, 0.3)],
        fault_seed: 9,
        workload_seed: 71,
    });
}
