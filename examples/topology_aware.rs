//! Why topology-awareness matters: the same TSQR reduction with four tree
//! shapes / placements, and what each costs on a grid whose wide-area
//! links are two orders of magnitude slower than the cluster fabric
//! (the paper's Figs. 1–2 in executable form).
//!
//! Also demonstrates the QCG-OMPI programming model of §III: the
//! application retrieves its group identifiers from the middleware and
//! builds per-site communicators with `split_by`.
//!
//! Run: `cargo run --release --example topology_aware`

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::tree::{ReductionTree, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::netsim::grid5000;
use grid_tsqr::qcg::{allocate, JobProfile, ResourceCatalog};

fn run_shape(rt: &Runtime, shape: TreeShape, label: &str, m: u64, n: usize) {
    let layout = DomainLayout::build(rt.topology(), m, n, 64);
    let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig { shape, domains_per_cluster: 64, ..Default::default() };
    let report = rt.run_async(async |p, _| {
        tsqr_rank_program(p, &layout, &tree, &cfg, 1, None).await.map(|_| ())
    });
    println!(
        "  {label:<28} {:>8.3} s   {:>4} WAN msgs   tree depth {}",
        report.makespan.secs(),
        report.totals.inter_cluster_msgs(),
        tree.depth()
    );
}

fn main() {
    let (m, n) = (262_144u64, 16usize);

    // --- The QCG programming model: profile -> allocation -> groups. ---
    let catalog = ResourceCatalog::grid5000();
    let alloc = allocate(&catalog, &JobProfile::cluster_of_clusters(4, 64)).expect("allocation");
    println!(
        "allocation: {} groups of 64, throttled to {:.1} Gflop/s/process",
        alloc.num_groups(),
        alloc.effective_gflops_per_proc
    );
    let group_of = alloc.group_of.clone();
    let rt = Runtime::new(alloc.topology, alloc.network);

    // Each rank retrieves its group id (the QCG-OMPI MPI attribute) and
    // builds a per-site communicator, then sums a value inside its site —
    // zero WAN traffic.
    let report = rt.run_async(async |p, world| {
        let my_group = group_of[p.rank()];
        let site = world.split_by(p, |r| group_of[r] as u64, |r| r as u64);
        let local_sum = site.allreduce(p, 1.0f64, |a, b| a + b).await?;
        Ok((my_group, local_sum))
    });
    let (g0, sum0) = report.ranks[0].result.clone().unwrap();
    println!(
        "rank 0: group {g0}, intra-site allreduce counted {sum0} processes, \
         {} WAN messages for all 256 ranks",
        report.totals.inter_cluster_msgs()
    );
    assert_eq!(sum0, 64.0);
    assert_eq!(report.totals.inter_cluster_msgs(), 0);

    // --- Tree shapes on the real cost model. ---
    println!("\nTSQR reduction of a {m} x {n} matrix, 256 domains on 4 sites:");
    run_shape(&rt, TreeShape::GridHierarchical, "grid-tuned (Fig. 2)", m, n);
    run_shape(&rt, TreeShape::Binary, "binary, block placement", m, n);
    run_shape(&rt, TreeShape::Flat, "flat (out-of-core shape)", m, n);

    // A topology-oblivious runtime that scattered ranks across sites:
    // the per-column all-reduces of the ScaLAPACK baseline now cross the
    // WAN at almost every tree edge (Fig. 1's caption: "if process ranks
    // are randomly distributed, the figure can be worse").
    let scal = |rt: &Runtime, label: &str| {
        let res = grid_tsqr::core::experiment::run_experiment(
            rt,
            &grid_tsqr::core::experiment::Experiment {
                m,
                n,
                algorithm: grid_tsqr::core::experiment::Algorithm::ScalapackQr2,
                compute_q: false,
                mode: grid_tsqr::core::experiment::Mode::Symbolic,
                rate_flops: None,
                combine_rate_flops: None,
            },
        );
        println!(
            "  {label:<28} {:>8.3} s   {:>4} WAN msgs",
            res.makespan.secs(),
            res.totals.inter_cluster_msgs()
        );
        res.totals.inter_cluster_msgs()
    };
    println!("\nScaLAPACK QR2 on the same problem (2 all-reduces per column):");
    let wan_block = scal(&rt, "QCG placement");
    let shuffled = Runtime::new(grid5000::topology(4).shuffled(9), grid5000::cost_model());
    let wan_shuffled = scal(&shuffled, "shuffled (oblivious) placement");
    assert!(wan_shuffled > wan_block);

    println!(
        "\nThe tuned tree pays the 6-9 ms WAN latency exactly {} times; every\n\
         other combination pays it more often — that is the whole paper.",
        4 - 1
    );
}
