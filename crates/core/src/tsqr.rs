//! QCG-TSQR: the paper's algorithm (§III).
//!
//! Every domain factors its row block — locally (LAPACK-style `geqrf`) when
//! the domain is a single process, or with the distributed
//! [`crate::scalapack::pdgeqr2`] kernel when a *group* of processes shares
//! the domain. The per-domain `n × n` R factors are then reduced over a
//! configurable [`ReductionTree`] with the structured stacked-triangles QR
//! ([`tsqr_linalg::stacked::tpqrt`]); R factors travel **packed** (upper
//! triangle only, `n(n+1)/2` words), which is the `log₂(P)·N²/2` volume of
//! Table I.
//!
//! When the explicit Q is requested the reduction tree is walked a second
//! time, downward: each combine node splits its incoming `n × n` coupling
//! block `E` into `[E1; E2] = Q_node·[E; 0]`, keeps `E1` and returns `E2`
//! to the child that supplied `R2`; each leaf finally applies its implicit
//! local Q to `[E; 0]`, yielding its block of rows of the global Q. This
//! doubles both the message count and the flops — the paper's Table II and
//! Property 1.

use tsqr_gridmpi::message::Phantom;
use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::flops;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{orm2r, Side, Trans, DEFAULT_NB};
use tsqr_linalg::stacked::StackedFactors;
use tsqr_linalg::Matrix;

use crate::domains::DomainLayout;
use crate::scalapack::{pdgeqr2, pdgeqr2_symbolic};
use crate::tree::{ReductionTree, Step, TreeShape};
use crate::workload;

/// Tag for R factors travelling up the reduction tree.
const TAG_R: u32 = 1001;
/// Tag for coupling blocks travelling down during Q reconstruction.
const TAG_E: u32 = 1002;

/// Metrics/trace phase: per-domain leaf factorization.
pub const PHASE_LEAF: &str = "leaf-qr";
/// Metrics/trace phase: R reduction over the domain tree.
pub const PHASE_REDUCE: &str = "tree-reduce";
/// Metrics/trace phase: explicit-Q down-sweep.
pub const PHASE_DOWNSWEEP: &str = "q-downsweep";

/// Configuration of a QCG-TSQR run.
#[derive(Debug, Clone, PartialEq)]
pub struct TsqrConfig {
    /// Shape of the reduction tree over domains.
    pub shape: TreeShape,
    /// Domains per cluster (the knob of Figs. 6–7).
    pub domains_per_cluster: usize,
    /// Also reconstruct the explicit Q factor (requires single-process
    /// domains).
    pub compute_q: bool,
    /// Sustained rate (flop/s) charged for the stacked-triangles combine
    /// kernels, which are fine-grained and run below the blocked leaf
    /// rate; `None` charges them at the leaf rate. This is what makes
    /// "trading flops for intra-node communication" stop paying off at
    /// large N (§V-D, Fig. 7(b)).
    pub combine_rate_flops: Option<f64>,
}

impl Default for TsqrConfig {
    fn default() -> Self {
        TsqrConfig {
            shape: TreeShape::GridHierarchical,
            domains_per_cluster: 1,
            compute_q: false,
            combine_rate_flops: None,
        }
    }
}

/// What one rank gets back from a TSQR run.
#[derive(Debug, Clone)]
pub struct TsqrRankOutput {
    /// The global `n × n` R factor — `Some` on global rank 0 only.
    pub r: Option<Matrix>,
    /// This rank's rows of the explicit Q (`rows × n`) when requested.
    pub q_block: Option<Matrix>,
    /// First global row this rank held.
    pub row0: u64,
    /// Number of rows this rank held.
    pub rows: u64,
}

/// Packs the upper triangle of an `n × n` matrix column-by-column —
/// `n(n+1)/2` values, the wire format of an R factor.
pub fn pack_upper(r: &Matrix) -> Vec<f64> {
    let n = r.rows();
    debug_assert_eq!(r.cols(), n, "R factors are square");
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for j in 0..n {
        for i in 0..=j {
            out.push(r[(i, j)]);
        }
    }
    out
}

/// Inverse of [`pack_upper`].
pub fn unpack_upper(n: usize, packed: &[f64]) -> Matrix {
    assert_eq!(packed.len(), n * (n + 1) / 2, "packed R length mismatch");
    let mut r = Matrix::zeros(n, n);
    let mut it = packed.iter();
    for j in 0..n {
        for i in 0..=j {
            r[(i, j)] = *it.next().expect("length checked");
        }
    }
    r
}

/// The rank program of a numerically real QCG-TSQR run on the seeded
/// random workload (the experiment configuration of §V).
pub async fn tsqr_rank_program(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    seed: u64,
    rate_flops: Option<f64>,
) -> Result<TsqrRankOutput, CommError> {
    let n = layout.n;
    tsqr_rank_program_with(p, layout, tree, cfg, rate_flops, |row0, rows| {
        workload::block(seed, row0, rows, n)
    })
    .await
}

/// The rank program of a numerically real QCG-TSQR run over
/// caller-supplied data.
///
/// `local_block(row0, rows)` must return that slice of the global matrix;
/// it is called exactly once per rank, for the rank's own rows. This is
/// the entry point applications use to orthonormalize *their* vectors
/// (e.g. the block eigensolvers of §II-E).
pub async fn tsqr_rank_program_with(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    rate_flops: Option<f64>,
    local_block: impl FnOnce(u64, usize) -> Matrix,
) -> Result<TsqrRankOutput, CommError> {
    let n = layout.n;
    let d = layout
        .domain_of_rank(p.rank())
        .unwrap_or_else(|| panic!("rank {} is in no domain", p.rank()));
    let dom = &layout.domains[d];
    let member = dom.ranks.iter().position(|&r| r == p.rank()).expect("member of own domain");
    let (row0, rows) = layout.member_rows(d, member);
    let local = local_block(row0, rows as usize);
    assert_eq!(
        local.shape(),
        (rows as usize, n),
        "local_block returned the wrong shape"
    );
    let roots = layout.roots();

    // --- Leaf / domain factorization. ---
    p.phase_begin(PHASE_LEAF);
    let mut leaf_q: Option<QrFactors> = None;
    let mut r_cur: Option<Matrix>;
    if dom.ranks.len() == 1 {
        // Every rank's future stays alive until the reduction ends, so the
        // block is factored in place and the leaf's reflectors are kept
        // only when the down-sweep needs them.
        let f = QrFactors::factor(local, DEFAULT_NB);
        p.compute(flops::geqrf(rows, n as u64), rate_flops);
        r_cur = Some(f.r().upper_triangular_padded());
        leaf_q = cfg.compute_q.then_some(f);
    } else {
        assert!(
            !cfg.compute_q,
            "explicit Q requires single-process domains (use domains_per_cluster = procs)"
        );
        let group = Communicator::from_members(dom.ranks.clone());
        let out = pdgeqr2(p, &group, local, rate_flops).await?;
        r_cur = out.r;
    }
    p.phase_end();

    // --- Reduction over domain roots. ---
    p.phase_begin(PHASE_REDUCE);
    p.annotate(cfg.shape.label());
    let mut combine_stack: Vec<(StackedFactors, usize)> = Vec::new();
    let i_am_root = member == 0;
    let mut sent_to: Option<usize> = None;
    if i_am_root {
        let mut r1 = r_cur.take().expect("domain root holds its R");
        for step in &tree.steps[d] {
            match *step {
                Step::Recv(from_d) => {
                    let packed: Vec<f64> = p.recv(roots[from_d], TAG_R).await?;
                    let mut r2 = unpack_upper(n, &packed);
                    let f = tpqrt(&mut r1, &mut r2);
                    p.compute(flops::tpqrt(n as u64), cfg.combine_rate_flops.or(rate_flops));
                    if cfg.compute_q {
                        combine_stack.push((f, from_d));
                    }
                }
                Step::Send(to_d) => {
                    p.send(roots[to_d], TAG_R, pack_upper(&r1))?;
                    sent_to = Some(to_d);
                }
            }
        }
        r_cur = Some(r1.upper_triangular_padded());
    }
    p.phase_end();

    // --- Optional Q reconstruction (down-sweep). ---
    let mut q_block = None;
    if cfg.compute_q {
        p.phase_begin(PHASE_DOWNSWEEP);
        // Single-process domains only (asserted above), so every rank is a
        // domain root and participates.
        let mut e = match sent_to {
            Some(parent_d) => p.recv::<Matrix>(roots[parent_d], TAG_E).await?,
            None => Matrix::identity(n),
        };
        for (f, partner_d) in combine_stack.iter().rev() {
            let mut c2 = Matrix::zeros(n, n);
            tpmqrt(Trans::No, f, &mut e, &mut c2);
            // Charged at the Table II convention: the down-sweep expansion
            // costs the same 2/3·N³ as the up-sweep combine (an optimized
            // kernel exploits the sparsity the coupling blocks inherit
            // from the identity at the root; our reference tpmqrt does
            // more raw work, but time accounting follows the model).
            p.compute(flops::tpqrt(n as u64), cfg.combine_rate_flops.or(rate_flops));
            p.send(roots[*partner_d], TAG_E, c2)?;
        }
        // Leaf: Q_local = implicit-Q · [E; 0].
        let f = leaf_q.as_ref().expect("single-process leaf keeps its factors");
        let mut c = Matrix::zeros(rows as usize, n);
        c.set_sub(0, 0, &e);
        orm2r(Side::Left, Trans::No, &f.factors.view(), &f.tau, &mut c.view_mut());
        p.compute(flops::org2r(rows, n as u64), rate_flops);
        q_block = Some(c);
        p.phase_end();
    }

    let r = (p.rank() == 0).then(|| r_cur.expect("global root keeps the final R"));
    Ok(TsqrRankOutput { r, q_block, row0, rows })
}

/// The symbolic twin of [`tsqr_rank_program`]: identical schedule and
/// charged flops, [`Phantom`] payloads, no numerics.
pub async fn tsqr_rank_program_symbolic(
    p: &mut Process,
    layout: &DomainLayout,
    tree: &ReductionTree,
    cfg: &TsqrConfig,
    rate_flops: Option<f64>,
) -> Result<(), CommError> {
    let n = layout.n;
    let d = layout
        .domain_of_rank(p.rank())
        .unwrap_or_else(|| panic!("rank {} is in no domain", p.rank()));
    let dom = &layout.domains[d];
    let member = dom.ranks.iter().position(|&r| r == p.rank()).expect("member of own domain");
    let (_row0, rows) = layout.member_rows(d, member);
    let roots = layout.roots();
    let r_bytes = 8 * (n * (n + 1) / 2) as u64;

    p.phase_begin(PHASE_LEAF);
    if dom.ranks.len() == 1 {
        p.compute(flops::geqrf(rows, n as u64), rate_flops);
    } else {
        assert!(!cfg.compute_q, "explicit Q requires single-process domains");
        let group = Communicator::from_members(dom.ranks.clone());
        pdgeqr2_symbolic(p, &group, rows, n, rate_flops).await?;
    }
    p.phase_end();

    p.phase_begin(PHASE_REDUCE);
    p.annotate(cfg.shape.label());
    let mut n_combines = 0usize;
    let mut sent_to: Option<usize> = None;
    if member == 0 {
        for step in &tree.steps[d] {
            match *step {
                Step::Recv(from_d) => {
                    let _: Phantom = p.recv(roots[from_d], TAG_R).await?;
                    p.compute(flops::tpqrt(n as u64), cfg.combine_rate_flops.or(rate_flops));
                    n_combines += 1;
                }
                Step::Send(to_d) => {
                    p.send(roots[to_d], TAG_R, Phantom { bytes: r_bytes })?;
                    sent_to = Some(to_d);
                }
            }
        }
    }
    p.phase_end();

    if cfg.compute_q {
        p.phase_begin(PHASE_DOWNSWEEP);
        if let Some(parent_d) = sent_to {
            let _: Phantom = p.recv(roots[parent_d], TAG_E).await?;
        }
        // Walk the recorded combines in reverse.
        let partners: Vec<usize> = tree.steps[d]
            .iter()
            .filter_map(|s| match s {
                Step::Recv(from) => Some(*from),
                Step::Send(_) => None,
            })
            .collect();
        debug_assert_eq!(partners.len(), n_combines);
        for &partner_d in partners.iter().rev() {
            // Same Table II convention as the real program.
            p.compute(flops::tpqrt(n as u64), cfg.combine_rate_flops.or(rate_flops));
            p.send(roots[partner_d], TAG_E, Phantom { bytes: 8 * (n * n) as u64 })?;
        }
        p.compute(flops::org2r(rows, n as u64), rate_flops);
        p.phase_end();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_linalg::verify::{is_upper_triangular, orthogonality, r_distance, relative_residual};
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};
    use tsqr_gridmpi::Runtime;

    /// A miniature grid: `clusters` sites of `procs` single-socket nodes.
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
        let mut model =
            CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, clusters);
        for a in 0..clusters {
            for b in 0..clusters {
                if a != b {
                    model.inter_cluster[a][b] = LinkParams::from_ms_mbps(8.0, 80.0);
                }
            }
        }
        Runtime::new(topo, model)
    }

    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        let a = workload::full_matrix(seed, m, n);
        QrFactors::compute(&a, 16).r().upper_triangular_padded()
    }

    fn run_tsqr(
        rt: &Runtime,
        m: u64,
        n: usize,
        cfg: TsqrConfig,
        seed: u64,
    ) -> (Matrix, Vec<TsqrRankOutput>, tsqr_gridmpi::RunReport<TsqrRankOutput>) {
        let layout = DomainLayout::build(rt.topology(), m, n, cfg.domains_per_cluster);
        let tree = ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
        let report =
            rt.run_async(async |p, _| tsqr_rank_program(p, &layout, &tree, &cfg, seed, None).await);
        let outs: Vec<TsqrRankOutput> =
            report.ranks.iter().map(|r| r.result.clone().unwrap()).collect();
        let r = outs[0].r.clone().expect("rank 0 holds R");
        (r, outs, report)
    }

    #[test]
    fn pack_unpack_round_trip() {
        let r = Matrix::random_uniform(5, 5, 1).upper_triangular_padded();
        let packed = pack_upper(&r);
        assert_eq!(packed.len(), 15);
        assert!(unpack_upper(5, &packed).approx_eq(&r, 0.0));
    }

    #[test]
    fn r_matches_reference_all_tree_shapes() {
        let (m, n) = (256u64, 8);
        for shape in [TreeShape::Flat, TreeShape::Binary, TreeShape::GridHierarchical] {
            let rt = mini_grid(2, 4);
            let cfg = TsqrConfig { shape: shape.clone(), domains_per_cluster: 4, ..Default::default() };
            let (r, _, _) = run_tsqr(&rt, m, n, cfg, 21);
            assert!(is_upper_triangular(&r));
            assert!(
                r_distance(&r, &reference_r(21, m as usize, n)) < 1e-11,
                "R mismatch for {shape:?}"
            );
        }
    }

    #[test]
    fn r_matches_reference_with_grouped_domains() {
        // 2 clusters × 4 procs, 2 domains per cluster → groups of 2 running
        // the distributed ScaLAPACK-style leaf.
        let (m, n) = (320u64, 6);
        let rt = mini_grid(2, 4);
        for dpc in [1, 2] {
            let cfg = TsqrConfig {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: dpc,
                ..Default::default()
            };
            let (r, _, _) = run_tsqr(&rt, m, n, cfg, 23);
            assert!(
                r_distance(&r, &reference_r(23, m as usize, n)) < 1e-11,
                "R mismatch with {dpc} domains/cluster"
            );
        }
    }

    #[test]
    fn explicit_q_reconstructs_the_matrix() {
        let (m, n) = (192u64, 6);
        for shape in [TreeShape::Binary, TreeShape::GridHierarchical] {
            let rt = mini_grid(2, 4);
            let cfg = TsqrConfig {
                shape: shape.clone(),
                domains_per_cluster: 4,
                compute_q: true,
                ..Default::default()
            };
            let (r, outs, _) = run_tsqr(&rt, m, n, cfg, 29);
            // Assemble Q from the per-rank blocks, in row order.
            let mut blocks: Vec<(u64, Matrix)> = outs
                .iter()
                .map(|o| (o.row0, o.q_block.clone().expect("q requested")))
                .collect();
            blocks.sort_by_key(|(row0, _)| *row0);
            let refs: Vec<&Matrix> = blocks.iter().map(|(_, b)| b).collect();
            let q = Matrix::vstack_all(&refs);
            let a = workload::full_matrix(29, m as usize, n);
            assert!(orthogonality(&q) < 1e-12, "Q not orthogonal for {shape:?}");
            assert!(
                relative_residual(&a, &q, &r) < 1e-12,
                "A != QR for {shape:?}"
            );
        }
    }

    #[test]
    fn hierarchical_tree_sends_minimum_wan_messages() {
        let (m, n) = (512u64, 4);
        let clusters = 3;
        let rt = mini_grid(clusters, 4);
        let cfg = TsqrConfig {
            shape: TreeShape::GridHierarchical,
            domains_per_cluster: 4,
            ..Default::default()
        };
        let (_, _, report) = run_tsqr(&rt, m, n, cfg, 31);
        // Fig. 2: exactly clusters − 1 inter-cluster messages, whatever n.
        assert_eq!(report.totals.inter_cluster_msgs(), (clusters - 1) as u64);
    }

    #[test]
    fn symbolic_twin_matches_real_traffic_and_clocks() {
        let (m, n) = (256u64, 6);
        let rt = mini_grid(2, 4);
        for (dpc, compute_q) in [(4, false), (4, true), (2, false), (1, false)] {
            let cfg = TsqrConfig {
                shape: TreeShape::GridHierarchical,
                domains_per_cluster: dpc,
                compute_q,
                ..Default::default()
            };
            let layout = DomainLayout::build(rt.topology(), m, n, dpc);
            let tree =
                ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
            let real = rt.run_async(async |p, _| {
                tsqr_rank_program(p, &layout, &tree, &cfg, 37, None).await.map(|_| ())
            });
            let sym = rt.run_async(async |p, _| {
                tsqr_rank_program_symbolic(p, &layout, &tree, &cfg, None).await
            });
            for (rank, (a, b)) in real.ranks.iter().zip(&sym.ranks).enumerate() {
                assert_eq!(
                    a.stats.traffic, b.stats.traffic,
                    "traffic mismatch at rank {rank} (dpc={dpc}, q={compute_q})"
                );
                assert!(
                    (a.stats.clock.secs() - b.stats.clock.secs()).abs() < 1e-12,
                    "clock mismatch at rank {rank} (dpc={dpc}, q={compute_q})"
                );
            }
        }
    }

    #[test]
    fn tsqr_messages_match_table_one() {
        // Table I: TSQR sends log₂(P) messages (critical path) vs
        // ScaLAPACK's 2N·log₂(P). Total tree messages are P − 1.
        let (m, n) = (512u64, 8);
        let rt = mini_grid(1, 8);
        let cfg = TsqrConfig {
            shape: TreeShape::Binary,
            domains_per_cluster: 8,
            ..Default::default()
        };
        let (_, _, report) = run_tsqr(&rt, m, n, cfg, 41);
        assert_eq!(report.totals.total_msgs(), 7, "tree reduce = P − 1 messages");
        // Critical path: depth of the tree = log₂(8) = 3 sequential
        // combines at the root; the root receives 3 messages.
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 0, "root only receives");
        let max_sent = report.ranks.iter().map(|r| r.stats.traffic.total_msgs()).max();
        assert_eq!(max_sent, Some(1), "each non-root sends exactly once");
    }

    #[test]
    fn q_computation_roughly_doubles_time_property_one() {
        let (m, n) = (4096u64, 8);
        let rt = mini_grid(1, 4);
        let base = TsqrConfig {
            shape: TreeShape::Binary,
            domains_per_cluster: 4,
            ..Default::default()
        };
        let (_, _, rep_r) = run_tsqr(&rt, m, n, base.clone(), 43);
        let with_q = TsqrConfig { compute_q: true, ..base };
        let (_, _, rep_qr) = run_tsqr(&rt, m, n, with_q, 43);
        let ratio = rep_qr.makespan.secs() / rep_r.makespan.secs();
        assert!(
            (1.7..=2.3).contains(&ratio),
            "Property 1: Q+R should cost about twice R-only, got {ratio}"
        );
    }

    #[test]
    fn deterministic_makespan() {
        let rt = mini_grid(2, 2);
        let cfg = TsqrConfig { domains_per_cluster: 2, ..Default::default() };
        let layout = DomainLayout::build(rt.topology(), 128, 4, 2);
        let tree = ReductionTree::build(&cfg.shape, layout.num_domains(), &layout.clusters());
        let m1 = rt
            .run_async(async |p, _| {
                tsqr_rank_program(p, &layout, &tree, &cfg, 47, None).await.map(|_| ())
            })
            .makespan;
        let m2 = rt
            .run_async(async |p, _| {
                tsqr_rank_program(p, &layout, &tree, &cfg, 47, None).await.map(|_| ())
            })
            .makespan;
        assert_eq!(m1, m2);
    }
}
