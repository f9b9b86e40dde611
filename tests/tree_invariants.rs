//! Property-based tests of the generalized reduction trees (the
//! autotuner's search space): every generated or custom tree must yield
//! a valid communication schedule, and running TSQR over *any* tree must
//! produce the same R factor as the flat reference.
//!
//! Two equality regimes, deliberately distinct:
//!
//! - **Bitwise**: re-encoding a built-in shape as
//!   `TreeShape::Custom(tree.parents())` reproduces the *identical*
//!   schedule, so the arithmetic is the same operations in the same
//!   order and R matches bit for bit. This is what makes `Custom` a
//!   faithful interchange format for the autotuner's greedy-cost trees.
//! - **Sign-normalized tolerance**: across *different* trees the combine
//!   order differs, so floating-point rounding differs in the last bits
//!   and the row signs of R (which QR leaves free) can flip. Exact
//!   bitwise equality across arbitrary trees is unattainable in floating
//!   point; the invariant that *is* true — and that Demmel et al.'s
//!   any-tree theorem promises — is equality up to sign normalization
//!   at factorization accuracy, which `r_distance` measures.

use proptest::prelude::*;

use grid_tsqr::core::domains::DomainLayout;
use grid_tsqr::core::tree::{ReductionTree, Step, TreeShape};
use grid_tsqr::core::tsqr::{tsqr_rank_program, TsqrConfig};
use grid_tsqr::gridmpi::Runtime;
use grid_tsqr::linalg::verify::r_distance;
use grid_tsqr::linalg::Matrix;
use grid_tsqr::netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

/// Deterministic splittable generator for structural randomness (tree
/// shapes derived from a proptest-supplied seed).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random *heap-ordered* parent vector: every parent index is below
/// its child (`parents[i] ∈ 0..i`), the class every built-in generator
/// produces and the one the self-healing TSQR requires.
fn random_heap_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
    (0..n)
        .map(|i| if i == 0 { None } else { Some((mix(seed, i as u64) as usize) % i) })
        .collect()
}

/// A uniformly scrambled tree rooted at 0 with *no* heap ordering:
/// nodes attach in a random order to a random already-attached node, so
/// parents frequently carry higher indices than their children.
fn random_scrambled_parents(n: usize, seed: u64) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (1..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(seed, 1000 + i as u64) as usize) % (i + 1));
    }
    let mut parents = vec![None; n];
    let mut attached = vec![0usize];
    for (step, &v) in order.iter().enumerate() {
        let p = attached[(mix(seed, 2000 + step as u64) as usize) % attached.len()];
        parents[v] = Some(p);
        attached.push(v);
    }
    parents
}

/// Replays a schedule through per-participant mailboxes; returns true if
/// every value reaches the root (i.e. the schedule is complete and
/// acyclic — a cyclic or dropped dependency would leave mail undelivered).
fn reduces_to_root(tree: &ReductionTree) -> bool {
    let n = tree.len();
    let mut holding: Vec<u64> = (0..n as u64).map(|i| 1 << i.min(62)).collect();
    let mut done = vec![false; n];
    let mut progressed = true;
    let mut cursor = vec![0usize; n];
    let mut inbox: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    while progressed {
        progressed = false;
        for p in 0..n {
            while cursor[p] < tree.steps[p].len() {
                match tree.steps[p][cursor[p]] {
                    Step::Recv(from) => {
                        if let Some(pos) = inbox[p].iter().position(|(s, _)| *s == from) {
                            let (_, v) = inbox[p].remove(pos);
                            holding[p] |= v;
                            cursor[p] += 1;
                            progressed = true;
                        } else {
                            break;
                        }
                    }
                    Step::Send(to) => {
                        inbox[to].push((p, holding[p]));
                        cursor[p] += 1;
                        progressed = true;
                    }
                }
            }
            if cursor[p] == tree.steps[p].len() {
                done[p] = true;
            }
        }
    }
    done.iter().all(|d| *d) && holding[0] == (0..n as u64).fold(0, |a, i| a | (1 << i.min(62)))
}

/// Structural validity of one schedule: root never sends, every other
/// participant sends exactly once and only after all of its receives.
fn assert_valid_schedule(tree: &ReductionTree) -> Result<(), String> {
    for (i, steps) in tree.steps.iter().enumerate() {
        let sends = steps.iter().filter(|s| matches!(s, Step::Send(_))).count();
        if i == 0 {
            if sends != 0 {
                return Err(format!("root sends ({sends} times)"));
            }
        } else {
            if sends != 1 {
                return Err(format!("participant {i} sends {sends} times"));
            }
            if !matches!(steps.last(), Some(Step::Send(_))) {
                return Err(format!("participant {i}: Send is not the final step"));
            }
        }
    }
    if !reduces_to_root(tree) {
        return Err("schedule does not deliver every contribution to the root".into());
    }
    Ok(())
}

fn small_grid(clusters: usize, procs: usize) -> Runtime {
    let specs = (0..clusters)
        .map(|i| ClusterSpec {
            name: format!("c{i}"),
            nodes: procs,
            procs_per_node: 1,
            peak_gflops_per_proc: 8.0,
        })
        .collect();
    let topo = GridTopology::block_placement(specs, procs, 1);
    let model = CostModel::homogeneous(LinkParams::from_ms_mbps(0.07, 890.0), 1e9, clusters);
    Runtime::new(topo, model)
}

/// Runs real-numerics TSQR over an explicit tree and returns rank 0's R.
fn r_under_tree(rt: &Runtime, layout: &DomainLayout, shape: &TreeShape, seed: u64) -> Matrix {
    let tree = ReductionTree::build(shape, layout.num_domains(), &layout.clusters());
    let cfg = TsqrConfig {
        shape: shape.clone(),
        domains_per_cluster: layout.num_domains() / rt.topology().num_clusters(),
        ..Default::default()
    };
    let report =
        rt.run_async(async |p, _| tsqr_rank_program(p, layout, &tree, &cfg, seed, None).await);
    report.ranks[0].result.as_ref().unwrap().r.clone().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated family and every random custom tree (heap-ordered
    /// or scrambled) yields a structurally valid schedule for arbitrary
    /// participant counts and cluster maps.
    #[test]
    fn any_tree_yields_a_valid_schedule(
        n in 1usize..48,
        clusters in 1usize..5,
        k in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let cluster_of: Vec<usize> = (0..n).map(|i| i * clusters.min(n) / n).collect();
        let mut shapes = vec![
            TreeShape::Flat,
            TreeShape::Binary,
            TreeShape::GridHierarchical,
            TreeShape::Kary(k),
            TreeShape::Binomial,
            TreeShape::Greedy,
            TreeShape::Custom(random_heap_parents(n, seed)),
        ];
        if n > 1 {
            shapes.push(TreeShape::Custom(random_scrambled_parents(n, seed)));
        }
        for shape in shapes {
            let tree = ReductionTree::build(&shape, n, &cluster_of);
            prop_assert_eq!(tree.len(), n);
            prop_assert_eq!(tree.total_messages(), n - 1);
            if let Err(why) = assert_valid_schedule(&tree) {
                prop_assert!(false, "{shape:?} n={n}: {why}");
            }
        }
    }

    /// Re-encoding any built-in or generated shape as
    /// `Custom(tree.parents())` reproduces the exact schedule, so the
    /// distributed R is *bitwise* identical — Custom is a lossless
    /// interchange format for tuned trees.
    #[test]
    fn custom_round_trip_r_is_bitwise_identical(
        clusters in 1usize..4,
        procs_pow in 1u32..4,
        shape_ix in 0u8..5,
        n in 2usize..8,
        seed in 0u64..1_000_000,
    ) {
        let procs = 1usize << procs_pow;
        let shape = match shape_ix {
            0 => TreeShape::Flat,
            1 => TreeShape::Binary,
            2 => TreeShape::GridHierarchical,
            3 => TreeShape::Kary(3),
            _ => TreeShape::Binomial,
        };
        let rt = small_grid(clusters, procs);
        let m = (clusters * procs * n) as u64 * 3;
        let layout = DomainLayout::build(rt.topology(), m, n, procs);
        let tree = ReductionTree::build(&shape, layout.num_domains(), &layout.clusters());
        let encoded = TreeShape::Custom(tree.parents());
        let round_trip = ReductionTree::build(&encoded, layout.num_domains(), &layout.clusters());
        prop_assert_eq!(&tree, &round_trip, "{:?}: schedules differ", &shape);
        let a = r_under_tree(&rt, &layout, &shape, seed);
        let b = r_under_tree(&rt, &layout, &encoded, seed);
        let bitwise = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits());
        prop_assert!(bitwise, "{:?}: R differs from its Custom re-encoding", &shape);
    }

    /// TSQR over an arbitrary random tree — heap-ordered or scrambled —
    /// agrees with the flat-tree R to factorization accuracy (up to the
    /// row signs QR leaves free; see the module docs for why bitwise
    /// equality across *different* trees is not a meaningful target).
    #[test]
    fn arbitrary_random_tree_matches_flat_r(
        clusters in 1usize..4,
        procs_pow in 1u32..4,
        n in 2usize..8,
        scrambled in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let procs = 1usize << procs_pow;
        let rt = small_grid(clusters, procs);
        let m = (clusters * procs * n) as u64 * 3;
        let layout = DomainLayout::build(rt.topology(), m, n, procs);
        let d = layout.num_domains();
        let parents = if scrambled && d > 1 {
            random_scrambled_parents(d, seed)
        } else {
            random_heap_parents(d, seed)
        };
        let flat = r_under_tree(&rt, &layout, &TreeShape::Flat, seed);
        let random = r_under_tree(&rt, &layout, &TreeShape::Custom(parents), seed);
        let dist = r_distance(&random, &flat);
        prop_assert!(dist < 1e-10, "random tree R drifted from flat R: {dist:.3e}");
    }
}
