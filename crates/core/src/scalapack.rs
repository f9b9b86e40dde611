//! The ScaLAPACK-style baseline: a distributed Householder panel
//! factorization (`PDGEQR2`) with the paper's communication pattern —
//! **two all-reduce operations per column** (§II-B).
//!
//! The matrix rows are block-distributed over the group; for every column
//! the group (1) all-reduces the column's squared norm to build the
//! reflector and (2) all-reduces the reflector-times-trailing-matrix
//! product to apply it. On `P` processes this costs `2N·log₂(P)` messages
//! and `log₂(P)·N²/2` words — the ScaLAPACK row of Table I — against
//! TSQR's `log₂(P)` messages.
//!
//! Two interchangeable implementations run the *same* communication
//! schedule:
//!
//! * [`pdgeqr2`] — numerically real (used by tests and small examples);
//! * [`pdgeqr2_symbolic`] — sends [`Phantom`] payloads of identical sizes
//!   and charges the same closed-form flops, so paper-scale sweeps run in
//!   milliseconds with identical virtual clocks and traffic counters.

use tsqr_gridmpi::message::Phantom;
use tsqr_gridmpi::{CommError, Communicator, Process};
use tsqr_linalg::blas::{gemm, trmm_upper_left};
use tsqr_linalg::flops;
use tsqr_linalg::qr::Trans;
use tsqr_linalg::Matrix;

/// Metrics/trace phase: per-column panel factorization (the two
/// all-reduces per column of §II-B).
pub const PHASE_PANEL: &str = "panel";
/// Metrics/trace phase: blocked trailing-matrix update of `pdgeqrf`.
pub const PHASE_UPDATE: &str = "trailing-update";

/// Result of a distributed panel factorization.
#[derive(Debug, Clone)]
pub struct Pdgeqr2Output {
    /// This rank's local block, overwritten with R (root's top rows) and
    /// the local parts of the Householder vectors.
    pub factored: Matrix,
    /// Reflector scaling factors (identical on every member).
    pub taus: Vec<f64>,
    /// The `n × n` R factor — `Some` on the group root only.
    pub r: Option<Matrix>,
}

/// Distributed Householder QR of a TS matrix block-row-distributed over
/// `group`.
///
/// `local` is this member's row block; the **group root (member 0) must
/// hold at least `n` rows** (it owns the pivot rows — always true in the
/// tall-and-skinny regime where `m/P ≫ n`). `rate_flops` is the per-process
/// sustained rate used to charge compute time (`None` = model default).
pub async fn pdgeqr2(
    p: &mut Process,
    group: &Communicator,
    mut local: Matrix,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output, CommError> {
    let n = local.cols();
    let me = group.my_index(p);
    let is_root = me == 0;
    assert!(
        !is_root || local.rows() >= n,
        "group root must hold at least n rows ({} < {n})",
        local.rows()
    );
    let mut taus = vec![0.0; n];
    p.phase_begin(PHASE_PANEL);
    panel_columns(p, group, &mut local, 0, n, n, &mut taus, rate_flops).await?;
    p.phase_end();
    let r = is_root.then(|| local.sub_matrix(0, 0, n, n).upper_triangular_padded());
    Ok(Pdgeqr2Output { factored: local, taus, r })
}

/// The per-column Householder loop shared by [`pdgeqr2`] (full sweep) and
/// [`pdgeqrf`] (panel sweep): factors columns `col0..col0+ncols` of the
/// distributed block, applying updates to columns up to `update_end`.
#[allow(clippy::too_many_arguments)]
async fn panel_columns(
    p: &mut Process,
    group: &Communicator,
    local: &mut Matrix,
    col0: usize,
    ncols: usize,
    update_end: usize,
    taus: &mut [f64],
    rate_flops: Option<f64>,
) -> Result<(), CommError> {
    let m_loc = local.rows();
    let is_root = group.my_index(p) == 0;
    for j in col0..col0 + ncols {
        // --- Reduction 1: column norm (and the pivot value α). ---
        let (alpha_local, ssq_local) = {
            let col = local.col(j);
            if is_root {
                let tail = &col[j + 1..];
                (col[j], tail.iter().map(|x| x * x).sum::<f64>())
            } else {
                (0.0, col.iter().map(|x| x * x).sum::<f64>())
            }
        };
        let reduced = group
            .allreduce(p, vec![alpha_local, ssq_local], |a, b| vec![a[0] + b[0], a[1] + b[1]])
            .await?;
        let (alpha, ssq) = (reduced[0], reduced[1]);

        // Everyone derives the same reflector parameters.
        let tau;
        if ssq == 0.0 {
            tau = 0.0;
        } else {
            let beta = if alpha >= 0.0 {
                -alpha.hypot(ssq.sqrt())
            } else {
                alpha.hypot(ssq.sqrt())
            };
            tau = (beta - alpha) / beta;
            let scale = 1.0 / (alpha - beta);
            // Scale the local part of v; the root also records β = R[j,j].
            if is_root {
                let col = local.col_mut(j);
                for x in &mut col[j + 1..] {
                    *x *= scale;
                }
                col[j] = beta;
            } else {
                for x in local.col_mut(j) {
                    *x *= scale;
                }
            }
        }
        taus[j] = tau;

        // --- Reduction 2: w = vᵀ·A_trailing, then the rank-1 update. ---
        let trailing = update_end - j - 1;
        if trailing > 0 && tau != 0.0 {
            let mut w_local = vec![0.0; trailing];
            for (t, w) in w_local.iter_mut().enumerate() {
                let k = j + 1 + t;
                let ck = local.col(k);
                let vj = local.col(j);
                *w = if is_root {
                    // Implicit 1 at row j, v entries below.
                    ck[j]
                        + vj[j + 1..]
                            .iter()
                            .zip(&ck[j + 1..])
                            .map(|(v, c)| v * c)
                            .sum::<f64>()
                } else {
                    vj.iter().zip(ck).map(|(v, c)| v * c).sum::<f64>()
                };
            }
            let w = group
                .allreduce(p, w_local, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
                .await?;
            for (t, &wk) in w.iter().enumerate() {
                let k = j + 1 + t;
                let tw = tau * wk;
                // Read v (column j) and update column k. Columns are
                // disjoint, but the borrow checker cannot see that through
                // two `col` calls, so copy v once per column pair.
                let vj: Vec<f64> = local.col(j).to_vec();
                let ck = local.col_mut(k);
                if is_root {
                    ck[j] -= tw;
                    for (c, v) in ck[j + 1..].iter_mut().zip(&vj[j + 1..]) {
                        *c -= tw * v;
                    }
                } else {
                    for (c, v) in ck.iter_mut().zip(&vj) {
                        *c -= tw * v;
                    }
                }
            }
        } else if trailing > 0 {
            // τ = 0 reflector: H = I, but the schedule still performs the
            // update reduction (ScaLAPACK does not branch on data).
            let _ = group
                .allreduce(p, vec![0.0; trailing], |a, b| {
                    a.iter().zip(&b).map(|(x, y)| x + y).collect()
                })
                .await?;
        }
        p.compute(
            flops::pdgeqr2_column(m_loc as u64, j as u64, group.size() as u64, trailing as u64),
            rate_flops,
        );
    }
    Ok(())
}

/// The symbolic twin of [`pdgeqr2`]: identical message schedule (payload
/// sizes included) and identical charged flops, no numerical data.
pub async fn pdgeqr2_symbolic(
    p: &mut Process,
    group: &Communicator,
    m_loc: u64,
    n: usize,
    rate_flops: Option<f64>,
) -> Result<(), CommError> {
    p.phase_begin(PHASE_PANEL);
    for j in 0..n {
        // Norm reduction: two f64 values (α and the squared norm).
        group.allreduce(p, Phantom { bytes: 16 }, |a, _| a).await?;
        let trailing = n - j - 1;
        if trailing > 0 {
            // Update reduction: the trailing dot products.
            group.allreduce(p, Phantom { bytes: 8 * trailing as u64 }, |a, _| a).await?;
        }
        p.compute(
            flops::pdgeqr2_column(m_loc, j as u64, group.size() as u64, trailing as u64),
            rate_flops,
        );
    }
    p.phase_end();
    Ok(())
}

/// The ScaLAPACK default panel width (§V-B: NB = 64).
pub const DEFAULT_NB: usize = 64;
/// The ScaLAPACK default blocking crossover (§II-B: "blocking is not to
/// be used if there is less than NX columns to be updated"; NX = 128).
pub const DEFAULT_NX: usize = 128;

/// Blocked distributed Householder QR — ScaLAPACK's `PDGEQRF` (§II-B).
///
/// Panels of `nb` columns are factored with the per-column loop of
/// [`pdgeqr2`] (updates confined to the panel), then the trailing matrix
/// is updated with the compact-WY block reflector: the `T` factor is
/// reconstructed on every rank from one all-reduced `ib × ib` Gram matrix
/// of the panel's reflectors, and the update needs one more all-reduce of
/// `Ṽᵀ·C`. Blocking turns the trailing update into Level-3 work at the
/// price of the extra `T` bookkeeping — the overhead §II-B says is "
/// negligible when there is a large number of columns to be updated but
/// significant when there are only a few", which is why ScaLAPACK (and
/// this routine) falls back to the unblocked sweep once fewer than `nx`
/// columns remain.
pub async fn pdgeqrf(
    p: &mut Process,
    group: &Communicator,
    mut local: Matrix,
    nb: usize,
    nx: usize,
    rate_flops: Option<f64>,
) -> Result<Pdgeqr2Output, CommError> {
    let n = local.cols();
    let m_loc = local.rows();
    let me = group.my_index(p);
    let is_root = me == 0;
    assert!(!is_root || m_loc >= n, "group root must hold at least n rows ({m_loc} < {n})");
    assert!(nb >= 1, "panel width must be positive");

    let mut taus = vec![0.0; n];
    let mut j = 0;
    while j < n {
        let remaining = n - j;
        // ScaLAPACK's NX crossover: unblocked once few columns remain.
        if remaining <= nx || nb == 1 {
            p.phase_begin(PHASE_PANEL);
            panel_columns(p, group, &mut local, j, remaining, n, &mut taus, rate_flops).await?;
            p.phase_end();
            break;
        }
        let ib = nb.min(remaining);
        // --- Panel factorization (updates confined to the panel). ---
        p.phase_begin(PHASE_PANEL);
        panel_columns(p, group, &mut local, j, ib, j + ib, &mut taus, rate_flops).await?;
        p.phase_end();

        // --- Blocked trailing update (nothing to do on the last panel). ---
        let trail = n - j - ib;
        if trail == 0 {
            break;
        }
        p.phase_begin(PHASE_UPDATE);
        // This rank's slice of the unit-lower-trapezoidal Ṽ: the root
        // holds rows j.., everyone else all rows.
        let row0 = if is_root { j } else { 0 };
        let m_act = m_loc - row0;
        let vloc = Matrix::from_fn(m_act, ib, |r, c| {
            let gr = row0 + r;
            if is_root {
                match gr.cmp(&(j + c)) {
                    std::cmp::Ordering::Less => 0.0,
                    std::cmp::Ordering::Equal => 1.0,
                    std::cmp::Ordering::Greater => local[(gr, j + c)],
                }
            } else {
                local[(gr, j + c)]
            }
        });
        // One all-reduce rebuilds the reflector Gram matrix everywhere,
        // from which T follows locally (the larft recurrence).
        let g_loc = vloc.t_matmul(&vloc);
        p.compute(flops::gemm(ib as u64, ib as u64, m_act as u64), rate_flops);
        let g_vec = group
            .allreduce(p, g_loc.into_vec(), |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
            .await?;
        let g = Matrix::from_col_major(ib, ib, g_vec).expect("gram shape");
        let mut t = Matrix::zeros(ib, ib);
        for c in 0..ib {
            let tau = taus[j + c];
            t[(c, c)] = tau;
            if tau == 0.0 {
                continue;
            }
            for r in 0..c {
                let mut s = 0.0;
                for l in r..c {
                    s += t[(r, l)] * g[(l, c)];
                }
                t[(r, c)] = -tau * s;
            }
        }
        // W = Ṽᵀ·C (one more all-reduce), then C -= Ṽ·(Tᵀ·W).
        let c_loc = local.sub_matrix(row0, j + ib, m_act, trail);
        let w_loc = vloc.t_matmul(&c_loc);
        p.compute(flops::gemm(ib as u64, trail as u64, m_act as u64), rate_flops);
        let w_vec = group
            .allreduce(p, w_loc.into_vec(), |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
            .await?;
        let mut w = Matrix::from_col_major(ib, trail, w_vec).expect("W shape");
        trmm_upper_left(Trans::Yes, &t.view(), &mut w.view_mut());
        let mut view = local.view_mut();
        let mut c_mut = view.sub_mut(row0, j + ib, m_act, trail);
        gemm(Trans::No, Trans::No, -1.0, &vloc.view(), &w.view(), 1.0, &mut c_mut);
        p.compute(flops::gemm(m_act as u64, trail as u64, ib as u64), rate_flops);
        p.phase_end();

        j += ib;
    }

    let r = is_root.then(|| local.sub_matrix(0, 0, n, n).upper_triangular_padded());
    Ok(Pdgeqr2Output { factored: local, taus, r })
}

/// The symbolic twin of [`pdgeqrf`]: identical message schedule and
/// charged flops.
pub async fn pdgeqrf_symbolic(
    p: &mut Process,
    group: &Communicator,
    m_loc: u64,
    n: usize,
    nb: usize,
    nx: usize,
    rate_flops: Option<f64>,
) -> Result<(), CommError> {
    let g = group.size() as u64;
    let mut j = 0;
    while j < n {
        let remaining = n - j;
        if remaining <= nx || nb == 1 {
            p.phase_begin(PHASE_PANEL);
            for jj in j..n {
                group.allreduce(p, Phantom { bytes: 16 }, |a, _| a).await?;
                let trailing = n - jj - 1;
                if trailing > 0 {
                    group.allreduce(p, Phantom { bytes: 8 * trailing as u64 }, |a, _| a).await?;
                }
                p.compute(flops::pdgeqr2_column(m_loc, jj as u64, g, trailing as u64), rate_flops);
            }
            p.phase_end();
            break;
        }
        let ib = nb.min(remaining);
        p.phase_begin(PHASE_PANEL);
        for jj in j..j + ib {
            group.allreduce(p, Phantom { bytes: 16 }, |a, _| a).await?;
            let trailing = j + ib - jj - 1;
            if trailing > 0 {
                group.allreduce(p, Phantom { bytes: 8 * trailing as u64 }, |a, _| a).await?;
            }
            p.compute(flops::pdgeqr2_column(m_loc, jj as u64, g, trailing as u64), rate_flops);
        }
        p.phase_end();
        let trail = (n - j - ib) as u64;
        if trail == 0 {
            break;
        }
        p.phase_begin(PHASE_UPDATE);
        let row0 = if group.my_index(p) == 0 { j as u64 } else { 0 };
        let m_act = m_loc - row0;
        p.compute(flops::gemm(ib as u64, ib as u64, m_act), rate_flops);
        group.allreduce(p, Phantom { bytes: 8 * (ib * ib) as u64 }, |a, _| a).await?;
        p.compute(flops::gemm(ib as u64, trail, m_act), rate_flops);
        group.allreduce(p, Phantom { bytes: 8 * ib as u64 * trail }, |a, _| a).await?;
        p.compute(flops::gemm(m_act, trail, ib as u64), rate_flops);
        p.phase_end();
        j += ib;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::even_chunks;
    use crate::workload;
    use tsqr_linalg::prelude::*;
    use tsqr_linalg::verify::{is_upper_triangular, r_distance};
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};
    use tsqr_gridmpi::Runtime;

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

    /// Reference R from a single-process blocked QR of the full matrix.
    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        let a = workload::full_matrix(seed, m, n);
        QrFactors::compute(&a, 32).r().upper_triangular_padded()
    }

    fn distributed_r(procs: usize, seed: u64, m: usize, n: usize) -> (Matrix, u64) {
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = workload::block(seed, row0, chunks[me] as usize, n);
            let out = pdgeqr2(p, world, local, None).await?;
            Ok((out.r, p.counters().total_msgs()))
        });
        let msgs = report.ranks[0].result.as_ref().unwrap().1;
        let (r, _) = report.ranks.into_iter().next().unwrap().result.unwrap();
        (r.expect("root holds R"), msgs)
    }

    #[test]
    fn matches_reference_qr_single_process() {
        let (m, n) = (50, 8);
        let (r, msgs) = distributed_r(1, 3, m, n);
        assert_eq!(msgs, 0, "single process must not communicate");
        assert!(r_distance(&r, &reference_r(3, m, n)) < 1e-12);
    }

    #[test]
    fn matches_reference_qr_multi_process() {
        for procs in [2, 3, 4, 8] {
            let (m, n) = (96, 10);
            let (r, _) = distributed_r(procs, 5, m, n);
            assert!(is_upper_triangular(&r));
            assert!(
                r_distance(&r, &reference_r(5, m, n)) < 1e-11,
                "R mismatch on {procs} processes"
            );
        }
    }

    #[test]
    fn message_count_matches_table_one() {
        // Table I: ScaLAPACK QR2 sends 2N·log₂(P) messages; our schedule
        // performs N norm reductions and N−1 update reductions, each
        // log₂(P) per-rank messages.
        let (procs, n) = (8, 6);
        let (_, msgs) = distributed_r(procs, 7, 128, n);
        let log_p = (procs as f64).log2() as u64;
        assert_eq!(msgs, (2 * n as u64 - 1) * log_p);
    }

    #[test]
    fn symbolic_twin_has_identical_traffic_and_clock() {
        let (procs, m, n) = (4, 64, 6);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let real = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = workload::block(11, row0, chunks[me] as usize, n);
            pdgeqr2(p, world, local, None).await?;
            Ok(())
        });
        let sym = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            pdgeqr2_symbolic(p, world, chunks[me], n, None).await
        });
        for (a, b) in real.ranks.iter().zip(&sym.ranks) {
            assert_eq!(a.stats.traffic, b.stats.traffic, "traffic must match");
            assert!(
                (a.stats.clock.secs() - b.stats.clock.secs()).abs() < 1e-12,
                "virtual clocks must match"
            );
        }
    }

    #[test]
    fn handles_rank_deficient_columns() {
        // A matrix whose second column equals its first: τ = 0 path.
        let (m, n, procs) = (40, 4, 4);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = Matrix::from_fn(chunks[me] as usize, n, |i, j| {
                let gi = row0 + i as u64;
                match j {
                    0 | 1 => workload::entry(13, gi, 0),
                    _ => workload::entry(13, gi, j as u64),
                }
            });
            let out = pdgeqr2(p, world, local, None).await?;
            Ok(out.r)
        });
        let r = report.ranks[0].result.clone().unwrap().unwrap();
        assert!(r[(1, 1)].abs() < 1e-12, "dependent column must zero R[1,1]");
        // With a rank deficiency the rows of R beyond it are determined by
        // roundoff, so R cannot be compared entry-wise against a reference.
        // The Gram identity RᵀR = AᵀA holds for *every* valid QR
        // factorization and is the right check here.
        let full = Matrix::from_fn(m, n, |i, j| match j {
            0 | 1 => workload::entry(13, i as u64, 0),
            _ => workload::entry(13, i as u64, j as u64),
        });
        let gram_a = full.t_matmul(&full);
        let gram_r = r.t_matmul(&r);
        let err = gram_r.sub_elem(&gram_a).norm_fro() / gram_a.norm_fro();
        assert!(err < 1e-12, "RᵀR must equal AᵀA, err = {err}");
    }

    #[test]
    fn pdgeqrf_matches_reference_both_paths() {
        // nx >= n exercises the pure-unblocked crossover path; small nx
        // the blocked path; both must agree with the reference QR.
        let (m, n) = (128usize, 12usize);
        for procs in [1usize, 2, 4] {
            for (nb, nx) in [(4, 0), (4, 100), (3, 5), (12, 0), (1, 0)] {
                let rt = runtime(procs);
                let chunks = even_chunks(m as u64, procs);
                let report = rt.run_async(async |p, world| {
                    let me = world.my_index(p);
                    let row0: u64 = chunks[..me].iter().sum();
                    let local = workload::block(23, row0, chunks[me] as usize, n);
                    let out = pdgeqrf(p, world, local, nb, nx, None).await?;
                    Ok(out.r)
                });
                let r = report.ranks[0].result.clone().unwrap().unwrap();
                assert!(
                    r_distance(&r, &reference_r(23, m, n)) < 1e-10,
                    "procs={procs} nb={nb} nx={nx}"
                );
            }
        }
    }

    #[test]
    fn pdgeqrf_with_huge_nx_equals_pdgeqr2() {
        // With nx >= n the blocked driver is exactly the unblocked sweep.
        let (m, n, procs) = (96usize, 8usize, 4usize);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            let row0: u64 = chunks[..me].iter().sum();
            let local = workload::block(29, row0, chunks[me] as usize, n);
            let qrf = pdgeqrf(p, world, local.clone(), 4, n, None).await?;
            let qr2 = pdgeqr2(p, world, local, None).await?;
            Ok((qrf.factored, qr2.factored, qrf.taus, qr2.taus))
        });
        for r in &report.ranks {
            let (f1, f2, t1, t2) = r.result.clone().unwrap();
            assert!(f1.approx_eq(&f2, 1e-12));
            for (a, b) in t1.iter().zip(&t2) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn pdgeqrf_symbolic_twin_matches() {
        let (m, n, procs) = (96usize, 10usize, 4usize);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        for (nb, nx) in [(3, 4), (4, 0), (10, 0)] {
            let real = rt.run_async(async |p, world| {
                let me = world.my_index(p);
                let row0: u64 = chunks[..me].iter().sum();
                let local = workload::block(31, row0, chunks[me] as usize, n);
                pdgeqrf(p, world, local, nb, nx, None).await?;
                Ok(())
            });
            let sym = rt.run_async(async |p, world| {
                let me = world.my_index(p);
                pdgeqrf_symbolic(p, world, chunks[me], n, nb, nx, None).await
            });
            for (rank, (a, b)) in real.ranks.iter().zip(&sym.ranks).enumerate() {
                assert_eq!(
                    a.stats.traffic, b.stats.traffic,
                    "traffic mismatch rank {rank} nb={nb} nx={nx}"
                );
                assert!(
                    (a.stats.clock.secs() - b.stats.clock.secs()).abs() < 1e-12,
                    "clock mismatch rank {rank} nb={nb} nx={nx}"
                );
            }
        }
    }

    #[test]
    fn blocking_reduces_latency_messages_for_wide_panels() {
        // Per column, QR2 pays two full-width reductions; QRF confines the
        // per-column reductions to the panel and adds two per panel. For
        // wide trailing matrices the *volume* shifts into two big
        // all-reduces while message counts stay comparable.
        let (m, n, procs) = (256usize, 32usize, 4usize);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let msgs = |blocked: bool| {
            let report = rt.run_async(async |p, world| {
                let me = world.my_index(p);
                if blocked {
                    pdgeqrf_symbolic(p, world, chunks[me], n, 8, 0, None).await?;
                } else {
                    pdgeqr2_symbolic(p, world, chunks[me], n, None).await?;
                }
                Ok(p.counters().total_msgs())
            });
            report.ranks[0].result.clone().unwrap()
        };
        let (m_qr2, m_qrf) = (msgs(false), msgs(true));
        // 2 extra per panel (G and W), one fewer per column inside panels.
        assert!(
            (m_qrf as f64) < 1.2 * m_qr2 as f64,
            "blocked messages {m_qrf} should be comparable to unblocked {m_qr2}"
        );
    }

    #[test]
    fn flops_charged_match_closed_form() {
        let (procs, m, n) = (2, 64, 8);
        let rt = runtime(procs);
        let chunks = even_chunks(m as u64, procs);
        let report = rt.run_async(async |p, world| {
            let me = world.my_index(p);
            let local = workload::block(17, 0, chunks[me] as usize, n);
            pdgeqr2(p, world, local, None).await?;
            Ok(p.counters().flops)
        });
        let per_rank = flops::pdgeqr2_local(32, n as u64, procs as u64);
        for r in &report.ranks {
            assert_eq!(*r.result.as_ref().unwrap(), per_rank);
        }
    }
}
