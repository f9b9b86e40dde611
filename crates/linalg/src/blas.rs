//! BLAS-like kernels on column-major views.
//!
//! Levels 1 and 2 are straightforward loops; the level-3 `gemm` is written
//! in the cache-friendly `(j, l, i)` loop order for column-major data and
//! splits `C` into column strips of at most 256 columns once the work is
//! large enough (see [`PAR_THRESHOLD_FLOPS`]). The strips run one after
//! another on the calling thread.

use crate::qr::Trans;
use crate::view::{View, ViewMut};

/// Work (in flops) below which `gemm` computes `C` as a single strip.
///
/// At or above it, `C` is cut into column strips of at most 256 columns,
/// the unit a parallel gemm would hand to each thread; a 64³ gemm is
/// ~0.5 Mflop.
pub const PAR_THRESHOLD_FLOPS: usize = 1 << 19;

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm, scaled to avoid overflow/underflow (LAPACK `dnrm2` style).
pub fn nrm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut s = 0.0;
    for &v in x {
        let t = v / amax;
        s += t * t;
    }
    amax * s.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// Dimensions of `op(A)` for a given transpose flag.
fn op_shape(t: Trans, a: &View<'_>) -> (usize, usize) {
    match t {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    }
}

/// General matrix multiply: `C := alpha * op(A) * op(B) + beta * C`.
///
/// Works through column strips of `C` when the flop count exceeds
/// [`PAR_THRESHOLD_FLOPS`]; results are bit-identical to the single-strip
/// path because each output column is computed by exactly one strip in the
/// same accumulation order.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    beta: f64,
    c: &mut ViewMut<'_>,
) {
    let (m, ka) = op_shape(ta, a);
    let (kb, n) = op_shape(tb, b);
    assert_eq!(ka, kb, "gemm inner dimension mismatch ({ka} vs {kb})");
    assert_eq!(
        (c.rows(), c.cols()),
        (m, n),
        "gemm output shape mismatch: got {}x{}, want {m}x{n}",
        c.rows(),
        c.cols()
    );
    let k = ka;
    let flops = 2 * m * n * k;

    if flops >= PAR_THRESHOLD_FLOPS && n > 1 && m > 0 {
        // Split C into column strips; each strip writes only its own
        // columns. Chunking the storage at multiples of `ld` aligns every
        // chunk to a column boundary, so the strips are disjoint windows.
        let ld = c.ld();
        let rows = c.rows();
        let strip = n.min(256);
        let total = (n - 1) * ld + rows;
        let data = &mut c.raw_mut()[..total];
        for (chunk_idx, chunk) in data.chunks_mut(strip * ld).enumerate() {
            let j0 = chunk_idx * strip;
            let ncols = (n - j0).min(strip);
            let mut cc = ViewMut::from_raw(chunk, rows, ncols, ld);
            gemm_seq(ta, tb, alpha, a, b, beta, &mut cc, j0);
        }
    } else {
        gemm_seq(ta, tb, alpha, a, b, beta, c, 0);
    }
}

/// Cache-block sizes for the packed `gemm` path: an `MC × KC` panel of A
/// (512 KiB) is packed contiguously and reused across every column of the
/// C strip, so A traffic drops from `n` passes to `n/strip` passes.
const MC: usize = 256;
/// K-dimension block (see [`MC`]).
const KC: usize = 256;

/// Sequential gemm onto a column strip of C starting at global column `j0`.
#[allow(clippy::too_many_arguments)]
fn gemm_seq(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &View<'_>,
    b: &View<'_>,
    beta: f64,
    c: &mut ViewMut<'_>,
    j0: usize,
) {
    let (m, k) = op_shape(ta, a);
    let n = c.cols();
    // The hot no-transpose case goes through the packed cache-blocked
    // kernel once the A panel stops fitting comfortably in L2. The
    // accumulation order per output element is identical (k ascending),
    // so results are bit-identical to the simple path.
    if ta == Trans::No && tb == Trans::No && m * k > MC * KC && n > 1 {
        for jl in 0..n {
            scal(beta, &mut c.col_mut(jl)[..m]);
        }
        gemm_nn_packed(alpha, a, b, c, j0);
        return;
    }
    for jl in 0..n {
        let j = j0 + jl;
        let cj = c.col_mut(jl);
        scal(beta, &mut cj[..m]);
        match (ta, tb) {
            (Trans::No, Trans::No) => {
                // C_j += alpha * A * B_j  — axpy per inner index, unit stride.
                let bj = b.col(j);
                for l in 0..k {
                    axpy(alpha * bj[l], a.col(l), &mut cj[..m]);
                }
            }
            (Trans::Yes, Trans::No) => {
                // C_j[i] = alpha * dot(A_i, B_j)
                let bj = b.col(j);
                for i in 0..m {
                    cj[i] += alpha * dot(a.col(i), &bj[..k]);
                }
            }
            (Trans::No, Trans::Yes) => {
                // B^T: element (l, j) of op(B) is B[j, l].
                for l in 0..k {
                    axpy(alpha * b.get(j, l), a.col(l), &mut cj[..m]);
                }
            }
            (Trans::Yes, Trans::Yes) => {
                for i in 0..m {
                    let ai = a.col(i);
                    let mut s = 0.0;
                    for l in 0..k {
                        s += ai[l] * b.get(j, l);
                    }
                    cj[i] += alpha * s;
                }
            }
        }
    }
}

/// Packed cache-blocked `C += alpha·A·B` (both operands as stored).
///
/// Classic three-loop blocking: for each `KC × MC` panel of A, pack it
/// into a contiguous buffer once and stream every column of the C strip
/// against it. Per output element the contributions still arrive in
/// ascending `k` order, so the result is bit-identical to the naive loop.
fn gemm_nn_packed(alpha: f64, a: &View<'_>, b: &View<'_>, c: &mut ViewMut<'_>, j0: usize) {
    let m = a.rows();
    let k = a.cols();
    let n = c.cols();
    let mut pack = vec![0.0f64; MC * KC];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let mut ic = 0;
        while ic < m {
            let mc = MC.min(m - ic);
            // Pack A[ic..ic+mc, pc..pc+kc] column-major contiguous.
            for l in 0..kc {
                let src = &a.col(pc + l)[ic..ic + mc];
                pack[l * mc..(l + 1) * mc].copy_from_slice(src);
            }
            for jl in 0..n {
                let bj = b.col(j0 + jl);
                let cj = &mut c.col_mut(jl)[ic..ic + mc];
                for l in 0..kc {
                    let w = alpha * bj[pc + l];
                    if w != 0.0 {
                        axpy(w, &pack[l * mc..(l + 1) * mc], cj);
                    }
                }
            }
            ic += mc;
        }
        pc += kc;
    }
}

/// In-place triangular multiply `B := op(T) * B` with `T` upper triangular.
///
/// `T` is `k × k`, `B` is `k × n`. Used by the compact-WY update where `T`
/// is the small per-panel triangular factor, so no blocking is needed.
pub fn trmm_upper_left(trans: Trans, t: &View<'_>, b: &mut ViewMut<'_>) {
    let k = t.rows();
    assert_eq!(t.cols(), k, "trmm: T must be square");
    assert_eq!(b.rows(), k, "trmm: B row count must match T");
    for j in 0..b.cols() {
        let bj = b.col_mut(j);
        match trans {
            Trans::No => {
                // b_i := sum_{l >= i} T[i,l] * b_l  (forward, overwrite down)
                for i in 0..k {
                    let mut s = 0.0;
                    for l in i..k {
                        s += t.get(i, l) * bj[l];
                    }
                    bj[i] = s;
                }
            }
            Trans::Yes => {
                // b_i := sum_{l <= i} T[l,i] * b_l (backward, overwrite up)
                for i in (0..k).rev() {
                    let mut s = 0.0;
                    for l in 0..=i {
                        s += t.get(l, i) * bj[l];
                    }
                    bj[i] = s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive_gemm(ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
        let ao = match ta {
            Trans::No => a.clone(),
            Trans::Yes => a.transpose(),
        };
        let bo = match tb {
            Trans::No => b.clone(),
            Trans::Yes => b.transpose(),
        };
        let (m, k) = ao.shape();
        let n = bo.cols();
        Matrix::from_fn(m, n, |i, j| (0..k).map(|l| ao[(i, l)] * bo[(l, j)]).sum())
    }

    #[test]
    fn dot_axpy_scal() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [6.0, 9.0, 12.0]);
        scal(0.5, &mut y);
        assert_eq!(y, [3.0, 4.5, 6.0]);
    }

    #[test]
    fn nrm2_is_robust_to_scale() {
        let big = [3.0e150, 4.0e150];
        assert!((nrm2(&big) - 5.0e150).abs() / 5.0e150 < 1e-14);
        let small = [3.0e-200, 4.0e-200];
        assert!((nrm2(&small) - 5.0e-200).abs() / 5.0e-200 < 1e-14);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gemm_matches_naive_all_transposes() {
        let a = Matrix::random_uniform(7, 5, 1);
        let b57 = Matrix::random_uniform(5, 6, 2);
        let b75 = Matrix::random_uniform(6, 5, 3);
        let a57 = Matrix::random_uniform(5, 7, 4);
        for (ta, tb, aa, bb) in [
            (Trans::No, Trans::No, &a, &b57),
            (Trans::No, Trans::Yes, &a, &b75),
            (Trans::Yes, Trans::No, &a57, &b57),
            (Trans::Yes, Trans::Yes, &a57, &b75),
        ] {
            let (m, _) = op_shape(ta, &aa.view());
            let (_, n) = op_shape(tb, &bb.view());
            let mut c = Matrix::zeros(m, n);
            gemm(ta, tb, 1.0, &aa.view(), &bb.view(), 0.0, &mut c.view_mut());
            let want = naive_gemm(ta, tb, aa, bb);
            assert!(c.approx_eq(&want, 1e-12), "mismatch for ({ta:?},{tb:?})");
        }
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::random_uniform(4, 3, 5);
        let b = Matrix::random_uniform(3, 4, 6);
        let c0 = Matrix::random_uniform(4, 4, 7);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 2.0, &a.view(), &b.view(), 0.5, &mut c.view_mut());
        let want = Matrix::from_fn(4, 4, |i, j| {
            0.5 * c0[(i, j)] + 2.0 * (0..3).map(|l| a[(i, l)] * b[(l, j)]).sum::<f64>()
        });
        assert!(c.approx_eq(&want, 1e-12));
    }

    #[test]
    fn packed_path_is_bit_identical_to_simple_path() {
        // Large enough to trigger the packed kernel (m*k > MC*KC).
        let (m, k, n) = (300, 300, 8);
        let a = Matrix::random_uniform(m, k, 31);
        let b = Matrix::random_uniform(k, n, 32);
        let c0 = Matrix::random_uniform(m, n, 33);
        let mut c_packed = c0.clone();
        gemm_seq(Trans::No, Trans::No, 1.5, &a.view(), &b.view(), 0.5, &mut c_packed.view_mut(), 0);
        // Simple path, forced: one column at a time (n = 1 never packs).
        let mut c_simple = c0.clone();
        for j in 0..n {
            let mut col = c_simple.sub_matrix(0, j, m, 1);
            gemm_seq(Trans::No, Trans::No, 1.5, &a.view(), &b.sub(0, j, k, 1), 0.5, &mut col.view_mut(), 0);
            c_simple.set_sub(0, j, &col);
        }
        assert!(c_packed.approx_eq(&c_simple, 0.0), "must be bit-identical");
    }

    #[test]
    fn packed_path_handles_ragged_blocks() {
        // Dimensions straddling the MC/KC boundaries.
        for (m, k) in [(257, 511), (512, 257), (300, 300)] {
            let a = Matrix::random_uniform(m, k, 41);
            let b = Matrix::random_uniform(k, 3, 42);
            let mut c = Matrix::zeros(m, 3);
            gemm(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut());
            let want = naive_gemm(Trans::No, Trans::No, &a, &b);
            assert!(c.approx_eq(&want, 1e-10), "m={m} k={k}");
        }
    }

    #[test]
    fn gemm_parallel_path_matches_sequential() {
        // Large enough to cross PAR_THRESHOLD_FLOPS.
        let m = 96;
        let a = Matrix::random_uniform(m, m, 11);
        let b = Matrix::random_uniform(m, m, 12);
        let mut c_par = Matrix::zeros(m, m);
        gemm(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c_par.view_mut());
        let mut c_seq = Matrix::zeros(m, m);
        gemm_seq(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c_seq.view_mut(), 0);
        assert!(c_par.approx_eq(&c_seq, 0.0), "parallel gemm must be bit-identical");
    }

    #[test]
    fn gemm_on_subviews() {
        let big = Matrix::random_uniform(10, 10, 13);
        let a = big.sub(1, 1, 4, 3);
        let b = big.sub(2, 4, 3, 5);
        let mut c = Matrix::zeros(4, 5);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c.view_mut());
        let want = naive_gemm(Trans::No, Trans::No, &a.to_matrix(), &b.to_matrix());
        assert!(c.approx_eq(&want, 1e-13));
    }

    #[test]
    fn trmm_upper_both_transposes() {
        let t = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![0.0, 4.0, 5.0], vec![0.0, 0.0, 6.0]])
            .unwrap();
        let b0 = Matrix::random_uniform(3, 4, 21);
        // T * B
        let mut b = b0.clone();
        trmm_upper_left(Trans::No, &t.view(), &mut b.view_mut());
        let want = t.upper_triangular().matmul(&b0);
        assert!(b.approx_eq(&want, 1e-13));
        // T^T * B
        let mut b = b0.clone();
        trmm_upper_left(Trans::Yes, &t.view(), &mut b.view_mut());
        let want = t.upper_triangular().transpose().matmul(&b0);
        assert!(b.approx_eq(&want, 1e-13));
    }

    #[test]
    #[should_panic(expected = "gemm inner dimension mismatch")]
    fn gemm_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(Trans::No, Trans::No, 1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut());
    }
}
