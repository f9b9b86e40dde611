//! Householder QR factorization: unblocked (`geqr2`), blocked compact-WY
//! (`geqrf` via `larft`/`larfb`), explicit-Q (`org2r`) and implicit-Q
//! application (`orm2r`).
//!
//! These mirror the LAPACK routines of the same names: the factored matrix
//! holds `R` in its upper triangle and the Householder vectors `V` (unit
//! lower trapezoidal, leading 1s implicit) below the diagonal, with the
//! scaling factors in `tau`. The blocked path is what a ScaLAPACK `PDGEQRF`
//! domain call runs locally; the unblocked path is the `PDGEQR2` panel
//! kernel the paper analyses.

use crate::blas::{axpy, dot, trmm_upper_left};
use crate::householder::{larf_left, larfg};
use crate::matrix::Matrix;
use crate::view::{View, ViewMut};

/// Transpose flag for BLAS-like kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Which side an implicit Q is applied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `C := op(Q)·C`
    Left,
    /// `C := C·op(Q)`
    Right,
}

/// Default panel width for the blocked factorization — matches the
/// ScaLAPACK default `NB = 64` the paper uses (§V-B).
pub const DEFAULT_NB: usize = 64;

/// Unblocked Householder QR of the window `a` (LAPACK `dgeqr2`).
///
/// On exit the upper triangle holds `R`, the strict lower part holds the
/// reflector tails, and `tau[j]` the scaling factors. `tau` must have length
/// `min(rows, cols)`.
pub fn geqr2(a: &mut ViewMut<'_>, tau: &mut [f64]) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqr2: tau too short ({} < {k})", tau.len());
    let mut vbuf = vec![0.0; m];
    let mut work = vec![0.0; n];
    for j in 0..k {
        // Generate the reflector for column j, rows j..m.
        let refl = {
            let col = a.col_mut(j);
            larfg(&mut col[j..m])
        };
        tau[j] = refl.tau;
        // Stash v_tail, then set the diagonal to beta.
        let vlen = m - j - 1;
        vbuf[..vlen].copy_from_slice(&a.col(j)[j + 1..m]);
        a.set(j, j, refl.beta);
        // Apply H_j to the trailing columns.
        if j + 1 < n {
            let mut trail = a.sub_mut(j, j + 1, m - j, n - j - 1);
            larf_left(refl.tau, &vbuf[..vlen], &mut trail, &mut work);
        }
    }
}

/// Forms the upper-triangular block reflector factor `T` (LAPACK `dlarft`,
/// forward/columnwise) such that `H₁·H₂⋯H_k = I − V·T·Vᵀ`.
///
/// `v` is the factored panel (only its unit-lower-trapezoidal part is read).
pub fn larft(v: &View<'_>, tau: &[f64]) -> Matrix {
    let m = v.rows();
    let k = v.cols();
    assert!(tau.len() >= k, "larft: tau too short");
    let mut t = Matrix::zeros(k, k);
    let mut w = vec![0.0; k];
    for j in 0..k {
        let tj = tau[j];
        t[(j, j)] = tj;
        if tj == 0.0 || j == 0 {
            continue;
        }
        // w[i] = V(:,i)ᵀ v_j for i < j, with v_j = [0…0, 1, V(j+1..m, j)].
        let vj = v.col(j);
        for (i, wi) in w.iter_mut().enumerate().take(j) {
            let vi = v.col(i);
            *wi = vi[j] + dot(&vi[j + 1..m], &vj[j + 1..m]);
        }
        // T(0..j, j) = −τ_j · T(0..j,0..j) · w
        for i in 0..j {
            let mut s = 0.0;
            for l in i..j {
                s += t[(i, l)] * w[l];
            }
            t[(i, j)] = -tj * s;
        }
    }
    t
}

/// Applies the block reflector `Q = I − V·T·Vᵀ` (or `Qᵀ`) from the left to
/// `c` (LAPACK `dlarfb`, side = left, forward/columnwise).
///
/// `v` is `m × k` unit lower trapezoidal (upper part ignored), `t` the `k × k`
/// triangular factor from [`larft`]. `trans = Yes` applies `Qᵀ`.
pub fn larfb_left(trans: Trans, v: &View<'_>, t: &View<'_>, c: &mut ViewMut<'_>) {
    let m = c.rows();
    let n = c.cols();
    let k = v.cols();
    assert_eq!(v.rows(), m, "larfb: V/C row mismatch");
    assert_eq!((t.rows(), t.cols()), (k, k), "larfb: T shape mismatch");
    if k == 0 || n == 0 {
        return;
    }
    // W = Ṽᵀ·C   (k × n), Ṽ = V with unit diagonal, zero upper part.
    let mut w = Matrix::zeros(k, n);
    for j in 0..n {
        let cj = c.col(j);
        for i in 0..k {
            let vi = v.col(i);
            w[(i, j)] = cj[i] + dot(&vi[i + 1..m], &cj[i + 1..m]);
        }
    }
    // W := op(T)·W, with op = Tᵀ for Qᵀ and T for Q.
    trmm_upper_left(trans, t, &mut w.view_mut());
    // C := C − Ṽ·W.
    for j in 0..n {
        let wj: Vec<f64> = (0..k).map(|i| w[(i, j)]).collect();
        let cj = c.col_mut(j);
        // Rows 0..k: unit lower triangular part.
        for i in (0..k).rev() {
            let mut s = wj[i];
            for (l, &wl) in wj.iter().enumerate().take(i) {
                s += v.get(i, l) * wl;
            }
            cj[i] -= s;
        }
        // Rows k..m: dense part.
        for (l, &wl) in wj.iter().enumerate() {
            let vl = v.col(l);
            axpy(-wl, &vl[k..m], &mut cj[k..m]);
        }
    }
}

/// Blocked Householder QR (LAPACK `dgeqrf`) with panel width `nb`.
///
/// Falls back to [`geqr2`] when the matrix is narrower than one panel.
pub fn geqrf(a: &mut ViewMut<'_>, tau: &mut [f64], nb: usize) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqrf: tau too short");
    let nb = nb.max(1);
    let mut j = 0;
    while j < k {
        let ib = nb.min(k - j);
        // Panel = A[j.., j..j+ib]; trailing = A[j.., j+ib..].
        let mut below = a.sub_mut(j, j, m - j, n - j);
        let (mut panel, mut trail) = below.split_cols_at_mut(ib);
        geqr2(&mut panel, &mut tau[j..j + ib]);
        if trail.cols() > 0 {
            let t = larft(&panel.as_view(), &tau[j..j + ib]);
            larfb_left(Trans::Yes, &panel.as_view(), &t.view(), &mut trail);
        }
        j += ib;
    }
}

/// Forms the thin explicit `Q` (`m × k`) from a factored matrix
/// (LAPACK `dorg2r` applied to the first `k` reflectors).
pub fn org2r(factors: &View<'_>, tau: &[f64]) -> Matrix {
    let m = factors.rows();
    let k = factors.cols().min(m).min(tau.len());
    let mut q = Matrix::zeros(m, k);
    for j in 0..k {
        q[(j, j)] = 1.0;
    }
    let mut work = vec![0.0; k];
    for j in (0..k).rev() {
        let vj: Vec<f64> = factors.col(j)[j + 1..m].to_vec();
        let mut window = q.view_mut();
        let mut sub = window.sub_mut(j, j, m - j, k - j);
        larf_left(tau[j], &vj, &mut sub, &mut work);
    }
    q
}

/// Applies the implicit `Q` of a factored matrix to `c`
/// (LAPACK `dorm2r`): `C := op(Q)·C` (left) or `C := C·op(Q)` (right).
pub fn orm2r(side: Side, trans: Trans, factors: &View<'_>, tau: &[f64], c: &mut ViewMut<'_>) {
    let mv = factors.rows();
    let k = factors.cols().min(mv).min(tau.len());
    match side {
        Side::Left => {
            assert_eq!(c.rows(), mv, "orm2r(Left): C row count must match V");
            let n = c.cols();
            let mut work = vec![0.0; n];
            let order: Vec<usize> = match trans {
                Trans::Yes => (0..k).collect(),      // Qᵀ = H_k ⋯ H_1 applied H_1 first
                Trans::No => (0..k).rev().collect(), // Q = H_1 ⋯ H_k applied H_k first
            };
            for j in order {
                let vj: Vec<f64> = factors.col(j)[j + 1..mv].to_vec();
                let mut sub = c.sub_mut(j, 0, mv - j, n);
                larf_left(tau[j], &vj, &mut sub, &mut work);
            }
        }
        Side::Right => {
            assert_eq!(c.cols(), mv, "orm2r(Right): C column count must match V rows");
            let m = c.rows();
            let order: Vec<usize> = match trans {
                Trans::No => (0..k).collect(),       // C·H_1·H_2⋯
                Trans::Yes => (0..k).rev().collect(),
            };
            let mut w = vec![0.0; m];
            for j in order {
                let tj = tau[j];
                if tj == 0.0 {
                    continue;
                }
                let vj: Vec<f64> = factors.col(j)[j + 1..mv].to_vec();
                // w = C[:, j..] · v  (v = [1; vj])
                for (i, wi) in w.iter_mut().enumerate().take(m) {
                    let mut s = c.get(i, j);
                    for (l, &vl) in vj.iter().enumerate() {
                        s += c.get(i, j + 1 + l) * vl;
                    }
                    *wi = s;
                }
                // C[:, j..] -= τ w vᵀ
                for (i, &wi) in w.iter().enumerate().take(m) {
                    let tw = tj * wi;
                    c.col_mut(j)[i] -= tw;
                    for (l, &vl) in vj.iter().enumerate() {
                        c.col_mut(j + 1 + l)[i] -= tw * vl;
                    }
                }
            }
        }
    }
}

/// An owned QR factorization: `R` in the upper triangle of `factors`,
/// Householder vectors below it, scaling factors in `tau`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// The `m × n` factored matrix (R above the diagonal, V below).
    pub factors: Matrix,
    /// Reflector scaling factors, length `min(m, n)`.
    pub tau: Vec<f64>,
}

impl QrFactors {
    /// Factors a copy of `a` using the blocked algorithm.
    pub fn compute(a: &Matrix, nb: usize) -> Self {
        let mut f = a.clone();
        let k = a.rows().min(a.cols());
        let mut tau = vec![0.0; k];
        geqrf(&mut f.view_mut(), &mut tau, nb);
        QrFactors { factors: f, tau }
    }

    /// Factors a copy of `a` with the unblocked algorithm (`geqr2`).
    pub fn compute_unblocked(a: &Matrix) -> Self {
        let mut f = a.clone();
        let k = a.rows().min(a.cols());
        let mut tau = vec![0.0; k];
        geqr2(&mut f.view_mut(), &mut tau);
        QrFactors { factors: f, tau }
    }

    /// The `min(m,n) × n` upper-triangular factor `R`.
    pub fn r(&self) -> Matrix {
        self.factors.upper_triangular()
    }

    /// The thin explicit orthogonal factor `Q` (`m × min(m,n)`).
    pub fn q_thin(&self) -> Matrix {
        let k = self.factors.rows().min(self.factors.cols());
        org2r(&self.factors.sub(0, 0, self.factors.rows(), k), &self.tau)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{orthogonality, relative_residual};

    /// `C := op(Q)·C` with the implicit Q of `f` (`op` chosen by `trans`).
    fn apply_left(f: &QrFactors, trans: Trans, c: &mut Matrix) {
        orm2r(Side::Left, trans, &f.factors.view(), &f.tau, &mut c.view_mut());
    }

    const TOL: f64 = 1e-12;

    fn check_qr(a: &Matrix, f: &QrFactors) {
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(a, &q, &r) < TOL, "residual too large");
        assert!(orthogonality(&q) < TOL, "Q not orthogonal");
        // R upper triangular by construction of `r()`; also check the
        // factored storage agrees above the diagonal.
        for i in 0..r.rows() {
            for j in 0..r.cols() {
                if i > j {
                    assert_eq!(r[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn geqr2_tall_matrix() {
        let a = Matrix::random_uniform(20, 5, 1);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
    }

    #[test]
    fn geqr2_square_matrix() {
        let a = Matrix::random_uniform(6, 6, 2);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
    }

    #[test]
    fn geqr2_single_column() {
        let a = Matrix::random_uniform(9, 1, 3);
        let f = QrFactors::compute_unblocked(&a);
        check_qr(&a, &f);
        assert!((f.r()[(0, 0)].abs() - a.norm_fro()).abs() < 1e-12);
    }

    #[test]
    fn geqrf_matches_geqr2() {
        let a = Matrix::random_uniform(40, 12, 4);
        let blocked = QrFactors::compute(&a, 5);
        let unblocked = QrFactors::compute_unblocked(&a);
        assert!(blocked.factors.approx_eq(&unblocked.factors, 1e-11));
        for (x, y) in blocked.tau.iter().zip(&unblocked.tau) {
            assert!((x - y).abs() < 1e-11);
        }
    }

    #[test]
    fn geqrf_various_panel_widths() {
        let a = Matrix::random_uniform(33, 17, 5);
        for nb in [1, 2, 3, 8, 16, 17, 64] {
            let f = QrFactors::compute(&a, nb);
            check_qr(&a, &f);
        }
    }

    #[test]
    fn geqrf_wide_matrix() {
        let a = Matrix::random_uniform(5, 12, 6);
        let f = QrFactors::compute(&a, 3);
        // For wide matrices R is 5x12 upper trapezoidal; check A = Q R.
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r) < TOL);
        assert!(orthogonality(&q) < TOL);
    }

    #[test]
    fn larft_reproduces_block_reflector() {
        let a = Matrix::random_uniform(10, 4, 7);
        let f = QrFactors::compute_unblocked(&a);
        let t = larft(&f.factors.view(), &f.tau);
        // Build Q densely from I − V·T·Vᵀ and compare with org2r.
        let m = 10;
        let k = 4;
        let mut v = Matrix::zeros(m, k);
        for j in 0..k {
            v[(j, j)] = 1.0;
            for i in j + 1..m {
                v[(i, j)] = f.factors[(i, j)];
            }
        }
        let vt = v.matmul(&t.upper_triangular()).matmul(&v.transpose());
        let q_dense = Matrix::from_fn(m, m, |i, j| {
            (if i == j { 1.0 } else { 0.0 }) - vt[(i, j)]
        });
        let q_thin = f.q_thin();
        let q_dense_thin = q_dense.sub_matrix(0, 0, m, k);
        assert!(q_thin.approx_eq(&q_dense_thin, 1e-12));
    }

    #[test]
    fn larfb_equals_sequential_reflectors() {
        let a = Matrix::random_uniform(12, 4, 8);
        let f = QrFactors::compute_unblocked(&a);
        let c0 = Matrix::random_uniform(12, 6, 9);
        // Sequential Qᵀ C via orm2r.
        let mut c_seq = c0.clone();
        apply_left(&f, Trans::Yes, &mut c_seq);
        // Blocked Qᵀ C via larfb.
        let t = larft(&f.factors.view(), &f.tau);
        let mut c_blk = c0.clone();
        larfb_left(Trans::Yes, &f.factors.view(), &t.view(), &mut c_blk.view_mut());
        assert!(c_blk.approx_eq(&c_seq, 1e-12));
        // And Q C.
        let mut c_seq = c0.clone();
        apply_left(&f, Trans::No, &mut c_seq);
        let mut c_blk = c0.clone();
        larfb_left(Trans::No, &f.factors.view(), &t.view(), &mut c_blk.view_mut());
        assert!(c_blk.approx_eq(&c_seq, 1e-12));
    }

    #[test]
    fn apply_q_then_qt_is_identity() {
        let a = Matrix::random_uniform(15, 6, 10);
        let f = QrFactors::compute(&a, 3);
        let c0 = Matrix::random_uniform(15, 4, 11);
        let mut c = c0.clone();
        apply_left(&f, Trans::Yes, &mut c);
        apply_left(&f, Trans::No, &mut c);
        assert!(c.approx_eq(&c0, 1e-12));
    }

    #[test]
    fn qt_times_a_is_r() {
        let a = Matrix::random_uniform(18, 5, 12);
        let f = QrFactors::compute(&a, 4);
        let mut c = a.clone();
        apply_left(&f, Trans::Yes, &mut c);
        let r = f.r();
        for i in 0..5 {
            for j in 0..5 {
                assert!((c[(i, j)] - r[(i, j)]).abs() < 1e-11);
            }
        }
        // Rows below N must be annihilated.
        for i in 5..18 {
            for j in 0..5 {
                assert!(c[(i, j)].abs() < 1e-11);
            }
        }
    }

    #[test]
    fn orm2r_right_matches_dense() {
        let a = Matrix::random_uniform(7, 3, 13);
        let f = QrFactors::compute_unblocked(&a);
        let q = {
            // Dense square Q via applying to the identity.
            let mut id = Matrix::identity(7);
            apply_left(&f, Trans::No, &mut id);
            id
        };
        let c0 = Matrix::random_uniform(4, 7, 14);
        // C·Q
        let mut c = c0.clone();
        orm2r(Side::Right, Trans::No, &f.factors.view(), &f.tau, &mut c.view_mut());
        assert!(c.approx_eq(&c0.matmul(&q), 1e-12));
        // C·Qᵀ
        let mut c = c0.clone();
        orm2r(Side::Right, Trans::Yes, &f.factors.view(), &f.tau, &mut c.view_mut());
        assert!(c.approx_eq(&c0.matmul(&q.transpose()), 1e-12));
    }

    #[test]
    fn rank_deficient_matrix_still_factors() {
        // Two identical columns.
        let base = Matrix::random_uniform(10, 1, 15);
        let a = Matrix::from_fn(10, 3, |i, j| {
            if j < 2 {
                base[(i, 0)]
            } else {
                (i as f64).sin()
            }
        });
        let f = QrFactors::compute(&a, 2);
        let q = f.q_thin();
        let r = f.r();
        assert!(relative_residual(&a, &q, &r) < TOL);
        // R(1,1) must be ~0 (second column dependent on first).
        assert!(r[(1, 1)].abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_factors_to_zero_r() {
        let a = Matrix::zeros(8, 3);
        let f = QrFactors::compute(&a, 2);
        assert_eq!(f.r().norm_fro(), 0.0);
        let q = f.q_thin();
        assert!(orthogonality(&q) < TOL);
    }
}
