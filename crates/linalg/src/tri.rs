//! Triangular solves: `trsv` (one right-hand side) and `trsm` (many),
//! upper and lower variants — the substrate for least-squares solves
//! (`R·x = Qᵀb`) and for the CholeskyQR baseline (`Q = A·R⁻¹`).

use crate::matrix::Matrix;
use crate::view::{View, ViewMut};

/// Which triangle of the coefficient matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Upper triangular (entries below the diagonal ignored).
    Upper,
    /// Lower triangular (entries above the diagonal ignored).
    Lower,
}

/// Solves `T·x = b` in place for a triangular `T` (`x` overwrites `b`).
///
/// Panics if a diagonal entry is exactly zero (singular triangular
/// system) — callers that may face rank deficiency should check
/// [`smallest_diag`] first.
pub fn trsv(tri: Triangle, t: &View<'_>, b: &mut [f64]) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "trsv: T must be square");
    assert_eq!(b.len(), n, "trsv: rhs length mismatch");
    match tri {
        Triangle::Upper => {
            for i in (0..n).rev() {
                let mut s = b[i];
                for j in i + 1..n {
                    s -= t.get(i, j) * b[j];
                }
                let d = t.get(i, i);
                assert!(d != 0.0, "trsv: zero diagonal at {i}");
                b[i] = s / d;
            }
        }
        Triangle::Lower => {
            for i in 0..n {
                let mut s = b[i];
                for j in 0..i {
                    s -= t.get(i, j) * b[j];
                }
                let d = t.get(i, i);
                assert!(d != 0.0, "trsv: zero diagonal at {i}");
                b[i] = s / d;
            }
        }
    }
}

/// Solves `X·T = B` in place for upper-triangular `T` (right side) —
/// equivalently `Tᵀ·Xᵀ = Bᵀ`. Used by CholeskyQR's `Q = A·R⁻¹`.
pub fn trsm_right_upper(t: &View<'_>, b: &mut ViewMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "trsm_right: T must be square");
    assert_eq!(b.cols(), n, "trsm_right: B column mismatch");
    // Column j of X depends on columns < j: X_j = (B_j − Σ_{k<j} X_k T[k,j]) / T[j,j].
    for j in 0..n {
        let d = t.get(j, j);
        assert!(d != 0.0, "trsm_right: zero diagonal at {j}");
        for k in 0..j {
            let factor = t.get(k, j);
            if factor != 0.0 {
                let (left, mut right) = b.split_cols_at_mut(j);
                let xk = left.col(k).to_vec();
                crate::blas::axpy(-factor, &xk, right.col_mut(0));
            }
        }
        crate::blas::scal(1.0 / d, b.col_mut(j));
    }
}

/// The smallest absolute diagonal entry of a triangular factor — a cheap
/// singularity / conditioning probe.
pub fn smallest_diag(t: &Matrix) -> f64 {
    let n = t.rows().min(t.cols());
    (0..n).map(|i| t[(i, i)].abs()).fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upper(n: usize, seed: u64) -> Matrix {
        let mut m = Matrix::random_uniform(n, n, seed).upper_triangular_padded();
        for i in 0..n {
            m[(i, i)] += 3.0; // well-conditioned
        }
        m
    }

    fn lower(n: usize, seed: u64) -> Matrix {
        upper(n, seed).transpose()
    }

    #[test]
    fn trsv_upper_and_lower() {
        let n = 8;
        for (tri, t) in [(Triangle::Upper, upper(n, 1)), (Triangle::Lower, lower(n, 2))] {
            let x = Matrix::random_uniform(n, 1, 3);
            let b = t.matmul(&x);
            let mut got = b.col(0).to_vec();
            trsv(tri, &t.view(), &mut got);
            for i in 0..n {
                assert!((got[i] - x[(i, 0)]).abs() < 1e-12, "{tri:?} i={i}");
            }
        }
    }

    #[test]
    fn trsm_right_upper_solves_xt_eq_b() {
        let n = 5;
        let t = upper(n, 6);
        let x = Matrix::random_uniform(7, n, 7);
        let mut b = x.matmul(&t);
        trsm_right_upper(&t.view(), &mut b.view_mut());
        assert!(b.approx_eq(&x, 1e-12));
    }

    #[test]
    fn smallest_diag_probe() {
        let mut t = upper(4, 8);
        assert!(smallest_diag(&t) >= 2.0);
        t[(2, 2)] = 1e-30;
        assert!(smallest_diag(&t) < 1e-29);
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn singular_system_panics() {
        let mut t = upper(3, 9);
        t[(1, 1)] = 0.0;
        let mut b = vec![1.0, 2.0, 3.0];
        trsv(Triangle::Upper, &t.view(), &mut b);
    }
}
