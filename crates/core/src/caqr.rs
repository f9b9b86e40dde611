//! CAQR: Communication-Avoiding QR for **general** (not just tall and
//! skinny) matrices — the paper's announced next step (§II-E, §VI: "this
//! present study can be viewed as a first step towards the factorization
//! of general matrices on the grid").
//!
//! CAQR is a (factor panel) / (update trailing matrix) algorithm whose
//! panel step *is* TSQR. This module provides the tiled, single-process
//! flat-tree variant (the shape used by the out-of-core and multicore CAQR
//! implementations the paper cites \[26\], \[10\], \[30\], \[36\]): the matrix is
//! cut into `rb × nb` tiles; each panel is factored by a QR of its
//! diagonal tile followed by a chain of structured
//! [`tsqr_linalg::stacked::tpqrt_dense`] eliminations, and every
//! elimination's implicit Q is immediately applied to the trailing tiles
//! of the same row pair.
//!
//! The factorization retains every transformation, so `Qᵀ·C`, `Q·C` and
//! the explicit thin Q are all available — which is how the tests validate
//! `A = Q·R` against the reference Householder factorization.

use tsqr_linalg::flops;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{geqr2, larfb_left, larft, orm2r, Side, Trans};
use tsqr_linalg::stacked::{tpmqrt_dense, tpqrt_dense, DenseStackedFactors};
use tsqr_linalg::Matrix;

/// One panel's transformations: the diagonal-tile QR plus the flat-tree
/// chain of dense-stacked eliminations.
#[derive(Debug, Clone)]
struct PanelFactors {
    /// Panel width.
    width: usize,
    /// Row of the diagonal tile (equals `col0`).
    row0: usize,
    /// Rows of the diagonal tile block.
    diag_rows: usize,
    /// Factored diagonal tile (V below the diagonal) and its τ values.
    diag: QrFactors,
    /// For each eliminated subdiagonal block: its first row, its height,
    /// and the dense-stacked factors.
    eliminations: Vec<(usize, usize, DenseStackedFactors)>,
}

/// A complete CAQR factorization.
#[derive(Debug, Clone)]
pub struct CaqrFactors {
    /// `min(m,n) × n` upper-triangular/trapezoidal factor.
    r: Matrix,
    /// Original row count.
    m: usize,
    /// Original column count.
    n: usize,
    panels: Vec<PanelFactors>,
    /// Total flops charged (closed forms), for the experiment harness.
    pub flops: u64,
}

/// Tiled flat-tree CAQR of `a` with panel width `nb` and row-block height
/// `rb` (`rb ≥ nb` required so diagonal tiles are tall enough).
pub fn caqr(a: &Matrix, nb: usize, rb: usize) -> CaqrFactors {
    let (m, n) = a.shape();
    assert!(nb >= 1 && rb >= nb, "need rb >= nb >= 1 (got rb={rb}, nb={nb})");
    let mut work = a.clone();
    let mut panels = Vec::new();
    let mut total_flops = 0u64;
    let kmax = m.min(n);
    let mut col0 = 0;
    while col0 < kmax {
        let width = nb.min(kmax - col0);
        let row0 = col0;
        // --- Panel factorization (flat-tree TSQR over row blocks). ---
        // Diagonal block: from row0 to the end of its row-tile.
        let diag_end = m.min(((row0 / rb) + 1) * rb).max(row0 + width);
        let diag_rows = diag_end - row0;
        let mut diag_block = work.sub_matrix(row0, col0, diag_rows, width);
        let mut tau = vec![0.0; width];
        geqr2(&mut diag_block.view_mut(), &mut tau);
        total_flops += flops::geqrf(diag_rows as u64, width as u64);
        work.set_sub(row0, col0, &diag_block);
        let diag = QrFactors { factors: diag_block, tau };
        // Apply the diagonal Q^T to the trailing columns of this row block.
        let trail_cols = n - col0 - width;
        if trail_cols > 0 {
            let t = larft(&diag.factors.view(), &diag.tau);
            let mut c = work.sub_matrix(row0, col0 + width, diag_rows, trail_cols);
            larfb_left(Trans::Yes, &diag.factors.view(), &t.view(), &mut c.view_mut());
            work.set_sub(row0, col0 + width, &c);
            total_flops += flops::gemm(diag_rows as u64, trail_cols as u64, width as u64) * 2;
        }
        // Eliminate each remaining row block against the accumulated R.
        let mut eliminations = Vec::new();
        let mut blk0 = diag_end;
        while blk0 < m {
            let blk_rows = rb.min(m - blk0);
            let mut r_top = work.sub_matrix(row0, col0, width, width);
            let mut b = work.sub_matrix(blk0, col0, blk_rows, width);
            let f = tpqrt_dense(&mut r_top, &mut b);
            total_flops += flops::tpqrt_dense(width as u64, blk_rows as u64);
            work.set_sub(row0, col0, &r_top);
            work.set_sub(blk0, col0, &b);
            // Apply this elimination's Q^T to the trailing columns of the
            // two row stripes it touches.
            if trail_cols > 0 {
                let mut c1 = work.sub_matrix(row0, col0 + width, width, trail_cols);
                let mut c2 = work.sub_matrix(blk0, col0 + width, blk_rows, trail_cols);
                tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
                work.set_sub(row0, col0 + width, &c1);
                work.set_sub(blk0, col0 + width, &c2);
                total_flops +=
                    flops::tpmqrt_dense(width as u64, blk_rows as u64, trail_cols as u64);
            }
            eliminations.push((blk0, blk_rows, f));
            blk0 += blk_rows;
        }
        panels.push(PanelFactors { width, row0, diag_rows, diag, eliminations });
        col0 += width;
    }
    let r = Matrix::from_fn(kmax, n, |i, j| if i <= j { work[(i, j)] } else { 0.0 });
    CaqrFactors { r, m, n, panels, flops: total_flops }
}

impl CaqrFactors {
    /// The upper-trapezoidal factor `R` (`min(m,n) × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// `C := Q·C` in place (`C` must have `m` rows): the panels'
    /// eliminations undone in reverse, each before its diagonal block.
    pub fn apply_q(&self, c: &mut Matrix) {
        assert_eq!(c.rows(), self.m, "apply_q: row mismatch");
        let k = c.cols();
        for panel in self.panels.iter().rev() {
            for (blk0, blk_rows, f) in panel.eliminations.iter().rev() {
                let mut c1 = c.sub_matrix(panel.row0, 0, panel.width, k);
                let mut c2 = c.sub_matrix(*blk0, 0, *blk_rows, k);
                tpmqrt_dense(Trans::No, f, &mut c1, &mut c2);
                c.set_sub(panel.row0, 0, &c1);
                c.set_sub(*blk0, 0, &c2);
            }
            let mut block = c.sub_matrix(panel.row0, 0, panel.diag_rows, k);
            orm2r(Side::Left, Trans::No, &panel.diag.factors.view(), &panel.diag.tau, &mut block.view_mut());
            c.set_sub(panel.row0, 0, &block);
        }
    }

    /// The thin explicit `Q` (`m × min(m,n)`), computed by applying the
    /// implicit Q to `[I; 0]` — test-scale only.
    pub fn q_thin(&self) -> Matrix {
        let kmax = self.m.min(self.n);
        let mut c = Matrix::zeros(self.m, kmax);
        for i in 0..kmax {
            c[(i, i)] = 1.0;
        }
        self.apply_q(&mut c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use tsqr_linalg::verify::{orthogonality, r_distance, relative_residual};

    fn check(a: &Matrix, nb: usize, rb: usize) {
        let f = caqr(a, nb, rb);
        let q = f.q_thin();
        let r = f.r();
        assert!(
            relative_residual(a, &q, r) < 1e-11,
            "A != QR for {}x{} nb={nb} rb={rb}",
            a.rows(),
            a.cols()
        );
        assert!(orthogonality(&q) < 1e-11);
        // R agrees with the reference Householder QR up to row signs.
        let reference = QrFactors::compute(a, nb).r();
        assert!(r_distance(r, &reference) < 1e-10);
    }

    #[test]
    fn square_matrix_various_tilings() {
        let a = workload::full_matrix(51, 24, 24);
        for (nb, rb) in [(4, 4), (4, 8), (6, 6), (8, 12), (24, 24), (3, 7)] {
            check(&a, nb, rb);
        }
    }

    #[test]
    fn tall_matrix() {
        let a = workload::full_matrix(52, 60, 16);
        check(&a, 4, 10);
    }

    #[test]
    fn wide_matrix() {
        let a = workload::full_matrix(53, 16, 40);
        check(&a, 4, 8);
    }

    #[test]
    fn panel_width_one_equals_unblocked() {
        let a = workload::full_matrix(54, 18, 10);
        check(&a, 1, 3);
    }

    #[test]
    fn dims_not_multiple_of_tiles() {
        let a = workload::full_matrix(55, 29, 13);
        check(&a, 5, 7);
    }

    #[test]
    fn flop_count_scales_like_2mn2() {
        let (m, n) = (120, 24);
        let a = workload::full_matrix(59, m, n);
        let f = caqr(&a, 8, 24);
        let closed = flops::geqrf(m as u64, n as u64) as f64;
        let ratio = f.flops as f64 / closed;
        assert!(
            (0.8..2.5).contains(&ratio),
            "CAQR flops should be within a small factor of dense QR, got {ratio}"
        );
    }
}
