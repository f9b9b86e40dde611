//! Owned column-major dense matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::view::{View, ViewMut};

/// An owned, column-major, dense `f64` matrix.
///
/// The storage is a single `Vec<f64>` of length `rows*cols`; element `(i, j)`
/// lives at `data[i + j*rows]` (the leading dimension of an owned matrix is
/// always its row count). Borrow a [`View`]/[`ViewMut`] to work on windows.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// An `rows × cols` matrix whose entry `(i, j)` is `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a column-major buffer.
    ///
    /// Returns `None` when `data.len() != rows*cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Option<Self> {
        (data.len() == rows * cols).then_some(Matrix { rows, cols, data })
    }

    // archlint: allow(reach) — the matrix literal the linalg unit tests
    // write their small worked examples with.
    /// Builds a matrix from rows given in row-major order.
    ///
    /// Returns `None` when the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Option<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|row| row.len() != c) {
            return None;
        }
        Some(Self::from_fn(r, c, |i, j| rows[i][j]))
    }

    /// A matrix with entries uniform in `[-1, 1]`, seeded deterministically.
    ///
    /// This is the workload generator used throughout the test-suite and the
    /// examples: dense random tall-and-skinny matrices, matching the
    /// synthetic inputs of the paper's experiments. Entries are drawn in
    /// column-major order from a SplitMix64 stream seeded at `seed` (the
    /// generator of `tsqr_netsim::rng::SplitMix64`, which this crate cannot
    /// import from the same layer), each mapped as `-1 + 2·u` with `u` the
    /// top 53 bits scaled to `[0, 1)`.
    pub fn random_uniform(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed;
        Self::from_fn(rows, cols, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            -1.0 + ((z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) * 2.0
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix, returning its column-major buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of bounds ({} cols)", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of bounds ({} cols)", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// A borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> View<'_> {
        View::from_raw(&self.data, self.rows, self.cols, self.rows)
    }

    /// A mutable borrowed view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> ViewMut<'_> {
        let (rows, cols) = (self.rows, self.cols);
        ViewMut::from_raw(&mut self.data, rows, cols, rows)
    }

    /// A borrowed view of the `nr × nc` window starting at `(r0, c0)`.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> View<'_> {
        self.view().sub(r0, c0, nr, nc)
    }

    /// An owned copy of the `nr × nc` window starting at `(r0, c0)`.
    pub fn sub_matrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        self.sub(r0, c0, nr, nc).to_matrix()
    }

    /// Writes `src` into the window of `self` starting at `(r0, c0)`.
    pub fn set_sub(&mut self, r0: usize, c0: usize, src: &Matrix) {
        let (nr, nc) = src.shape();
        self.view_mut().sub_mut(r0, c0, nr, nc).copy_from(&src.view());
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Vertically stacks `self` on top of `other` (column counts must agree).
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "vstack requires equal column counts ({} vs {})",
            self.cols, other.cols
        );
        Matrix::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// Vertically stacks an ordered list of blocks with equal column counts.
    pub fn vstack_all(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "vstack_all needs at least one block");
        let cols = blocks[0].cols;
        assert!(
            blocks.iter().all(|b| b.cols == cols),
            "vstack_all requires equal column counts"
        );
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r0 = 0;
        for b in blocks {
            out.set_sub(r0, 0, b);
            r0 += b.rows;
        }
        out
    }

    /// The upper-triangular part of the leading `n × n` block (`n = min(rows,
    /// cols)` unless the matrix is wider than tall, in which case the full
    /// `min(rows,cols) × cols` trapezoid is kept).
    pub fn upper_triangular(&self) -> Matrix {
        let n = self.rows.min(self.cols);
        Matrix::from_fn(n, self.cols, |i, j| if i <= j { self[(i, j)] } else { 0.0 })
    }

    /// The matrix with its strict lower triangle zeroed, keeping the shape.
    ///
    /// Unlike [`Matrix::upper_triangular`], which truncates to the leading
    /// square block, this preserves the full `rows × cols` shape — handy for
    /// the stacked-triangles kernels that carry `n × n` R factors around.
    pub fn upper_triangular_padded(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |i, j| if i <= j { self[(i, j)] } else { 0.0 })
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max-absolute-entry norm.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()))
    }

    /// `self - other` as a new matrix.
    pub fn sub_elem(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub_elem");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - other[(i, j)])
    }

    /// `self * other` using the blocked gemm kernel.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows(),
            "matmul inner dimensions mismatch ({}x{} * {}x{})",
            self.rows,
            self.cols,
            other.rows(),
            other.cols()
        );
        let mut c = Matrix::zeros(self.rows, other.cols());
        crate::blas::gemm(
            crate::qr::Trans::No,
            crate::qr::Trans::No,
            1.0,
            &self.view(),
            &other.view(),
            0.0,
            &mut c.view_mut(),
        );
        c
    }

    /// `selfᵀ * other` using the blocked gemm kernel.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows(), "t_matmul inner dimensions mismatch");
        let mut c = Matrix::zeros(self.cols, other.cols());
        crate::blas::gemm(
            crate::qr::Trans::Yes,
            crate::qr::Trans::No,
            1.0,
            &self.view(),
            &other.view(),
            0.0,
            &mut c.view_mut(),
        );
        c
    }

    /// True when all entries of `self` and `other` differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.sub_elem(other).norm_max() <= tol
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i + j * self.rows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > show_cols { "…" } else { "" })?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_is_column_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 6.0);
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_none());
    }

    #[test]
    fn from_col_major_checks_len() {
        assert!(Matrix::from_col_major(2, 2, vec![1.0; 3]).is_none());
        assert!(Matrix::from_col_major(2, 2, vec![1.0; 4]).is_some());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random_uniform(5, 3, 42);
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn vstack_keeps_both_blocks() {
        let a = Matrix::random_uniform(4, 3, 1);
        let b = Matrix::random_uniform(2, 3, 2);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (6, 3));
        assert!(s.sub_matrix(0, 0, 4, 3).approx_eq(&a, 0.0));
        assert!(s.sub_matrix(4, 0, 2, 3).approx_eq(&b, 0.0));
    }

    #[test]
    fn vstack_all_matches_pairwise() {
        let a = Matrix::random_uniform(2, 2, 1);
        let b = Matrix::random_uniform(3, 2, 2);
        let c = Matrix::random_uniform(1, 2, 3);
        let all = Matrix::vstack_all(&[&a, &b, &c]);
        assert!(all.approx_eq(&a.vstack(&b).vstack(&c), 0.0));
    }

    #[test]
    fn sub_matrix_window() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.sub_matrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], m[(1, 2)]);
        assert_eq!(s[(1, 1)], m[(2, 3)]);
    }

    #[test]
    fn set_sub_writes_window() {
        let mut m = Matrix::zeros(4, 4);
        let s = Matrix::from_fn(2, 2, |i, j| (i + j + 1) as f64);
        m.set_sub(1, 1, &s);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 3.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]).unwrap();
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b);
        let want = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&want, 1e-14));
    }

    #[test]
    fn t_matmul_matches_transpose_matmul() {
        let a = Matrix::random_uniform(6, 3, 7);
        let b = Matrix::random_uniform(6, 4, 8);
        let c1 = a.t_matmul(&b);
        let c2 = a.transpose().matmul(&b);
        assert!(c1.approx_eq(&c2, 1e-13));
    }

    #[test]
    fn upper_triangular_zeroes_strict_lower() {
        let m = Matrix::random_uniform(5, 3, 9);
        let u = m.upper_triangular();
        assert_eq!(u.shape(), (3, 3));
        for i in 0..3 {
            for j in 0..3 {
                if i > j {
                    assert_eq!(u[(i, j)], 0.0);
                } else {
                    assert_eq!(u[(i, j)], m[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn random_uniform_is_deterministic() {
        let a = Matrix::random_uniform(10, 4, 123);
        let b = Matrix::random_uniform(10, 4, 123);
        assert!(a.approx_eq(&b, 0.0));
        let c = Matrix::random_uniform(10, 4, 124);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn random_uniform_reference_bits() {
        // Pins the seeded stream: every matrix generated from a seed, and
        // every figure computed from one, depends on these exact bits.
        let m = Matrix::random_uniform(4, 1, 42);
        let bits: Vec<u64> = m.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            bits,
            [0x3fdeeb991317f5b4, 0xbfe5c40733136644, 0xbfdc56cc54767834, 0xbfd3f18f0078da90]
        );
    }

    #[test]
    #[should_panic(expected = "vstack requires equal column counts")]
    fn vstack_mismatch_panics() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = a.vstack(&b);
    }
}
