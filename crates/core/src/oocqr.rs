//! Out-of-core TSQR: the flat-tree variant the paper cites from Gunter &
//! van de Geijn \[26\] ("CAQR with a flat tree has been implemented in the
//! context of out-of-core QR factorization", §II-C).
//!
//! A tall matrix that does not fit in memory is streamed through a
//! bounded-memory window one row-block at a time: the first block is
//! QR-factored, and every further block is folded into the running R with
//! one structured [`tsqr_linalg::stacked::tpqrt_dense`] elimination. Peak
//! resident memory is one block plus the `n × n` R — independent of M.
//!
//! The per-block implicit Q factors can optionally be retained (what a real
//! out-of-core solver would write back to disk), which makes `Qᵀ·b`
//! available in the same single pass — enough for streaming least squares.

use tsqr_linalg::flops;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{orm2r, Side, Trans};
use tsqr_linalg::stacked::{tpmqrt_dense, tpqrt_dense, DenseStackedFactors};
use tsqr_linalg::tri::{trsv, Triangle};
use tsqr_linalg::Matrix;

/// A bounded-memory streaming QR accumulator.
///
/// Feed row blocks top-to-bottom with [`StreamingQr::push_block`]; read the
/// R factor (and, if enabled, solve least-squares problems) when done.
pub struct StreamingQr {
    n: usize,
    r: Option<Matrix>,
    /// Rows ingested so far.
    rows_seen: u64,
    /// Flops spent (closed forms) — what an out-of-core cost model charges.
    pub flops: u64,
    /// Retained per-block factors (enabled by [`StreamingQr::with_q`]):
    /// the first block's dense QR, then one dense-stacked elimination per
    /// further block.
    keep_q: bool,
    first: Option<QrFactors>,
    eliminations: Vec<(usize, DenseStackedFactors)>,
    /// Running c = leading rows of Qᵀ·b, when a right-hand side streams
    /// along.
    c: Option<Vec<f64>>,
}

impl StreamingQr {
    /// A new accumulator for matrices with `n` columns (R-factor only).
    pub fn new(n: usize) -> Self {
        StreamingQr {
            n,
            r: None,
            rows_seen: 0,
            flops: 0,
            keep_q: false,
            first: None,
            eliminations: Vec::new(),
            c: None,
        }
    }

    /// Also retain the implicit Q factors (costs one factor set per block —
    /// the "write V to disk" of a real out-of-core solver).
    pub fn with_q(mut self) -> Self {
        self.keep_q = true;
        self
    }

    /// Ingests the next row block (top-to-bottom order). When `rhs` is
    /// given it must hold one value per block row; the accumulator then
    /// maintains `c = (Qᵀ·b)[..n]` for [`StreamingQr::solve`].
    pub fn push_block(&mut self, block: &Matrix, rhs: Option<&[f64]>) {
        assert_eq!(block.cols(), self.n, "block has wrong column count");
        let rows = block.rows();
        assert!(rows > 0, "empty block");
        if let Some(b) = rhs {
            assert_eq!(b.len(), rows, "rhs length mismatch");
            assert!(
                self.c.is_some() || self.rows_seen == 0,
                "rhs must stream along from the first block"
            );
        }
        self.rows_seen += rows as u64;
        match self.r.take() {
            None => {
                assert!(rows >= self.n, "first block must have at least n rows");
                let f = QrFactors::compute(block, 32);
                self.flops += flops::geqrf(rows as u64, self.n as u64);
                self.r = Some(f.r().upper_triangular_padded());
                if let Some(b) = rhs {
                    let mut c = Matrix::from_col_major(rows, 1, b.to_vec()).expect("rhs");
                    orm2r(Side::Left, Trans::Yes, &f.factors.view(), &f.tau, &mut c.view_mut());
                    self.flops += 4 * rows as u64 * self.n as u64;
                    self.c = Some((0..self.n).map(|i| c[(i, 0)]).collect());
                }
                if self.keep_q {
                    self.first = Some(f);
                }
            }
            Some(mut r) => {
                let mut b = block.clone();
                let f = tpqrt_dense(&mut r, &mut b);
                self.flops += flops::tpqrt_dense(self.n as u64, rows as u64);
                self.r = Some(r);
                if let Some(bvec) = rhs {
                    let c = self.c.as_mut().expect("rhs streamed from the start");
                    let mut c1 = Matrix::from_col_major(self.n, 1, c.clone()).expect("c");
                    let mut c2 =
                        Matrix::from_col_major(rows, 1, bvec.to_vec()).expect("rhs column");
                    tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
                    self.flops += flops::tpmqrt_dense(self.n as u64, rows as u64, 1);
                    *c = (0..self.n).map(|i| c1[(i, 0)]).collect();
                }
                if self.keep_q {
                    self.eliminations.push((rows, f));
                }
            }
        }
    }

    /// Rows ingested so far.
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// The current `n × n` R factor (of everything pushed so far).
    pub fn r(&self) -> &Matrix {
        self.r.as_ref().expect("no blocks pushed yet")
    }

    /// Solves `min ‖A·x − b‖` for the streamed `A` and `b` (requires a
    /// right-hand side to have streamed along with every block).
    pub fn solve(&self) -> Vec<f64> {
        let r = self.r();
        let mut x = self.c.clone().expect("no right-hand side was streamed");
        trsv(Triangle::Upper, &r.view(), &mut x);
        x
    }

    /// Reconstructs this accumulator's explicit thin Q (`rows_seen × n`) —
    /// test-scale only; requires [`StreamingQr::with_q`].
    ///
    /// Walks the flat tree backwards, exactly like the distributed
    /// down-sweep: the coupling block E starts as the identity and each
    /// elimination peels off its block's rows.
    pub fn q_thin(&self) -> Matrix {
        assert!(self.keep_q, "enable with_q() to reconstruct Q");
        let n = self.n;
        let mut e = Matrix::identity(n);
        // Per-block coupling blocks, bottom-up.
        let mut block_qs: Vec<Matrix> = Vec::with_capacity(self.eliminations.len());
        for (rows, f) in self.eliminations.iter().rev() {
            let mut c2 = Matrix::zeros(*rows, n);
            // [E; 0] update: C1 = E (n×n), C2 = block rows.
            tpmqrt_dense(Trans::No, f, &mut e, &mut c2);
            block_qs.push(c2);
        }
        block_qs.reverse();
        // First block: apply its dense implicit Q to [E; 0].
        let first = self.first.as_ref().expect("first block retained");
        let rows0 = first.factors.rows();
        let mut c = Matrix::zeros(rows0, n);
        c.set_sub(0, 0, &e);
        orm2r(Side::Left, Trans::No, &first.factors.view(), &first.tau, &mut c.view_mut());
        let mut blocks = vec![c];
        blocks.extend(block_qs);
        let refs: Vec<&Matrix> = blocks.iter().collect();
        Matrix::vstack_all(&refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use tsqr_linalg::verify::{orthogonality, r_distance, relative_residual};

    fn reference_r(seed: u64, m: usize, n: usize) -> Matrix {
        QrFactors::compute(&workload::full_matrix(seed, m, n), 16)
            .r()
            .upper_triangular_padded()
    }

    /// Streams the seeded workload matrix in blocks of `block_rows`.
    fn stream_workload(seed: u64, m: u64, n: usize, block_rows: usize) -> Matrix {
        let mut acc = StreamingQr::new(n);
        let mut row0 = 0u64;
        while row0 < m {
            let rows = (block_rows as u64).min(m - row0).max(if row0 == 0 { n as u64 } else { 1 });
            acc.push_block(&workload::block(seed, row0, rows as usize, n), None);
            row0 += rows;
        }
        acc.r().clone()
    }

    #[test]
    fn streaming_r_matches_reference_for_various_block_sizes() {
        let (m, n, seed) = (500u64, 7usize, 121u64);
        for block_rows in [7usize, 16, 100, 500, 333] {
            let r = stream_workload(seed, m, n, block_rows);
            assert!(
                r_distance(&r, &reference_r(seed, m as usize, n)) < 1e-10,
                "block_rows = {block_rows}"
            );
        }
    }

    #[test]
    fn q_reconstruction_round_trip() {
        let (m, n, seed) = (160usize, 5usize, 123u64);
        let a = workload::full_matrix(seed, m, n);
        let mut acc = StreamingQr::new(n).with_q();
        for chunk in [0usize..40, 40..100, 100..130, 130..160] {
            let block = a.sub_matrix(chunk.start, 0, chunk.end - chunk.start, n);
            acc.push_block(&block, None);
        }
        let q = acc.q_thin();
        assert!(orthogonality(&q) < 1e-12);
        assert!(relative_residual(&a, &q, acc.r()) < 1e-12);
    }

    #[test]
    fn streaming_least_squares() {
        let (m, n, seed) = (300usize, 6usize, 125u64);
        let a = workload::full_matrix(seed, m, n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
        let b: Vec<f64> = (0..m)
            .map(|i| (0..n).map(|j| a[(i, j)] * x_true[j]).sum())
            .collect();
        let mut acc = StreamingQr::new(n);
        let mut r0 = 0;
        for rows in [50usize, 120, 80, 50] {
            let block = a.sub_matrix(r0, 0, rows, n);
            acc.push_block(&block, Some(&b[r0..r0 + rows]));
            r0 += rows;
        }
        let x = acc.solve();
        for (g, w) in x.iter().zip(&x_true) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }

    #[test]
    fn flop_count_tracks_closed_forms() {
        let (m, n) = (4000u64, 16usize);
        let mut acc = StreamingQr::new(n);
        let block_rows = 250usize;
        let mut row0 = 0u64;
        while row0 < m {
            let block = workload::block(1, row0, block_rows, n);
            acc.push_block(&block, None);
            row0 += block_rows as u64;
        }
        // Leading order: first block geqrf + (blocks−1) dense eliminations
        // at 2·rows·n² each ≈ 2·m·n² total.
        let expect = 2.0 * m as f64 * (n * n) as f64;
        let got = acc.flops as f64;
        assert!((got / expect - 1.0).abs() < 0.1, "flops {got} vs ~{expect}");
    }

    #[test]
    fn rows_seen_and_single_block_degenerates_to_qr() {
        let a = workload::full_matrix(9, 50, 4);
        let mut acc = StreamingQr::new(4);
        acc.push_block(&a, None);
        assert_eq!(acc.rows_seen(), 50);
        let want = QrFactors::compute(&a, 8).r().upper_triangular_padded();
        assert!(r_distance(acc.r(), &want) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "first block must have at least n rows")]
    fn short_first_block_panics() {
        let mut acc = StreamingQr::new(8);
        acc.push_block(&Matrix::zeros(4, 8), None);
    }
}
