//! Closed-form floating-point operation counts for the kernels in this
//! crate.
//!
//! These are the standard leading-order LAPACK working notes counts; the
//! symbolic execution engine of `tsqr-core` charges exactly these costs, and
//! the performance model of the paper (Tables I and II) is expressed in the
//! same terms, so model-vs-measured comparisons are apples to apples.

/// Flops of a Householder QR of an `m × n` matrix (R only):
/// `2mn² − 2n³/3` for `m ≥ n`.
pub fn geqrf(m: u64, n: u64) -> u64 {
    debug_assert!(m >= n, "geqrf flops formula assumes a tall matrix");
    (2 * m * n * n).saturating_sub(2 * n * n * n / 3)
}

/// Flops of the structured QR of two stacked `n × n` triangles
/// ([`crate::stacked::tpqrt`]): `≈ 2n³/3`.
///
/// This is the per-tree-level surcharge in the paper's Table I
/// (`2/3·log₂(P)·N³` over `log₂(P)` levels).
pub fn tpqrt(n: u64) -> u64 {
    2 * n * n * n / 3
}

/// Flops of forming the thin explicit Q (`m × n`) from a factored `m × n`
/// matrix (`org2r`): `2mn² − 2n³/3` to leading order — the same as the
/// factorization, which is why computing both Q and R costs twice the
/// R-only factorization (the paper's Property 1 / Table II).
pub fn org2r(m: u64, n: u64) -> u64 {
    geqrf(m, n)
}

/// Flops of applying the implicit Q of a [`crate::stacked::tpqrt`]
/// factorization to a stacked pair of `n × k` blocks: `≈ 2n²k` per side
/// pair (dot + axpy over the triangular profile), i.e. `4·(n²/2)·k·…` —
/// we charge `3n²k` to leading order (dot `n²k`, two updates `2n²k`).
pub fn tpmqrt(n: u64, k: u64) -> u64 {
    3 * n * n * k
}

/// Flops of the structured QR of an `n × n` triangle stacked on a dense
/// `q × n` block ([`crate::stacked::tpqrt_dense`]): `≈ 2qn²`.
pub fn tpqrt_dense(n: u64, q: u64) -> u64 {
    2 * q * n * n
}

/// Flops of applying a [`crate::stacked::tpqrt_dense`] Q to a stacked pair
/// with `k` columns: `≈ 4qnk`.
pub fn tpmqrt_dense(n: u64, q: u64, k: u64) -> u64 {
    4 * q * n * k
}

/// Flops of `C += op(A)·op(B)` with `C` being `m × n` and inner dimension
/// `k`: `2mnk`.
pub fn gemm(m: u64, n: u64, k: u64) -> u64 {
    2 * m * n * k
}

/// Flops charged to one column step of the distributed `PDGEQR2` panel
/// factorization.
///
/// `m_loc` is the member's local row count, `j` the column index, `g` the
/// group size and `n_trail` the trailing column count. ScaLAPACK
/// distributes rows block-cyclically, so the `j` rows already reduced to
/// the triangle are shed *uniformly* across the group — each member works
/// on `≈ m_loc − j/g` active rows. Reflector generation costs `≈ 2·a`
/// flops and the update `≈ 4·a·n_trail`.
pub fn pdgeqr2_column(m_loc: u64, j: u64, g: u64, n_trail: u64) -> u64 {
    let active = m_loc.saturating_sub(j / g.max(1));
    2 * active + 4 * active * n_trail
}

// archlint: allow(reach) — Table I's closed form; the ScaLAPACK unit tests
// pin the simulator's per-rank flop charges against it.
/// Total flops of `PDGEQR2` on a local `m_loc × n` block in a group of
/// `g` — summing [`pdgeqr2_column`] reproduces
/// `≈ 2·m_loc·n² − (2n³/3)/g`, i.e. the ScaLAPACK QR2 row of Table I with
/// `M = g·m_loc` divided across the `P = g` processes.
pub fn pdgeqr2_local(m_loc: u64, n: u64, g: u64) -> u64 {
    (0..n).map(|j| pdgeqr2_column(m_loc, j, g, n - j - 1)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geqrf_square_and_tall() {
        assert_eq!(geqrf(10, 10), 2 * 10 * 100 - 2 * 1000 / 3);
        // Very tall: dominated by 2mn².
        let m = 1_000_000;
        let n = 64;
        let f = geqrf(m, n);
        assert!((f as f64 / (2.0 * m as f64 * (n * n) as f64) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn structured_combine_is_about_5x_cheaper() {
        let n = 256;
        let ratio = geqrf(2 * n, n) as f64 / tpqrt(n) as f64;
        assert!((4.0..6.0).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn pdgeqr2_local_matches_closed_form() {
        // A group of g processes, m_loc rows each: per-process flops must
        // track 2·m_loc·n² − (2n³/3)/g (Table I with M = g·m_loc, P = g).
        for g in [1u64, 2, 8, 64] {
            let (m_loc, n) = (10_000u64, 64u64);
            let measured = pdgeqr2_local(m_loc, n, g) as f64;
            let closed = 2.0 * m_loc as f64 * (n * n) as f64
                - 2.0 / 3.0 * (n * n * n) as f64 / g as f64;
            assert!(
                (measured / closed - 1.0).abs() < 0.01,
                "g={g}: measured {measured} vs closed-form {closed}"
            );
        }
    }

    #[test]
    fn pdgeqr2_single_process_matches_geqrf() {
        // With g = 1 the per-column charges sum to the dense QR count.
        let (m, n) = (5_000u64, 32u64);
        let a = pdgeqr2_local(m, n, 1) as f64;
        let b = geqrf(m, n) as f64;
        assert!((a / b - 1.0).abs() < 0.01, "{a} vs {b}");
    }

    #[test]
    fn q_formation_doubles_total_cost() {
        let (m, n) = (1_000_000u64, 128u64);
        let r_only = geqrf(m, n);
        let with_q = r_only + org2r(m, n);
        let ratio = with_q as f64 / r_only as f64;
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gemm_count() {
        assert_eq!(gemm(2, 3, 4), 48);
    }
}
