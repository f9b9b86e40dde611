//! Property-based tests of the dense-kernel invariants.

use proptest::prelude::*;

use tsqr_linalg::blas;
use tsqr_linalg::prelude::*;
use tsqr_linalg::qr::{larfb_left, larft, Trans};
use tsqr_linalg::stacked::{stack_qr_dense, tpmqrt_dense, tpqrt_dense};
use tsqr_linalg::verify::{is_upper_triangular, orthogonality, r_distance, relative_residual};
use tsqr_linalg::Matrix;

const TOL: f64 = 1e-10;

/// A deterministic pseudo-random matrix from proptest-provided knobs.
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random_uniform(rows, cols, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Q·R reproduces A and Q has orthonormal columns for arbitrary tall
    /// shapes and panel widths.
    #[test]
    fn qr_invariants(
        m in 1usize..60,
        extra in 0usize..80,
        nb in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let rows = m + extra.max(1); // ensure m >= 1 row
        let cols = m.min(rows).max(1);
        let a = mat(rows, cols, seed);
        let f = QrFactors::compute(&a, nb);
        let q = f.q_thin();
        let r = f.r();
        prop_assert!(relative_residual(&a, &q, &r) < TOL);
        prop_assert!(orthogonality(&q) < TOL);
        prop_assert!(is_upper_triangular(&r.upper_triangular_padded()));
    }

    /// Blocked and unblocked factorizations agree bit-for-bit in exact
    /// arithmetic terms (same reflectors), so R matches to roundoff.
    #[test]
    fn blocked_matches_unblocked(
        m in 4usize..50,
        n in 1usize..12,
        nb in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        let rows = m.max(n);
        let a = mat(rows, n, seed);
        let blocked = QrFactors::compute(&a, nb);
        let unblocked = QrFactors::compute_unblocked(&a);
        prop_assert!(r_distance(&blocked.r(), &unblocked.r()) < 1e-11);
    }

    /// The Gram identity RᵀR = AᵀA holds for every factorization.
    #[test]
    fn gram_identity(m in 2usize..60, n in 1usize..10, seed in 0u64..1_000_000) {
        let rows = m.max(n);
        let a = mat(rows, n, seed);
        let r = QrFactors::compute(&a, 8).r();
        let gram_a = a.t_matmul(&a);
        let gram_r = r.t_matmul(&r);
        let err = gram_r.sub_elem(&gram_a).norm_fro() / gram_a.norm_fro().max(1e-300);
        prop_assert!(err < 1e-11);
    }

    /// The stacked-triangles combine is associative up to row signs.
    #[test]
    fn combine_associative(n in 1usize..12, s1 in 0u64..1000, s2 in 0u64..1000, s3 in 0u64..1000) {
        let r = |s| mat(n, n, s).upper_triangular_padded();
        let combine = |a: &Matrix, b: &Matrix| {
            let mut x = a.clone();
            let mut y = b.clone();
            tpqrt(&mut x, &mut y);
            x.upper_triangular_padded()
        };
        let (r1, r2, r3) = (r(s1), r(s2), r(s3));
        let left = combine(&combine(&r1, &r2), &r3);
        let right = combine(&r1, &combine(&r2, &r3));
        prop_assert!(r_distance(&left, &right) < 1e-10);
    }

    /// Combining preserves the Gram matrix: RᵀR = R1ᵀR1 + R2ᵀR2 — the
    /// algebraic reason the reduction computes the right factorization.
    #[test]
    fn combine_preserves_gram(n in 1usize..12, s1 in 0u64..1000, s2 in 0u64..1000) {
        let r1 = mat(n, n, s1).upper_triangular_padded();
        let r2 = mat(n, n, s2).upper_triangular_padded();
        let mut a = r1.clone();
        let mut b = r2.clone();
        tpqrt(&mut a, &mut b);
        let r = a.upper_triangular_padded();
        let want = Matrix::from_fn(n, n, |i, j| {
            r1.t_matmul(&r1)[(i, j)] + r2.t_matmul(&r2)[(i, j)]
        });
        let err = r.t_matmul(&r).sub_elem(&want).norm_max();
        prop_assert!(err < 1e-10 * (n as f64) * want.norm_max().max(1.0));
    }

    /// tpqrt_dense: stacking a triangle on a dense block and factoring is
    /// the same (up to signs) as a dense QR of the stack.
    #[test]
    fn dense_stack_kernel(n in 1usize..10, q in 1usize..14, s in 0u64..1000) {
        let r1 = mat(n, n, s).upper_triangular_padded();
        let b = mat(q, n, s + 1);
        let mut a = r1.clone();
        let mut bb = b.clone();
        tpqrt_dense(&mut a, &mut bb);
        let reference = QrFactors::compute_unblocked(&r1.vstack(&b));
        let got = tsqr_linalg::verify::sign_normalize_r(&a.upper_triangular_padded());
        let want = tsqr_linalg::verify::sign_normalize_r(
            &reference.r().sub_matrix(0, 0, n, n),
        );
        prop_assert!(got.approx_eq(&want, 1e-10));
    }

    /// Applying the dense-stack Q then its transpose is the identity.
    #[test]
    fn dense_stack_q_round_trip(n in 1usize..8, q in 1usize..10, k in 1usize..6, s in 0u64..1000) {
        let mut r1 = mat(n, n, s).upper_triangular_padded();
        let mut b = mat(q, n, s + 1);
        let f = tpqrt_dense(&mut r1, &mut b);
        let c1_0 = mat(n, k, s + 2);
        let c2_0 = mat(q, k, s + 3);
        let mut c1 = c1_0.clone();
        let mut c2 = c2_0.clone();
        tpmqrt_dense(Trans::Yes, &f, &mut c1, &mut c2);
        tpmqrt_dense(Trans::No, &f, &mut c1, &mut c2);
        prop_assert!(c1.approx_eq(&c1_0, 1e-11));
        prop_assert!(c2.approx_eq(&c2_0, 1e-11));
    }

    /// gemm agrees with the naive triple loop for random shapes, scalars
    /// and transposes.
    #[test]
    fn gemm_vs_naive(
        m in 1usize..20,
        n in 1usize..20,
        k in 1usize..20,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let ta = if ta { Trans::Yes } else { Trans::No };
        let tb = if tb { Trans::Yes } else { Trans::No };
        let a = match ta { Trans::No => mat(m, k, seed), Trans::Yes => mat(k, m, seed) };
        let b = match tb { Trans::No => mat(k, n, seed + 1), Trans::Yes => mat(n, k, seed + 1) };
        let c0 = mat(m, n, seed + 2);
        let mut c = c0.clone();
        blas::gemm(ta, tb, alpha, &a.view(), &b.view(), beta, &mut c.view_mut());
        let ao = match ta { Trans::No => a.clone(), Trans::Yes => a.transpose() };
        let bo = match tb { Trans::No => b.clone(), Trans::Yes => b.transpose() };
        let want = Matrix::from_fn(m, n, |i, j| {
            beta * c0[(i, j)]
                + alpha * (0..k).map(|l| ao[(i, l)] * bo[(l, j)]).sum::<f64>()
        });
        prop_assert!(c.approx_eq(&want, 1e-11));
    }

    /// The streaming block update `larfb_left` applies the same `Q` (and
    /// `Qᵀ`) as the reflectors one at a time, for reflector counts and row
    /// counts on both sides of its four-reflector sweeps.
    #[test]
    fn larfb_matches_sequential_reflectors(
        k in 1usize..13,
        extra in 0usize..58,
        n in 0usize..9,
        seed in 0u64..1_000_000,
    ) {
        let m = k + extra;
        let f = QrFactors::compute_unblocked(&mat(m, k, seed));
        let t = larft(&f.factors.view(), &f.tau);
        let c0 = mat(m, n, seed + 1);
        for trans in [Trans::Yes, Trans::No] {
            let mut seq = c0.clone();
            orm2r(Side::Left, trans, &f.factors.view(), &f.tau, &mut seq.view_mut());
            let mut blk = c0.clone();
            larfb_left(trans, &f.factors.view(), &t.view(), &mut blk.view_mut());
            prop_assert!(blk.approx_eq(&seq, 1e-12), "trans {trans:?}, m {m}, k {k}, n {n}");
        }
    }

    /// The structured combine gives the dense stack QR's R up to row signs,
    /// for sizes across the eight-wide chunks of `dot`.
    #[test]
    fn tpqrt_matches_dense_stack_qr(n in 1usize..24, s1 in 0u64..1000, s2 in 0u64..1000) {
        let r1 = mat(n, n, s1).upper_triangular_padded();
        let r2 = mat(n, n, s2).upper_triangular_padded();
        let (mut a, mut b) = (r1.clone(), r2.clone());
        tpqrt(&mut a, &mut b);
        let got = sign_normalize_r(&a.upper_triangular_padded());
        let want = sign_normalize_r(&stack_qr_dense(&r1, &r2).r());
        prop_assert!(got.approx_eq(&want, 1e-11 * want.norm_max().max(1.0)));
    }

    /// The eight-way `dot` agrees with a left-to-right sum to 1e-13 of
    /// `Σ|xᵢyᵢ|`, the scale its rounding error is bounded by.
    #[test]
    fn dot_matches_naive_sum(len in 0usize..40, seed in 0u64..1_000_000) {
        let x = mat(len, 1, seed);
        let y = mat(len, 1, seed + 1);
        let (x, y) = (x.as_slice(), y.as_slice());
        let naive = x.iter().zip(y).fold(0.0, |s, (a, b)| s + a * b);
        let scale: f64 = x.iter().zip(y).map(|(a, b)| (a * b).abs()).sum();
        prop_assert!((blas::dot(x, y) - naive).abs() <= 1e-13 * scale);
    }

    /// nrm2 is scale-invariant: ||c·x|| = |c|·||x||.
    #[test]
    fn nrm2_homogeneous(len in 1usize..64, c in -1e3f64..1e3, seed in 0u64..1_000_000) {
        let x = mat(len, 1, seed);
        let scaled: Vec<f64> = x.as_slice().iter().map(|v| c * v).collect();
        let lhs = blas::nrm2(&scaled);
        let rhs = c.abs() * blas::nrm2(x.as_slice());
        prop_assert!((lhs - rhs).abs() <= 1e-12 * rhs.max(1.0));
    }

    /// Sign normalization is idempotent and sign-invariant.
    #[test]
    fn sign_normalize_properties(n in 1usize..10, seed in 0u64..1_000_000, flips in 0u32..256) {
        let r = mat(n, n, seed).upper_triangular_padded();
        let norm = tsqr_linalg::verify::sign_normalize_r(&r);
        prop_assert!(tsqr_linalg::verify::sign_normalize_r(&norm).approx_eq(&norm, 0.0));
        // Flip arbitrary rows: normalization must erase the flips.
        let mut flipped = r.clone();
        for i in 0..n {
            if flips >> (i % 32) & 1 == 1 {
                for j in 0..n {
                    flipped[(i, j)] = -flipped[(i, j)];
                }
            }
        }
        prop_assert!(r_distance(&r, &flipped) < 1e-15);
    }
}
