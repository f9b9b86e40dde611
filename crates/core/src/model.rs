//! The paper's performance model (§IV): Tables I and II plus Eq. (1).
//!
//! For an `M × N` TS matrix over `P` domains on a homogeneous network:
//!
//! | algorithm      | #msgs          | volume (words)     | flops per domain                          |
//! |----------------|----------------|--------------------|-------------------------------------------|
//! | ScaLAPACK QR2  | `2N·log₂P`     | `log₂P·N²/2`       | `(2MN² − 2N³/3)/P`                         |
//! | TSQR           | `log₂P`        | `log₂P·N²/2`       | `(2MN² − 2N³/3)/P + 2/3·log₂P·N³`          |
//!
//! and exactly double everything when both Q and R are wanted (Table II).
//! `time = β·#msgs + α·volume + γ·flops` (Eq. (1)). The five Properties of
//! §IV are provided as checkable predicates used by the test-suite and the
//! experiment harness.

/// Closed-form communication/computation breakdown of one algorithm run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Messages on the critical path.
    pub msgs: f64,
    /// Words (8-byte values) exchanged on the critical path.
    pub words: f64,
    /// Flops on the critical path (per domain).
    pub flops: f64,
}

impl Breakdown {
    /// Evaluates Eq. (1): `β·#msgs + α_word·words + γ·flops`.
    ///
    /// `beta_s` is the per-message latency in seconds, `alpha_s_per_word`
    /// the inverse bandwidth in seconds per 8-byte word, and
    /// `gamma_s_per_flop` the inverse flop rate.
    pub fn time(&self, beta_s: f64, alpha_s_per_word: f64, gamma_s_per_flop: f64) -> f64 {
        beta_s * self.msgs + alpha_s_per_word * self.words + gamma_s_per_flop * self.flops
    }
}

fn log2(p: u64) -> f64 {
    assert!(p > 0, "need at least one domain");
    (p as f64).log2()
}

/// Table I, row "ScaLAPACK QR2": R-factor only.
pub fn scalapack_r_only(m: u64, n: u64, p: u64) -> Breakdown {
    let (mf, nf) = (m as f64, n as f64);
    Breakdown {
        msgs: 2.0 * nf * log2(p),
        words: log2(p) * nf * nf / 2.0,
        flops: (2.0 * mf * nf * nf - 2.0 / 3.0 * nf * nf * nf) / p as f64,
    }
}

/// Table I, row "TSQR": R-factor only.
pub fn tsqr_r_only(m: u64, n: u64, p: u64) -> Breakdown {
    let (mf, nf) = (m as f64, n as f64);
    Breakdown {
        msgs: log2(p),
        words: log2(p) * nf * nf / 2.0,
        flops: (2.0 * mf * nf * nf - 2.0 / 3.0 * nf * nf * nf) / p as f64
            + 2.0 / 3.0 * log2(p) * nf * nf * nf,
    }
}

/// Table II, row "ScaLAPACK QR2": both Q and R.
pub fn scalapack_q_and_r(m: u64, n: u64, p: u64) -> Breakdown {
    let b = scalapack_r_only(m, n, p);
    Breakdown { msgs: 2.0 * b.msgs, words: 2.0 * b.words, flops: 2.0 * b.flops }
}

/// Table II, row "TSQR": both Q and R.
pub fn tsqr_q_and_r(m: u64, n: u64, p: u64) -> Breakdown {
    let b = tsqr_r_only(m, n, p);
    Breakdown { msgs: 2.0 * b.msgs, words: 2.0 * b.words, flops: 2.0 * b.flops }
}

/// The useful flops the paper's Gflop/s axes are computed from:
/// `2MN² − 2N³/3` for R-only, doubled when Q is formed.
pub fn useful_flops(m: u64, n: u64, with_q: bool) -> f64 {
    let (mf, nf) = (m as f64, n as f64);
    let base = 2.0 * mf * nf * nf - 2.0 / 3.0 * nf * nf * nf;
    if with_q {
        2.0 * base
    } else {
        base
    }
}

/// Property 3: performance increases with M (communication is independent
/// of M, computation grows). Returns predicted Gflop/s for TSQR.
pub fn tsqr_gflops(m: u64, n: u64, p: u64, beta: f64, alpha: f64, gamma: f64) -> f64 {
    let t = tsqr_r_only(m, n, p).time(beta, alpha, gamma);
    useful_flops(m, n, false) / t / 1e9
}

/// Predicted ScaLAPACK QR2 Gflop/s under Eq. (1).
pub fn scalapack_gflops(m: u64, n: u64, p: u64, beta: f64, alpha: f64, gamma: f64) -> f64 {
    let t = scalapack_r_only(m, n, p).time(beta, alpha, gamma);
    useful_flops(m, n, false) / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    // Grid-flavoured constants: 1 ms latency, 100 Mb/s (≈ 6.4e-7 s/word),
    // 1 Gflop/s.
    const BETA: f64 = 1e-3;
    const ALPHA: f64 = 64.0 / 100e6;
    const GAMMA: f64 = 1e-9;

    #[test]
    fn table_one_identities() {
        let (m, n, p) = (1 << 22, 64, 256);
        let qr2 = scalapack_r_only(m, n, p);
        let tsqr = tsqr_r_only(m, n, p);
        // Message ratio is exactly 2N.
        assert!((qr2.msgs / tsqr.msgs - 2.0 * n as f64).abs() < 1e-9);
        // Volume identical.
        assert_eq!(qr2.words, tsqr.words);
        // TSQR pays the extra 2/3·log₂P·N³ flops.
        let extra = tsqr.flops - qr2.flops;
        assert!((extra - 2.0 / 3.0 * 8.0 * (n as f64).powi(3)).abs() / extra < 1e-12);
    }

    #[test]
    fn property1_holds_in_model() {
        let (m, n, p) = (1 << 22, 64, 64);
        let ratio = tsqr_q_and_r(m, n, p).time(BETA, ALPHA, GAMMA)
            / tsqr_r_only(m, n, p).time(BETA, ALPHA, GAMMA);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn property3_performance_increases_with_m() {
        let mut last = 0.0;
        for m in [1u64 << 17, 1 << 20, 1 << 23, 1 << 25] {
            let g = tsqr_gflops(m, 64, 256, BETA, ALPHA, GAMMA);
            assert!(g > last, "Gflop/s must grow with M");
            last = g;
        }
    }

    #[test]
    fn property4_performance_increases_with_n() {
        let mut last = 0.0;
        for n in [16u64, 32, 64, 128] {
            let g = tsqr_gflops(1 << 23, n, 256, BETA, ALPHA, GAMMA);
            assert!(g > last, "Gflop/s must grow with N (n={n})");
            last = g;
        }
    }

    #[test]
    fn property5_tsqr_wins_midrange_loses_at_large_n() {
        let (m, p) = (1u64 << 21, 256u64);
        // Mid-range N: TSQR faster.
        for n in [16u64, 64, 128] {
            let t_tsqr = tsqr_r_only(m, n, p).time(BETA, ALPHA, GAMMA);
            let t_qr2 = scalapack_r_only(m, n, p).time(BETA, ALPHA, GAMMA);
            assert!(t_tsqr < t_qr2, "TSQR must win at N={n}");
        }
        // The extra 2/3·log₂P·N³ term eventually dominates: find a
        // crossover — for a short-ish matrix the flop surcharge at huge N
        // must make TSQR slower.
        let n_big = 2048;
        let t_tsqr = tsqr_r_only(m, n_big, p).time(BETA, ALPHA, GAMMA);
        let t_qr2 = scalapack_r_only(m, n_big, p).time(BETA, ALPHA, GAMMA);
        assert!(
            t_tsqr > t_qr2,
            "ScaLAPACK must win at very large N (Property 5): {t_tsqr} vs {t_qr2}"
        );
    }

    #[test]
    fn useful_flops_doubles_with_q() {
        assert_eq!(useful_flops(1000, 10, true), 2.0 * useful_flops(1000, 10, false));
    }

    #[test]
    fn eq1_is_linear_in_terms() {
        let b = Breakdown { msgs: 2.0, words: 10.0, flops: 100.0 };
        let t = b.time(1.0, 0.1, 0.01);
        assert!((t - (2.0 + 1.0 + 1.0)).abs() < 1e-12);
    }
}
