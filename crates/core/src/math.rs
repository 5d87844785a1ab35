//! Numerical helpers: the log-gamma function needed by the likelihood.
//!
//! Implemented in-crate (Lanczos approximation) to avoid an extra dependency;
//! the likelihood only needs `ln Γ(x)` for `x > 0`.

/// Lanczos coefficients for g = 7, n = 9.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural logarithm of the gamma function for strictly positive arguments.
///
/// Accuracy is ~1e-12 relative over the range used by the likelihood
/// (arguments from `β = 0.01` up to corpus-size counts).
///
/// # Panics
/// Panics (in debug builds) if `x` is not strictly positive.
pub(crate) fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS_COEF[0];
    for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln Γ(x + n) − ln Γ(x)` computed stably; for small integer `n` this is just
/// the log of a rising factorial, which avoids cancellation for large `x`.
pub(crate) fn ln_gamma_ratio(x: f64, n: u64) -> f64 {
    if n <= 32 {
        let mut acc = 0.0;
        for i in 0..n {
            acc += (x + i as f64).ln();
        }
        acc
    } else {
        ln_gamma(x + n as f64) - ln_gamma(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    fn satisfies_recurrence() {
        // ln Γ(x+1) = ln Γ(x) + ln x over a wide range.
        for &x in &[0.01, 0.1, 0.9, 1.5, 10.0, 123.456, 1e4, 1e7] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = ln_gamma(x) + x.ln();
            assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0), "x = {x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn factorials_match() {
        let mut fact = 1.0f64;
        for n in 1..20u32 {
            fact *= n as f64;
            assert!((ln_gamma(n as f64 + 1.0) - fact.ln()).abs() < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn ratio_matches_direct_difference() {
        for &x in &[0.01, 0.5, 3.0, 100.0] {
            for &n in &[0u64, 1, 5, 31, 32, 100, 1000] {
                let direct = ln_gamma(x + n as f64) - ln_gamma(x);
                let ratio = ln_gamma_ratio(x, n);
                assert!(
                    (direct - ratio).abs() < 1e-7 * direct.abs().max(1.0),
                    "x={x} n={n}: {direct} vs {ratio}"
                );
            }
        }
    }

    #[test]
    fn stirling_regime_is_sane() {
        // For large x, ln Γ(x) ≈ x ln x − x − 0.5 ln(x / 2π).
        let x: f64 = 1e8;
        let approx = x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI / x).ln();
        assert!((ln_gamma(x) - approx).abs() / approx.abs() < 1e-8);
    }
}
