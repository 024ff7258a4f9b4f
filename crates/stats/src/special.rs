//! Special functions used by the probability distributions and by the
//! analytic model in `lsiq-core`.
//!
//! The implementations favour clarity and accuracy over raw speed; every
//! function here is evaluated at most a few million times per experiment.

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9), which is accurate to about
/// 1e-13 over the positive real axis.
///
/// # Panics
///
/// Panics if `x` is not finite or not strictly positive.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite() && x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients for g = 7, kept at full published precision.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its accurate region.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of `n!`.
pub fn ln_factorial(n: u64) -> f64 {
    // Small values from a table for exactness; larger values via ln_gamma.
    #[allow(clippy::approx_constant, clippy::excessive_precision)]
    const TABLE: [f64; 21] = [
        0.0,
        0.0,
        0.693_147_180_559_945_3,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_894,
        30.671_860_106_080_675,
        33.505_073_450_136_89,
        36.395_445_208_033_05,
        39.339_884_187_199_495,
        42.335_616_460_753_485,
    ];
    if n < TABLE.len() as u64 {
        TABLE[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// Natural logarithm of the binomial coefficient `C(n, k)`.
///
/// Returns negative infinity when `k > n`, matching the convention that the
/// coefficient is zero outside its support.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial coefficient `C(n, k)` as a float.
///
/// Exact for small arguments, computed through logarithms for large ones.
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    if n <= 62 {
        // Exact integer arithmetic: after each step `acc` equals C(n, i+1),
        // which is an integer, so the division is exact and nothing overflows
        // for n up to 62.
        let mut acc: u128 = 1;
        for i in 0..k {
            acc = acc * (n - i) as u128 / (i as u128 + 1);
        }
        acc as f64
    } else {
        ln_binomial(n, k).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!(
            (actual - expected).abs() <= tol * expected.abs().max(1.0),
            "actual {actual} vs expected {expected}"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..20 {
            let expected: f64 = (1..n).map(|k| (k as f64).ln()).sum();
            assert_close(ln_gamma(n as f64), expected, 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert_close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_matches_direct_product() {
        for n in 0u64..30 {
            let direct: f64 = (1..=n).map(|k| (k as f64).ln()).sum();
            assert_close(ln_factorial(n), direct, 1e-12);
        }
    }

    #[test]
    fn binomial_small_values_exact() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 5), 252.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
        assert_eq!(binomial(4, 7), 0.0);
    }

    #[test]
    fn binomial_large_values_consistent_with_logs() {
        let direct = binomial(200, 17);
        let via_log = ln_binomial(200, 17).exp();
        assert_close(direct, via_log, 1e-9);
    }

    #[test]
    fn ln_binomial_out_of_support() {
        assert_eq!(ln_binomial(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn pascals_rule_holds() {
        for n in 1u64..60 {
            for k in 1..n {
                let lhs = binomial(n, k);
                let rhs = binomial(n - 1, k - 1) + binomial(n - 1, k);
                assert_close(lhs, rhs, 1e-12);
            }
        }
    }
}
