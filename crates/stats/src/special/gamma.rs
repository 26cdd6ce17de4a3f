//! Log-gamma and log-binomial-coefficient.

/// Lanczos coefficients for `g = 7`, `n = 9` (Godfrey's table).
///
/// Yields ~15 significant digits for real arguments, which is the same
/// approximation family used by Numerical Recipes and Boost.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
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

const LN_SQRT_TWO_PI: f64 = 0.918_938_533_204_672_7;
const PI: f64 = std::f64::consts::PI;

/// Natural logarithm of the gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
/// Accuracy is ~1e-14 relative over the positive reals.
///
/// # Panics
///
/// Panics in debug builds if `x` is not finite and positive; in release
/// builds non-positive input returns `f64::INFINITY` (the limit at the
/// poles), matching the conventions of C `lgamma`.
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x.is_finite(), "ln_gamma: non-finite input {x}");
    if x <= 0.0 {
        // Poles at 0, -1, -2, ...; the paper's domain never goes here, but
        // return the mathematically consistent limit rather than panicking.
        if x == x.floor() {
            return f64::INFINITY;
        }
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        return (PI / (PI * x).sin().abs()).ln() - ln_gamma(1.0 - x);
    }
    if x < 0.5 {
        // Reflection keeps the Lanczos series in its sweet spot.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    LN_SQRT_TWO_PI + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural logarithm of the binomial coefficient `ln C(n, k)`.
///
/// Defined for `0 <= k <= n`. Exact integer arithmetic is not required:
/// the log-gamma route is stable well beyond `n = 10^15`.
#[must_use]
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose: k = {k} exceeds n = {n}");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from Python `math.lgamma` (IEEE double).
    #[allow(clippy::approx_constant)] // these are test references, ln 2 included
    const LGAMMA_REFS: &[(f64, f64)] = &[
        (0.5, 0.5723649429247001), // ln √π
        (1.0, 0.0),
        (1.5, -0.12078223763524522),
        (2.0, 0.0),
        (3.0, 0.6931471805599453), // ln 2
        (5.0, 3.1780538303479458), // ln 24
        (10.5, 13.940625219403763),
        (100.0, 359.1342053695754),
        (1e6, 12815504.569147902),
        (1.0 / 3.0, 0.9854206469277089),
    ];

    #[test]
    fn ln_gamma_matches_references() {
        for &(x, want) in LGAMMA_REFS {
            let got = ln_gamma(x);
            let tol = 1e-12 * want.abs().max(1.0);
            assert!(
                (got - want).abs() < tol,
                "ln_gamma({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn ln_gamma_recurrence_holds() {
        // Γ(x+1) = x Γ(x)  ⇔  lnΓ(x+1) = ln x + lnΓ(x)
        for i in 1..200 {
            let x = 0.07 * i as f64;
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!(
                (lhs - rhs).abs() < 1e-11 * lhs.abs().max(1.0),
                "recurrence failed at x = {x}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn ln_gamma_poles_return_infinity() {
        assert!(ln_gamma(0.0).is_infinite());
        assert!(ln_gamma(-3.0).is_infinite());
    }

    #[test]
    fn ln_gamma_reflection_negative_arguments() {
        // Γ(-0.5) = -2√π, so lnΓ(-0.5) = ln(2√π).
        let want = (2.0 * std::f64::consts::PI.sqrt()).ln();
        assert!((ln_gamma(-0.5) - want).abs() < 1e-12);
    }

    #[test]
    fn ln_choose_small_cases_exact() {
        assert_eq!(ln_choose(5, 0), 0.0);
        assert_eq!(ln_choose(5, 5), 0.0);
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 5) - 252f64.ln()).abs() < 1e-12);
        assert!((ln_choose(52, 5) - 2_598_960f64.ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn ln_choose_rejects_k_above_n() {
        let _ = ln_choose(3, 4);
    }

    #[test]
    fn ln_choose_symmetry() {
        for n in [10u64, 37, 100, 1000] {
            for k in 0..=n.min(40) {
                let a = ln_choose(n, k);
                let b = ln_choose(n, n - k);
                assert!((a - b).abs() < 1e-9 * a.abs().max(1.0));
            }
        }
    }
}
