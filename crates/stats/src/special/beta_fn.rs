//! Regularized incomplete beta function and its inverse.
//!
//! `betainc(a, b, x) = I_x(a, b)` is the CDF of a `Beta(a, b)` random
//! variable; `betainc_inv` is its quantile. These two routines carry the
//! whole Bayesian side of the paper: ET intervals are two quantile
//! evaluations (Eq. 9), the HPD limiting cases are one (Eq. 10/11), and the
//! exact HPD solver evaluates the CDF at every Newton iterate.
//!
//! Implementation follows the classic continued-fraction scheme (modified
//! Lentz) with a Gauss–Legendre quadrature path for very large parameters,
//! and a Halley-refined Newton inversion with bisection fallback.

use super::gamma::ln_gamma;
use super::{EPS, FPMIN};
use crate::{Result, StatsError};

/// Iteration cap for the continued fraction.
const MAX_ITER: usize = 400;

/// Parameter size above which the quadrature path is used (Numerical
/// Recipes switches at 3000; the continued fraction slows down there).
const QUAD_THRESHOLD: f64 = 3000.0;

/// Natural logarithm of the complete beta function `ln B(a, b)`.
#[must_use]
pub fn ln_beta(a: f64, b: f64) -> f64 {
    debug_assert!(a > 0.0 && b > 0.0, "ln_beta: non-positive argument");
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

fn check_shape(name: &'static str, v: f64) -> Result<()> {
    if !(v.is_finite() && v > 0.0) {
        return Err(StatsError::InvalidParameter {
            name,
            value: v,
            constraint: "must be finite and > 0",
        });
    }
    Ok(())
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// `a, b > 0`, `x ∈ [0, 1]`. Relative accuracy is ~1e-13 except within a
/// few ulps of the transition point for extremely large parameters.
pub fn betainc(a: f64, b: f64, x: f64) -> Result<f64> {
    check_shape("a", a)?;
    check_shape("b", b)?;
    betainc_checked_pre(a, b, x, None)
}

/// [`betainc`] with the normalization constant `ln B(a, b)` supplied by
/// the caller.
///
/// The continued-fraction prefactor needs `ln B(a, b)` — three `ln_gamma`
/// evaluations — on every call. Posterior objects cache that constant
/// once at construction, so the per-`cdf` cost drops to the continued
/// fraction alone.
/// Passing a wrong constant silently yields a wrong result; callers are
/// expected to own the invariant.
pub fn betainc_pre(a: f64, b: f64, x: f64, ln_beta_ab: f64) -> Result<f64> {
    check_shape("a", a)?;
    check_shape("b", b)?;
    betainc_checked_pre(a, b, x, Some(ln_beta_ab))
}

/// Shared body of [`betainc`] / [`betainc_pre`] after shape validation.
fn betainc_checked_pre(a: f64, b: f64, x: f64, ln_beta_ab: Option<f64>) -> Result<f64> {
    if !(0.0..=1.0).contains(&x) {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: x,
            constraint: "must lie in [0, 1]",
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x == 1.0 {
        return Ok(1.0);
    }
    if a > QUAD_THRESHOLD && b > QUAD_THRESHOLD {
        // The quadrature path normalizes through ln_gamma directly and
        // has no use for the cached constant.
        return Ok(betai_quadrature(a, b, x));
    }
    // Prefactor x^a (1-x)^b / (a B(a, b)) shared by both CF branches.
    let ln_bt = a * x.ln() + b * (1.0 - x).ln() - ln_beta_ab.unwrap_or_else(|| ln_beta(a, b));
    if x < (a + 1.0) / (a + b + 2.0) {
        Ok((ln_bt.exp() * betacf(a, b, x)? / a).clamp(0.0, 1.0))
    } else {
        Ok((1.0 - ln_bt.exp() * betacf(b, a, 1.0 - x)? / b).clamp(0.0, 1.0))
    }
}

/// Continued fraction for the incomplete beta (modified Lentz algorithm).
fn betacf(a: f64, b: f64, x: f64) -> Result<f64> {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() <= EPS {
            return Ok(h);
        }
    }
    Err(StatsError::NoConvergence {
        algorithm: "betacf",
        iterations: MAX_ITER,
    })
}

/// 18-point Gauss–Legendre abscissas/weights on (0, 1) used by the
/// large-parameter quadrature (Numerical Recipes `betaiapprox`).
const GL_Y: [f64; 18] = [
    0.0021695375159141994,
    0.011413521097787704,
    0.027972308950302116,
    0.051_727_015_600_492_42,
    0.082_502_225_484_340_94,
    0.12007019910960293,
    0.164_152_833_007_524_7,
    0.21442376986779355,
    0.27051082840644336,
    0.33199876341447887,
    0.39843234186401943,
    0.46931971407375483,
    0.544_136_055_566_579_7,
    0.622_327_452_880_310_8,
    0.703_315_004_655_971_7,
    0.786_499_107_683_134_5,
    0.871_263_896_190_615_2,
    0.956_981_801_526_291_4,
];
const GL_W: [f64; 18] = [
    0.005_565_719_664_244_557,
    0.012_915_947_284_065_42,
    0.020181515297735382,
    0.027298621498568734,
    0.034_213_810_770_299_54,
    0.040_875_750_923_643_26,
    0.047_235_083_490_265_58,
    0.053_244_713_977_759_69,
    0.058_860_144_245_324_8,
    0.064_039_797_355_015_48,
    0.068_745_323_835_736_41,
    0.072_941_885_005_653_09,
    0.076_598_410_645_870_64,
    0.079_687_828_912_071_67,
    0.082_187_266_704_339_7,
    0.084_078_218_979_661_95,
    0.085_346_685_739_338_72,
    0.085_983_275_670_394_82,
];

/// Incomplete beta by Gauss–Legendre quadrature, valid for large `a, b`.
///
/// Integrates the density over `[x, xu]` where `xu` is ~10 standard
/// deviations past the mean, exploiting the near-normal concentration of
/// the distribution at large parameters.
fn betai_quadrature(a: f64, b: f64, x: f64) -> f64 {
    let mu = a / (a + b);
    let lnmu = mu.ln();
    let lnmuc = (1.0 - mu).ln();
    let t = (a * b / ((a + b) * (a + b) * (a + b + 1.0))).sqrt();
    let xu = if x > mu {
        if x >= 1.0 {
            return 1.0;
        }
        (mu + 10.0 * t).max(x + 5.0 * t).min(1.0)
    } else {
        if x <= 0.0 {
            return 0.0;
        }
        (mu - 10.0 * t).min(x - 5.0 * t).max(0.0)
    };
    let mut sum = 0.0;
    for j in 0..18 {
        let xt = x + (xu - x) * GL_Y[j];
        sum +=
            GL_W[j] * ((a - 1.0) * (xt.ln() - lnmu) + (b - 1.0) * ((1.0 - xt).ln() - lnmuc)).exp();
    }
    let ans = sum
        * (xu - x)
        * ((a - 1.0) * lnmu - ln_gamma(a) + (b - 1.0) * lnmuc - ln_gamma(b) + ln_gamma(a + b))
            .exp();
    // `ans` carries the integration direction in its sign ((xu - x) is
    // positive above the mean, negative below); branch on the side of the
    // mean rather than on the sign so a tail that underflows to 0.0 still
    // resolves to the correct endpoint.
    if x > mu {
        (1.0 - ans).clamp(0.0, 1.0)
    } else {
        (-ans).clamp(0.0, 1.0)
    }
}

/// Inverse of the regularized incomplete beta: solves `I_x(a, b) = p`.
///
/// This is the `qBeta` routine of the paper (Eq. 9–11). Strategy:
/// a closed-form initial guess (normal approximation for `a, b >= 1`,
/// power-law tails otherwise), up to 12 Halley-accelerated Newton steps,
/// and a guaranteed-convergence bisection fallback if the residual is
/// still above tolerance.
pub fn betainc_inv(a: f64, b: f64, p: f64) -> Result<f64> {
    check_shape("a", a)?;
    check_shape("b", b)?;
    betainc_inv_checked_pre(a, b, p, None)
}

/// [`betainc_inv`] with the normalization constant `ln B(a, b)` supplied
/// by the caller — same contract as [`betainc_pre`]: the Newton/Halley
/// refinement evaluates the CDF and density at every iterate, so a
/// cached constant removes all `ln_gamma` work from the inversion.
pub fn betainc_inv_pre(a: f64, b: f64, p: f64, ln_beta_ab: f64) -> Result<f64> {
    check_shape("a", a)?;
    check_shape("b", b)?;
    betainc_inv_checked_pre(a, b, p, Some(ln_beta_ab))
}

/// Shared body of [`betainc_inv`] / [`betainc_inv_pre`].
fn betainc_inv_checked_pre(a: f64, b: f64, p: f64, ln_beta_ab: Option<f64>) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidProbability(p));
    }
    if p == 0.0 {
        return Ok(0.0);
    }
    if p == 1.0 {
        return Ok(1.0);
    }

    let lnb = ln_beta_ab.unwrap_or_else(|| ln_beta(a, b));
    let mut x = initial_guess(a, b, p);
    let afac = -lnb;
    let a1 = a - 1.0;
    let b1 = b - 1.0;

    let mut converged = false;
    for j in 0..12 {
        if x <= 0.0 || x >= 1.0 {
            break; // fall through to bisection
        }
        let err = betainc_checked_pre(a, b, x, Some(lnb))? - p;
        let ln_pdf = a1 * x.ln() + b1 * (1.0 - x).ln() + afac;
        let t = ln_pdf.exp();
        if t == 0.0 {
            break;
        }
        let u = err / t;
        // Halley correction using f''/f' = (a-1)/x - (b-1)/(1-x).
        let step = u / (1.0 - 0.5 * (u * (a1 / x - b1 / (1.0 - x))).clamp(-1.0, 1.0));
        x -= step;
        if x <= 0.0 {
            x = 0.5 * (x + step); // halve back toward the previous iterate
        }
        if x >= 1.0 {
            x = 0.5 * (x + step + 1.0);
        }
        if step.abs() < 1e-14 * x && j > 0 {
            converged = true;
            break;
        }
    }

    if converged || betainc_checked_pre(a, b, x, Some(lnb)).map(|v| (v - p).abs() < 1e-11)? {
        return Ok(x.clamp(0.0, 1.0));
    }
    bisect_quantile(a, b, p, lnb)
}

/// Closed-form starting point for the quantile Newton iteration.
fn initial_guess(a: f64, b: f64, p: f64) -> f64 {
    if a >= 1.0 && b >= 1.0 {
        // Normal-score based guess (Abramowitz & Stegun 26.5.22).
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut w = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if p < 0.5 {
            w = -w;
        }
        let al = (w * w - 3.0) / 6.0;
        let h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0));
        let ww = w * (al + h).sqrt() / h
            - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h));
        a / (a + b * (2.0 * ww).exp())
    } else {
        // Power-law tails dominate for shape parameters below one.
        let lna = (a / (a + b)).ln();
        let lnb = (b / (a + b)).ln();
        let t = (a * lna).exp() / a;
        let u = (b * lnb).exp() / b;
        let w = t + u;
        if p < t / w {
            (a * w * p).powf(1.0 / a)
        } else {
            1.0 - (b * w * (1.0 - p)).powf(1.0 / b)
        }
    }
    .clamp(1e-300, 1.0 - 1e-16)
}

/// Bisection fallback: ~55 iterations guarantee full double precision on
/// the unit interval, at the price of one `betainc` call each.
fn bisect_quantile(a: f64, b: f64, p: f64, lnb: f64) -> Result<f64> {
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return Ok(mid); // interval exhausted at double precision
        }
        if betainc_checked_pre(a, b, mid, Some(lnb))? < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, tol: f64, msg: &str) {
        assert!(
            (got - want).abs() < tol,
            "{msg}: got {got}, want {want} (|diff| = {:e})",
            (got - want).abs()
        );
    }

    #[test]
    fn ln_beta_known_values() {
        // B(1,1) = 1, B(2,2) = 1/6, B(0.5,0.5) = π.
        assert_close(ln_beta(1.0, 1.0), 0.0, 1e-14, "B(1,1)");
        assert_close(ln_beta(2.0, 2.0), (1.0f64 / 6.0).ln(), 1e-13, "B(2,2)");
        assert_close(
            ln_beta(0.5, 0.5),
            std::f64::consts::PI.ln(),
            1e-13,
            "B(.5,.5)",
        );
    }

    #[test]
    fn uniform_case_is_identity() {
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            assert_close(betainc(1.0, 1.0, x).unwrap(), x, 1e-13, "I_x(1,1)");
        }
    }

    #[test]
    fn power_law_closed_forms() {
        for &x in &[0.01, 0.2, 0.5, 0.77, 0.99] {
            // I_x(a, 1) = x^a
            for &a in &[0.5, 1.0, 2.0, 7.0] {
                assert_close(betainc(a, 1.0, x).unwrap(), x.powf(a), 1e-12, "I_x(a,1)");
            }
            // I_x(1, b) = 1 - (1-x)^b
            for &b in &[0.5, 3.0, 10.0] {
                assert_close(
                    betainc(1.0, b, x).unwrap(),
                    1.0 - (1.0 - x).powf(b),
                    1e-12,
                    "I_x(1,b)",
                );
            }
        }
    }

    #[test]
    fn arcsine_distribution_closed_form() {
        // I_x(1/2, 1/2) = (2/π) asin(√x)
        for &x in &[0.001f64, 0.1, 0.4, 0.5, 0.9, 0.999] {
            let want = 2.0 / std::f64::consts::PI * x.sqrt().asin();
            assert_close(betainc(0.5, 0.5, x).unwrap(), want, 1e-12, "arcsine");
        }
    }

    #[test]
    fn cubic_smoothstep_closed_form() {
        // I_x(2, 2) = 3x² - 2x³
        for &x in &[0.1, 0.25, 0.5, 0.8] {
            let want = 3.0 * x * x - 2.0 * x * x * x;
            assert_close(betainc(2.0, 2.0, x).unwrap(), want, 1e-13, "I_x(2,2)");
        }
    }

    #[test]
    fn binomial_sum_identity_for_integer_parameters() {
        // I_x(a, b) = Σ_{j=a}^{n} C(n, j) x^j (1-x)^{n-j}, n = a + b - 1.
        let cases = [
            (3u64, 5u64, 0.3f64),
            (7, 2, 0.8),
            (10, 10, 0.5),
            (1, 9, 0.05),
        ];
        for &(a, b, x) in &cases {
            let n = a + b - 1;
            let mut sum = 0.0;
            for j in a..=n {
                sum += (crate::special::ln_choose(n, j)
                    + j as f64 * x.ln()
                    + (n - j) as f64 * (1.0 - x).ln())
                .exp();
            }
            assert_close(
                betainc(a as f64, b as f64, x).unwrap(),
                sum,
                1e-12,
                "binomial identity",
            );
        }
    }

    #[test]
    fn symmetry_relation() {
        for &(a, b) in &[(0.5, 2.0), (3.0, 3.0), (10.0, 0.4), (123.0, 45.0)] {
            for &x in &[0.05, 0.3, 0.5, 0.72, 0.95] {
                let lhs = betainc(a, b, x).unwrap();
                let rhs = 1.0 - betainc(b, a, 1.0 - x).unwrap();
                assert_close(lhs, rhs, 1e-12, "I_x(a,b) = 1 - I_{1-x}(b,a)");
            }
        }
    }

    #[test]
    fn quadrature_path_agrees_with_continued_fraction_near_threshold() {
        // Straddle the threshold: CF at (2999, 2999) vs quadrature at
        // (3001, 3001) should be nearly identical at matching quantiles.
        let cf = betainc(2999.0, 2999.0, 0.5).unwrap();
        let quad = betainc(3001.0, 3001.0, 0.5).unwrap();
        assert_close(cf, 0.5, 1e-10, "symmetric CF median");
        assert_close(quad, 0.5, 1e-8, "symmetric quadrature median");

        // Off-center agreement within the normal-approximation accuracy.
        let x = 0.51;
        let cf = betainc(2999.0, 2999.0, x).unwrap();
        let quad = betainc(3001.0, 3001.0, x).unwrap();
        assert!((cf - quad).abs() < 5e-3, "cf={cf}, quad={quad}");
    }

    #[test]
    fn quantile_roundtrip_broad_grid() {
        let shapes = [
            (1.0 / 3.0, 1.0 / 3.0),
            (0.5, 0.5),
            (1.0, 1.0),
            (0.5, 30.5),
            (30.5, 0.5),
            (2.0, 5.0),
            (180.0, 20.5),
            (1000.0, 3.0),
            (5000.0, 5000.0),
        ];
        let ps = [1e-8, 1e-4, 0.01, 0.025, 0.5, 0.975, 0.99, 1.0 - 1e-6];
        for &(a, b) in &shapes {
            for &p in &ps {
                let x = betainc_inv(a, b, p).unwrap();
                if x <= f64::MIN_POSITIVE || x >= 1.0 - 1e-15 {
                    // The true quantile sits within one ulp of the boundary
                    // (e.g. Beta(1/3,1/3) at p = 1 - 1e-6 has
                    // 1 - x ≈ 5e-18): representability, not accuracy,
                    // limits the roundtrip. Check the bracket instead.
                    let inner = if x >= 0.5 { 1.0 - 1e-15 } else { 1e-300 };
                    let inner_cdf = betainc(a, b, inner).unwrap();
                    assert!(
                        (p - inner_cdf) * (p - if x >= 0.5 { 1.0 } else { 0.0 }) <= 0.0,
                        "boundary quantile not bracketed: a={a}, b={b}, p={p}"
                    );
                    continue;
                }
                let back = betainc(a, b, x).unwrap();
                assert!(
                    (back - p).abs() < 1e-9,
                    "roundtrip a={a}, b={b}, p={p}: x={x}, back={back}"
                );
            }
        }
    }

    #[test]
    fn quantile_boundary_probabilities() {
        assert_eq!(betainc_inv(2.0, 3.0, 0.0).unwrap(), 0.0);
        assert_eq!(betainc_inv(2.0, 3.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn quantile_uniform_is_identity() {
        for i in 1..20 {
            let p = i as f64 / 20.0;
            assert_close(betainc_inv(1.0, 1.0, p).unwrap(), p, 1e-10, "uniform");
        }
    }

    #[test]
    fn quantile_monotone_in_p() {
        let (a, b) = (3.5, 1.2);
        let mut prev = 0.0;
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = betainc_inv(a, b, p).unwrap();
            assert!(x >= prev, "quantile not monotone at p={p}");
            prev = x;
        }
    }

    #[test]
    fn rejects_invalid_arguments() {
        assert!(betainc(0.0, 1.0, 0.5).is_err());
        assert!(betainc(1.0, -2.0, 0.5).is_err());
        assert!(betainc(1.0, 1.0, 1.5).is_err());
        assert!(betainc_inv(1.0, 1.0, -0.1).is_err());
        assert!(betainc_inv(f64::NAN, 1.0, 0.5).is_err());
    }

    #[test]
    fn kg_accuracy_regime_spot_checks() {
        // Posterior after 96 correct / 4 incorrect with Jeffreys prior:
        // Beta(96.5, 4.5). Its 2.5% quantile must sit near 0.90 and the
        // CDF must evaluate consistently around the mode.
        let (a, b) = (96.5, 4.5);
        let q025 = betainc_inv(a, b, 0.025).unwrap();
        let q975 = betainc_inv(a, b, 0.975).unwrap();
        assert!(q025 > 0.85 && q025 < 0.93, "q025 = {q025}");
        assert!(q975 > 0.97 && q975 < 1.0, "q975 = {q975}");
        let mass = betainc(a, b, q975).unwrap() - betainc(a, b, q025).unwrap();
        assert_close(mass, 0.95, 1e-9, "central mass");
    }
}
