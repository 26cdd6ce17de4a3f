//! Frequentist confidence intervals: Wald, Wilson and Clopper–Pearson.
//!
//! Wald (paper §3.1, Eq. 5) and Wilson (§3.2, Eq. 7) are the baselines the
//! paper compares against; Clopper–Pearson is included as an additional
//! reference point for the coverage ablation. Wald takes any variance
//! estimate and Wilson a fractional sample size, so the cluster variance
//! and the Kish effective-sample-size correction for complex designs plug
//! in directly.

use crate::types::Interval;
use kgae_stats::dist::std_normal_quantile;
use kgae_stats::special::betainc_inv;
use kgae_stats::{Result, StatsError};

/// The `z_{α/2}` critical value shared by the normal-approximation
/// intervals.
#[must_use]
pub fn z_critical(alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha = {alpha} outside (0, 1)");
    std_normal_quantile(1.0 - alpha / 2.0)
}

/// Wald interval from a point estimate and its estimated variance
/// (Eq. 5): `μ̂ ± z_{α/2} √V̂(μ̂)`.
///
/// This is the general form that serves both SRS (variance
/// `μ̂(1-μ̂)/n`) and TWCS (the cluster variance estimator). Note the two
/// famous pathologies the paper discusses: zero-width intervals when
/// `V̂ = 0`, and overshoot past `[0, 1]` — both preserved faithfully.
pub fn wald_from_variance(mu: f64, variance: f64, alpha: f64) -> Result<Interval> {
    if !(0.0..=1.0).contains(&mu) {
        return Err(StatsError::InvalidProbability(mu));
    }
    if !(variance.is_finite() && variance >= 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "variance",
            value: variance,
            constraint: "must be finite and >= 0",
        });
    }
    let half = z_critical(alpha) * variance.sqrt();
    Ok(Interval::new(mu - half, mu + half))
}

/// Wilson score interval (Eq. 7) with a possibly fractional sample size.
///
/// `n` may be the Kish effective sample size `n_eff` under a complex
/// design (the adjustment used by Marchesin & Silvello 2024 and by
/// Algorithm 1's frequentist baseline).
pub fn wilson(mu_hat: f64, n: f64, alpha: f64) -> Result<Interval> {
    if !(0.0..=1.0).contains(&mu_hat) {
        return Err(StatsError::InvalidProbability(mu_hat));
    }
    if !(n.is_finite() && n > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "n",
            value: n,
            constraint: "must be finite and > 0",
        });
    }
    let z = z_critical(alpha);
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (mu_hat + z2 / (2.0 * n)) / denom;
    let half = z / denom * (mu_hat * (1.0 - mu_hat) / n + z2 / (4.0 * n * n)).sqrt();
    // Wilson bounds are mathematically inside [0, 1]; the clamp only
    // removes last-ulp rounding noise at the endpoints.
    Ok(Interval::new(
        (center - half).clamp(0.0, 1.0),
        (center + half).clamp(0.0, 1.0),
    ))
}

/// Clopper–Pearson "exact" interval from the beta quantile identity.
///
/// Guaranteed coverage at the price of conservatism (width); the
/// benchmark ablation uses it as the coverage gold standard.
pub fn clopper_pearson(tau: u64, n: u64, alpha: f64) -> Result<Interval> {
    if n == 0 {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    if tau > n {
        return Err(StatsError::InvalidParameter {
            name: "tau",
            value: tau as f64,
            constraint: "must be <= n",
        });
    }
    let lower = if tau == 0 {
        0.0
    } else {
        betainc_inv(tau as f64, (n - tau) as f64 + 1.0, alpha / 2.0)?
    };
    let upper = if tau == n {
        1.0
    } else {
        betainc_inv(tau as f64 + 1.0, (n - tau) as f64, 1.0 - alpha / 2.0)?
    };
    Ok(Interval::new(lower, upper))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SRS Wald interval: the binomial variance `μ̂(1-μ̂)/n` plugged
    /// into [`wald_from_variance`] at 95%.
    fn srs_wald(tau: u64, n: u64) -> Interval {
        let mu = tau as f64 / n as f64;
        wald_from_variance(mu, mu * (1.0 - mu) / n as f64, 0.05).unwrap()
    }

    #[test]
    fn z_critical_textbook_values() {
        assert!((z_critical(0.05) - 1.959963984540054).abs() < 1e-10);
        assert!((z_critical(0.10) - 1.6448536269514722).abs() < 1e-10);
        assert!((z_critical(0.01) - 2.5758293035489004).abs() < 1e-10);
    }

    #[test]
    fn wald_textbook_example() {
        // 27/30 correct at 95%: μ̂ = 0.9, half-width = 1.96·√(0.09/30).
        let i = srs_wald(27, 30);
        let half = 1.959963984540054 * (0.9f64 * 0.1 / 30.0).sqrt();
        assert!((i.lower() - (0.9 - half)).abs() < 1e-12);
        assert!((i.upper() - (0.9 + half)).abs() < 1e-12);
    }

    #[test]
    fn wald_zero_width_pathology_of_example_1() {
        // Example 1: all 30 annotations correct ⇒ CI = [1.00, 1.00].
        let i = srs_wald(30, 30);
        assert_eq!(i.lower(), 1.0);
        assert_eq!(i.upper(), 1.0);
        assert_eq!(i.moe(), 0.0);
    }

    #[test]
    fn wald_overshoot_pathology() {
        // 29/30: the upper bound exceeds 1 — the overshoot the paper
        // criticizes (§3.1).
        let i = srs_wald(29, 30);
        assert!(i.upper() > 1.0, "upper = {}", i.upper());
    }

    #[test]
    fn wilson_never_leaves_the_unit_interval() {
        for tau in 0..=30u64 {
            let i = wilson(tau as f64 / 30.0, 30.0, 0.05).unwrap();
            assert!(i.lower() >= 0.0 && i.upper() <= 1.0, "tau = {tau}: {i}");
        }
    }

    #[test]
    fn wilson_known_value() {
        // Classic check: 0 successes out of 10 at 95%:
        // upper = z²/(n+z²) with lower = 0 ... Wilson gives
        // [0, 0.27753] (standard reference value).
        let i = wilson(0.0, 10.0, 0.05).unwrap();
        assert!(i.lower().abs() < 1e-12);
        assert!((i.upper() - 0.27753279964075416).abs() < 1e-8, "{i}");
    }

    #[test]
    fn wilson_is_narrower_than_wald_near_half_but_wider_at_extremes() {
        // At μ̂ = 1 Wald collapses to zero width while Wilson stays open:
        // the efficiency/reliability trade-off of §3.2.
        let wald = srs_wald(30, 30);
        let wil = wilson(1.0, 30.0, 0.05).unwrap();
        assert!(wil.width() > wald.width());
    }

    #[test]
    fn wilson_accepts_fractional_effective_n() {
        let a = wilson(0.9, 100.0, 0.05).unwrap();
        let b = wilson(0.9, 120.7, 0.05).unwrap();
        assert!(b.width() < a.width(), "more effective n ⇒ narrower");
    }

    #[test]
    fn clopper_pearson_covers_the_mle() {
        for &(tau, n) in &[(0u64, 20u64), (5, 20), (20, 20), (19, 20)] {
            let i = clopper_pearson(tau, n, 0.05).unwrap();
            let mle = tau as f64 / n as f64;
            assert!(i.contains(mle), "tau={tau}: {i} misses {mle}");
            assert!(i.lower() >= 0.0 && i.upper() <= 1.0);
        }
    }

    #[test]
    fn clopper_pearson_is_widest_of_the_three() {
        let (tau, n) = (27u64, 30u64);
        let mu = tau as f64 / n as f64;
        let wd = srs_wald(tau, n).width();
        let wi = wilson(mu, n as f64, 0.05).unwrap().width();
        let cp = clopper_pearson(tau, n, 0.05).unwrap().width();
        assert!(cp >= wi && cp >= wd, "cp={cp} wi={wi} wd={wd}");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(wald_from_variance(1.5, 0.01, 0.05).is_err());
        assert!(wald_from_variance(0.5, -0.01, 0.05).is_err());
        assert!(wilson(0.5, 0.0, 0.05).is_err());
        assert!(clopper_pearson(6, 5, 0.05).is_err());
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn z_critical_rejects_bad_alpha() {
        let _ = z_critical(0.0);
    }
}
