//! Point estimators, variance estimators, and design effects (paper §2.4
//! and the Kish corrections referenced in §3.2 / Algorithm 1 line 12).

/// Point estimate with its estimated sampling variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated KG accuracy `μ̂`.
    pub mu: f64,
    /// Estimated variance `V̂(μ̂)` of the estimator.
    pub variance: f64,
}

/// SRS estimator (Eq. 2): sample proportion with variance
/// `μ̂(1-μ̂)/n_S`.
///
/// # Panics
///
/// Panics if `n == 0` or `tau > n`.
#[must_use]
pub fn srs_estimate(tau: u64, n: u64) -> Estimate {
    assert!(n > 0, "SRS estimate needs at least one annotation");
    assert!(tau <= n, "tau = {tau} exceeds n = {n}");
    let mu = tau as f64 / n as f64;
    Estimate {
        mu,
        variance: mu * (1.0 - mu) / n as f64,
    }
}

/// TWCS estimator (Eq. 3): mean of cluster sample means with variance
/// `1/(n_C(n_C-1)) Σ (μ̂_i - μ̂)²`.
///
/// With fewer than two clusters the variance is undefined; this returns
/// `f64::INFINITY` there, which the stopping rule correctly treats as
/// "keep sampling".
///
/// # Panics
///
/// Panics if `cluster_means` is empty.
#[must_use]
pub fn cluster_estimate(cluster_means: &[f64]) -> Estimate {
    assert!(
        !cluster_means.is_empty(),
        "cluster estimate needs at least one cluster"
    );
    let n_c = cluster_means.len() as f64;
    let mu = cluster_means.iter().sum::<f64>() / n_c;
    let ss: f64 = cluster_means.iter().map(|m| (m - mu) * (m - mu)).sum();
    cluster_estimate_from_moments(mu, ss, cluster_means.len() as u64)
}

/// The Eq. 3 cluster estimator from sufficient statistics: mean of the
/// per-draw estimates and their sum of squared deviations. This is the
/// O(1)-per-draw form used by the evaluation framework's Welford
/// accumulator; [`cluster_estimate`] is the slice convenience over it.
///
/// # Panics
///
/// Panics if `draws == 0`.
#[must_use]
pub fn cluster_estimate_from_moments(mu: f64, sum_sq_dev: f64, draws: u64) -> Estimate {
    assert!(draws > 0, "cluster estimate needs at least one draw");
    if draws < 2 {
        return Estimate {
            mu,
            variance: f64::INFINITY,
        };
    }
    let n_c = draws as f64;
    Estimate {
        mu,
        variance: sum_sq_dev / (n_c * (n_c - 1.0)),
    }
}

/// Kish design effect: the variance of the cluster estimator relative to
/// an SRS of the same number of triples,
/// `deff = V̂(μ̂_cluster) / (μ̂(1-μ̂)/n)`.
///
/// Degenerate situations (μ̂ ∈ {0, 1}, zero variance with fewer than two
/// clusters) return 1.0 — no adjustment — because no information about
/// clustering exists yet. The result is clamped to `[1e-3, 1e3]` so the
/// effective sample size stays finite.
#[must_use]
pub fn design_effect(est: &Estimate, n_triples: u64) -> f64 {
    if n_triples == 0 {
        return 1.0;
    }
    let srs_var = est.mu * (1.0 - est.mu) / n_triples as f64;
    if srs_var <= 0.0 || !est.variance.is_finite() {
        return 1.0;
    }
    (est.variance / srs_var).clamp(1e-3, 1e3)
}

/// Effective sample size `n_eff = n / deff` (Kish).
#[must_use]
pub fn effective_sample_size(n_triples: u64, deff: f64) -> f64 {
    n_triples as f64 / deff.max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srs_estimate_formulas() {
        let e = srs_estimate(27, 30);
        assert!((e.mu - 0.9).abs() < 1e-12);
        assert!((e.variance - 0.9 * 0.1 / 30.0).abs() < 1e-12);
        // Degenerate all-correct sample → zero variance (the Wald
        // pathology of Example 1).
        let e = srs_estimate(30, 30);
        assert_eq!(e.mu, 1.0);
        assert_eq!(e.variance, 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn srs_estimate_rejects_tau_above_n() {
        let _ = srs_estimate(31, 30);
    }

    #[test]
    fn cluster_estimate_formulas() {
        let means = [1.0, 0.5, 0.75, 0.75];
        let e = cluster_estimate(&means);
        assert!((e.mu - 0.75).abs() < 1e-12);
        // Σ(μ_i - μ̂)² = 0.0625 + 0.0625 = 0.125; V̂ = 0.125/(4·3).
        assert!((e.variance - 0.125 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn single_cluster_variance_is_infinite() {
        let e = cluster_estimate(&[0.8]);
        assert_eq!(e.mu, 0.8);
        assert!(e.variance.is_infinite());
    }

    #[test]
    fn design_effect_of_identical_srs_variance_is_one() {
        // If the cluster estimator variance equals μ(1-μ)/n exactly,
        // deff = 1 (clustering neither helps nor hurts).
        let n = 100u64;
        let mu = 0.8;
        let est = Estimate {
            mu,
            variance: mu * (1.0 - mu) / n as f64,
        };
        assert!((design_effect(&est, n) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn design_effect_above_and_below_one() {
        let n = 100u64;
        let mu = 0.8;
        let srs_var = mu * (1.0 - mu) / n as f64;
        let worse = Estimate {
            mu,
            variance: 2.0 * srs_var,
        };
        let better = Estimate {
            mu,
            variance: 0.5 * srs_var,
        };
        assert!((design_effect(&worse, n) - 2.0).abs() < 1e-12);
        assert!((design_effect(&better, n) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn design_effect_degenerate_cases_default_to_one() {
        let est = Estimate {
            mu: 1.0,
            variance: 0.0,
        };
        assert_eq!(design_effect(&est, 50), 1.0);
        let est = Estimate {
            mu: 0.5,
            variance: f64::INFINITY,
        };
        assert_eq!(design_effect(&est, 50), 1.0);
        assert_eq!(
            design_effect(
                &Estimate {
                    mu: 0.5,
                    variance: 0.01
                },
                0
            ),
            1.0
        );
    }

    #[test]
    fn design_effect_is_clamped() {
        let est = Estimate {
            mu: 0.5,
            variance: 1e9,
        };
        assert_eq!(design_effect(&est, 100), 1e3);
        let est = Estimate {
            mu: 0.5,
            variance: 1e-30,
        };
        assert_eq!(design_effect(&est, 100), 1e-3);
    }

    #[test]
    fn effective_sample_size_inverts_deff() {
        assert!((effective_sample_size(100, 2.0) - 50.0).abs() < 1e-12);
        assert!((effective_sample_size(100, 0.5) - 200.0).abs() < 1e-12);
        assert!((effective_sample_size(100, 1.0) - 100.0).abs() < 1e-12);
    }
}
