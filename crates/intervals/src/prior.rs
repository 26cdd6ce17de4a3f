//! Beta priors and conjugate posterior updates (paper §4.1, §4.4).
//!
//! The annotation process is `τ_S ~ Bin(n_S, μ)` with a `Beta(a, b)` prior
//! on μ; conjugacy gives the posterior `Beta(a + τ_S, b + n_S - τ_S)`.
//! Under complex sampling designs the counts are replaced by
//! design-effect-adjusted *effective* counts (Algorithm 1 line 12), which
//! are fractional — hence the `f64` update path.

use kgae_stats::dist::Beta;
use kgae_stats::{Result, StatsError};

/// A `Beta(a, b)` prior over the KG accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaPrior {
    /// Pseudo-count of correct triples (`a > 0`).
    pub a: f64,
    /// Pseudo-count of incorrect triples (`b > 0`).
    pub b: f64,
    /// Human-readable name used in reports ("Kerman", "Jeffreys", ...).
    pub name: &'static str,
}

impl BetaPrior {
    /// Kerman's neutral prior `Beta(1/3, 1/3)` — the most efficient
    /// uninformative choice in the *extreme* regions of the accuracy
    /// space (paper §4.4 / Fig. 3).
    pub const KERMAN: BetaPrior = BetaPrior {
        a: 1.0 / 3.0,
        b: 1.0 / 3.0,
        name: "Kerman",
    };

    /// Jeffreys' invariant prior `Beta(1/2, 1/2)` — the textbook default
    /// for binomial proportions; never the most efficient of the three
    /// (paper finding F1).
    pub const JEFFREYS: BetaPrior = BetaPrior {
        a: 0.5,
        b: 0.5,
        name: "Jeffreys",
    };

    /// The uniform prior `Beta(1, 1)` (Bayes–Laplace) — the most
    /// efficient choice in the *central* region of the accuracy space.
    pub const UNIFORM: BetaPrior = BetaPrior {
        a: 1.0,
        b: 1.0,
        name: "Uniform",
    };

    /// The three standard uninformative priors fed to aHPD by default.
    pub const UNINFORMATIVE: [BetaPrior; 3] =
        [BetaPrior::KERMAN, BetaPrior::JEFFREYS, BetaPrior::UNIFORM];

    /// An informative prior from prior knowledge, e.g. `Beta(80, 20)` for
    /// "a similar KG had accuracy 0.80 on ~100 annotations' worth of
    /// evidence" (paper Example 2).
    pub fn informative(a: f64, b: f64) -> Result<BetaPrior> {
        for (name, v) in [("a", a), ("b", b)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(StatsError::InvalidParameter {
                    name,
                    value: v,
                    constraint: "must be finite and > 0",
                });
            }
        }
        Ok(BetaPrior {
            a,
            b,
            name: "informative",
        })
    }

    /// Conjugate update with integer annotation counts:
    /// `Beta(a + τ, b + n - τ)`.
    ///
    /// # Panics
    ///
    /// Panics if `tau > n`.
    #[must_use]
    pub fn posterior(&self, tau: u64, n: u64) -> Beta {
        assert!(tau <= n, "tau = {tau} exceeds n = {n}");
        Beta::new(self.a + tau as f64, self.b + (n - tau) as f64)
            .expect("posterior parameters positive by construction")
    }

    /// Conjugate update with *effective* (possibly fractional) counts from
    /// a design-effect correction: `Beta(a + μ̂·n_eff, b + (1-μ̂)·n_eff)`.
    pub fn posterior_effective(&self, mu_hat: f64, n_eff: f64) -> Result<Beta> {
        if !(0.0..=1.0).contains(&mu_hat) {
            return Err(StatsError::InvalidProbability(mu_hat));
        }
        if !(n_eff.is_finite() && n_eff >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "n_eff",
                value: n_eff,
                constraint: "must be finite and >= 0",
            });
        }
        Beta::new(self.a + mu_hat * n_eff, self.b + (1.0 - mu_hat) * n_eff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_stats::dist::BetaShape;

    #[test]
    fn conjugate_update_adds_counts() {
        let post = BetaPrior::JEFFREYS.posterior(27, 30);
        assert!((post.alpha() - 27.5).abs() < 1e-12);
        assert!((post.beta() - 3.5).abs() < 1e-12);
        assert_eq!(post.shape(), BetaShape::Unimodal);
    }

    #[test]
    fn limiting_case_shapes() {
        // All correct with an uninformative prior → increasing posterior.
        let post = BetaPrior::KERMAN.posterior(30, 30);
        assert_eq!(post.shape(), BetaShape::Increasing);
        // All incorrect → decreasing.
        let post = BetaPrior::UNIFORM.posterior(0, 30);
        assert_eq!(post.shape(), BetaShape::Decreasing);
    }

    #[test]
    fn informative_prior_shifts_posterior_mean() {
        // Same data, different prior mass: the informative prior pulls
        // the posterior toward its own mean.
        let data = (9u64, 10u64);
        let weak = BetaPrior::UNIFORM.posterior(data.0, data.1);
        let strong = BetaPrior::informative(10.0, 90.0) // believes μ ≈ 0.1
            .unwrap()
            .posterior(data.0, data.1);
        assert!(strong.mean() < weak.mean());
    }

    #[test]
    fn effective_update_matches_integer_update_when_whole() {
        let p = BetaPrior::KERMAN;
        let a = p.posterior(27, 30);
        let b = p.posterior_effective(0.9, 30.0).unwrap();
        assert!((a.alpha() - b.alpha()).abs() < 1e-12);
        assert!((a.beta() - b.beta()).abs() < 1e-12);
    }

    #[test]
    fn effective_update_validates_inputs() {
        let p = BetaPrior::UNIFORM;
        assert!(p.posterior_effective(1.5, 30.0).is_err());
        assert!(p.posterior_effective(0.5, f64::NAN).is_err());
        // Zero effective sample size returns the prior itself.
        let post = p.posterior_effective(0.5, 0.0).unwrap();
        assert!((post.alpha() - 1.0).abs() < 1e-12);
        assert!((post.beta() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn informative_rejects_bad_parameters() {
        assert!(BetaPrior::informative(0.0, 1.0).is_err());
        assert!(BetaPrior::informative(1.0, -5.0).is_err());
        assert!(BetaPrior::informative(f64::INFINITY, 1.0).is_err());
    }
}
