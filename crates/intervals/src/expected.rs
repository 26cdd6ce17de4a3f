//! Expected interval widths over the annotation distribution — the
//! quantity plotted in Figure 3 of the paper.
//!
//! For a true accuracy μ and sample size n, the annotation outcome is
//! `τ ~ Bin(n, μ)`; the expected width of a posterior interval method is
//! `E[w] = Σ_τ P(τ) · width(interval(posterior(τ, n)))`. Comparing this
//! across priors reveals the regions where Kerman / Uniform win and why
//! Jeffreys never does (paper §4.4, finding F1).
//!
//! ```
//! use kgae_intervals::expected::expected_width;
//! use kgae_intervals::{et_interval, BetaPrior};
//!
//! // More annotations ⇒ narrower expected intervals, any prior.
//! let at = |n| expected_width(&BetaPrior::KERMAN, n, 0.05, 0.9, et_interval).unwrap();
//! assert!(at(120) < at(30));
//! ```

use crate::error::IntervalError;
use crate::prior::BetaPrior;
use crate::types::Interval;
use kgae_stats::dist::{Beta, Binomial};

/// Interval constructor signature shared by ET and HPD.
pub type IntervalFn = fn(&Beta, f64) -> Result<Interval, IntervalError>;

/// Expected width of `method`'s `1-α` interval after `n` annotations of a
/// KG with true accuracy `mu`, under `prior`.
pub fn expected_width(
    prior: &BetaPrior,
    n: u64,
    alpha: f64,
    mu: f64,
    method: IntervalFn,
) -> Result<f64, IntervalError> {
    let bin = Binomial::new(n, mu).map_err(IntervalError::Stats)?;
    let mut acc = 0.0;
    for tau in 0..=n {
        let p = bin.pmf(tau);
        if p < 1e-16 {
            continue; // negligible branch; keeps the sweep O(√n) effective
        }
        let post = prior.posterior(tau, n);
        acc += p * method(&post, alpha)?.width();
    }
    Ok(acc)
}

/// Which of the given priors has the smallest expected HPD width at `mu`
/// (index into `priors`).
pub fn best_prior_index(
    priors: &[BetaPrior],
    n: u64,
    alpha: f64,
    mu: f64,
) -> Result<usize, IntervalError> {
    let mut best = 0;
    let mut best_w = f64::INFINITY;
    for (i, p) in priors.iter().enumerate() {
        let w = expected_width(p, n, alpha, mu, crate::hpd::hpd_interval_exact)?;
        if w < best_w {
            best_w = w;
            best = i;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::et::et_interval;
    use crate::hpd::hpd_interval_exact;

    #[test]
    fn expected_hpd_width_never_exceeds_expected_et_width() {
        for &mu in &[0.1, 0.5, 0.9, 0.99] {
            for prior in BetaPrior::UNINFORMATIVE {
                let w_hpd = expected_width(&prior, 30, 0.05, mu, hpd_interval_exact).unwrap();
                let w_et = expected_width(&prior, 30, 0.05, mu, et_interval).unwrap();
                assert!(
                    w_hpd <= w_et + 1e-9,
                    "{} at μ={mu}: hpd={w_hpd}, et={w_et}",
                    prior.name
                );
            }
        }
    }

    #[test]
    fn figure_3_regional_winners() {
        // Kerman is optimal in the extreme regions, Uniform in the
        // center, and Jeffreys nowhere (paper §4.4 / Fig. 3).
        let priors = BetaPrior::UNINFORMATIVE; // [Kerman, Jeffreys, Uniform]
        let extreme = best_prior_index(&priors, 30, 0.05, 0.99).unwrap();
        assert_eq!(priors[extreme].name, "Kerman");
        let extreme_low = best_prior_index(&priors, 30, 0.05, 0.01).unwrap();
        assert_eq!(priors[extreme_low].name, "Kerman");
        let central = best_prior_index(&priors, 30, 0.05, 0.5).unwrap();
        assert_eq!(priors[central].name, "Uniform");
    }

    #[test]
    fn jeffreys_is_never_strictly_best() {
        let priors = BetaPrior::UNINFORMATIVE;
        for i in 0..=20 {
            let mu = i as f64 / 20.0;
            let best = best_prior_index(&priors, 30, 0.05, mu).unwrap();
            assert_ne!(priors[best].name, "Jeffreys", "Jeffreys won at μ = {mu}");
        }
    }

    #[test]
    fn expected_width_shrinks_with_n() {
        let p = BetaPrior::UNIFORM;
        let w30 = expected_width(&p, 30, 0.05, 0.85, hpd_interval_exact).unwrap();
        let w100 = expected_width(&p, 100, 0.05, 0.85, hpd_interval_exact).unwrap();
        let w300 = expected_width(&p, 300, 0.05, 0.85, hpd_interval_exact).unwrap();
        assert!(w30 > w100 && w100 > w300);
        // Roughly √n scaling.
        assert!((w100 / w300 - (3.0f64).sqrt()).abs() < 0.2);
    }
}
