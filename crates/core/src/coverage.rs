//! Exact coverage probabilities at fixed sample size.
//!
//! §3.3 argues that assessing CI reliability requires coverage
//! probabilities, which demand "repeated iterations of the entire
//! evaluation procedure". At a fixed sample size, however, coverage under
//! SRS has a closed form: the annotation outcome is `τ ~ Bin(n, μ)`, so
//!
//! `coverage(n, μ) = Σ_τ  P(τ | n, μ) · 1[ interval(τ, n) ∋ μ ]`
//!
//! This module computes that sum exactly (no Monte Carlo error), which
//! powers the coverage ablation bench comparing Wald / Wilson / ET / HPD
//! reliability across the accuracy space.

use crate::method::IntervalMethod;
use crate::state::SampleState;
use kgae_intervals::IntervalError;
use kgae_stats::dist::Binomial;

/// Exact SRS coverage probability of `method`'s `1-α` interval at sample
/// size `n` and true accuracy `mu`.
pub fn exact_srs_coverage(
    method: &IntervalMethod,
    n: u64,
    mu: f64,
    alpha: f64,
) -> Result<f64, IntervalError> {
    let bin = Binomial::new(n, mu).map_err(IntervalError::Stats)?;
    let mut coverage = 0.0;
    for tau in 0..=n {
        let p = bin.pmf(tau);
        if p < 1e-16 {
            continue;
        }
        let mut state = SampleState::new_srs();
        for i in 0..n {
            state.record_triple(i < tau);
        }
        if method.interval(&state, alpha)?.contains(mu) {
            coverage += p;
        }
    }
    Ok(coverage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_intervals::BetaPrior;

    #[test]
    fn wald_coverage_collapses_near_the_boundary() {
        // The §3.1 pathology quantified: at μ = 0.99 and n = 30, the
        // all-correct outcome (probability 0.74) gives a zero-width
        // interval at 1.0 that misses μ, so coverage is far below 95%.
        let c = exact_srs_coverage(&IntervalMethod::Wald, 30, 0.99, 0.05).unwrap();
        assert!(c < 0.60, "Wald coverage at 0.99 = {c}");
    }

    #[test]
    fn wilson_is_more_reliable_than_wald_at_the_boundary() {
        let wald = exact_srs_coverage(&IntervalMethod::Wald, 30, 0.97, 0.05).unwrap();
        let wilson = exact_srs_coverage(&IntervalMethod::Wilson, 30, 0.97, 0.05).unwrap();
        assert!(wilson > wald, "wilson = {wilson} should beat wald = {wald}");
        assert!(wilson > 0.90);
    }

    #[test]
    fn hpd_coverage_is_near_nominal_across_the_space() {
        let m = IntervalMethod::Hpd(BetaPrior::KERMAN);
        for &mu in &[0.1, 0.5, 0.85, 0.95] {
            let c = exact_srs_coverage(&m, 50, mu, 0.05).unwrap();
            assert!(c > 0.90, "HPD coverage at μ = {mu} is {c}");
        }
    }

    #[test]
    fn coverage_probability_is_a_probability() {
        for m in [
            IntervalMethod::Wald,
            IntervalMethod::Wilson,
            IntervalMethod::ahpd_default(),
        ] {
            let c = exact_srs_coverage(&m, 40, 0.8, 0.05).unwrap();
            assert!((0.0..=1.0).contains(&c), "{}: {c}", m.name());
        }
    }
}
