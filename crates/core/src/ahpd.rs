//! The adaptive HPD (aHPD) algorithm — Algorithm 1 of the paper.
//!
//! aHPD removes the prior-selection problem (§4.4): no single
//! uninformative prior is most efficient across the whole accuracy space
//! (Kerman wins in the extremes, Uniform in the center, Jeffreys
//! nowhere), and the region the estimate will land in is unknowable in
//! advance. So the algorithm runs *all* candidate priors concurrently,
//! builds one `1-α` HPD interval per prior at every iteration, and lets
//! the smallest interval drive the stopping rule — the most efficient
//! outcome among the competing solutions, chosen post hoc.
//!
//! This module implements the per-iteration interval selection (Algorithm
//! 1 lines 10–24); the enclosing sampling loop (lines 5–25) lives in
//! [`crate::framework`].

use crate::state::{DesignKind, SampleState};
use kgae_intervals::{hpd_interval_exact, BetaPrior, Interval, IntervalError};
use kgae_stats::dist::Beta;

/// Result of one aHPD interval selection.
#[derive(Debug, Clone, PartialEq)]
pub struct AHpdSelection {
    /// The smallest `1-α` HPD interval across the candidate priors
    /// (Algorithm 1, line 23).
    pub interval: Interval,
    /// Index (into the priors slice) of the winning prior.
    pub winner: usize,
    /// The competing intervals, one per prior, for diagnostics.
    pub candidates: Vec<Interval>,
}

/// Algorithm 1, lines 10–24: compute the design-effect-adjusted posterior
/// for each prior, build each `1-α` HPD interval with the exact solver
/// (the limiting cases Eq. 10/11 are dispatched inside
/// [`kgae_intervals::hpd_interval_exact`] by posterior shape, which
/// subsumes the `τ = n` / `τ = 0` branches of lines 15–18), and select
/// the smallest. This is the solve-every-prior reference; the
/// evaluation loop's pruned selection returns the same interval, bit for
/// bit, without solving the priors certified to lose.
///
/// # Errors
///
/// Propagates interval-construction failures; with at least one valid
/// prior and one annotation these do not occur in practice.
///
/// # Panics
///
/// Panics if `priors` is empty or the state holds no annotations.
pub fn ahpd_select(
    state: &SampleState,
    alpha: f64,
    priors: &[BetaPrior],
) -> Result<AHpdSelection, IntervalError> {
    assert!(!priors.is_empty(), "aHPD needs at least one prior");
    assert!(state.n() > 0, "aHPD needs at least one annotation");

    // Lines 10–12: annotation outcome (exact integer counts under SRS,
    // design-effect-corrected effective counts under cluster designs).
    ahpd_select_posteriors(&posteriors_for_state(state, priors)?, alpha)
}

/// Per-prior posteriors for the current sample: the conjugate update of
/// Algorithm 1 line 14, with the design-effect correction of line 12
/// applied only where a complex design requires it. SRS uses the exact
/// integer counts so the posterior parameters are reproducible to the
/// bit.
pub(crate) fn posteriors_for_state(
    state: &SampleState,
    priors: &[BetaPrior],
) -> Result<Vec<Beta>, IntervalError> {
    match state.kind() {
        DesignKind::Srs => Ok(priors
            .iter()
            .map(|p| p.posterior(state.tau(), state.n()))
            .collect()),
        DesignKind::Cluster => {
            let eff = state.effective();
            priors
                .iter()
                .map(|p| p.posterior_effective(eff.mu, eff.n_eff).map_err(Into::into))
                .collect()
        }
    }
}

/// Algorithm 1 lines 14–24 against precomputed posteriors: build each
/// `1-α` HPD interval and select the smallest.
pub(crate) fn ahpd_select_posteriors(
    posteriors: &[Beta],
    alpha: f64,
) -> Result<AHpdSelection, IntervalError> {
    assert!(!posteriors.is_empty(), "aHPD needs at least one prior");

    let mut candidates = Vec::with_capacity(posteriors.len());
    for posterior in posteriors {
        let interval = match hpd_interval_exact(posterior, alpha) {
            Ok(interval) => interval,
            // A sub-uniform prior with (near-)zero effective evidence
            // yields a U-shaped posterior with no single HPD interval.
            // That candidate carries no usable information this round:
            // give it the full-range sentinel (width 1, MoE 0.5) so it
            // cannot win nor stop the loop, and let better-conditioned
            // priors compete.
            Err(IntervalError::UShapedPosterior { .. }) => Interval::new(0.0, 1.0),
            Err(e) => return Err(e),
        };
        candidates.push(interval);
    }

    // Line 23: argmin of the interval widths.
    let winner = candidates
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.width()
                .partial_cmp(&b.width())
                .expect("interval widths are finite")
        })
        .map(|(i, _)| i)
        .expect("candidates nonempty");

    Ok(AHpdSelection {
        interval: candidates[winner],
        winner,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srs_state(tau: u64, n: u64) -> SampleState {
        let mut s = SampleState::new_srs();
        for i in 0..n {
            s.record_triple(i < tau);
        }
        s
    }

    #[test]
    fn selects_the_smallest_candidate() {
        let state = srs_state(29, 30);
        let sel = ahpd_select(&state, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
        for c in &sel.candidates {
            assert!(sel.interval.width() <= c.width() + 1e-12);
        }
        assert_eq!(sel.candidates.len(), 3);
        assert!((sel.interval.width() - sel.candidates[sel.winner].width()).abs() < 1e-15);
    }

    #[test]
    fn extreme_region_prefers_kerman() {
        // All-correct outcome: Fig. 3 says Kerman is optimal near μ = 1.
        let state = srs_state(30, 30);
        let sel = ahpd_select(&state, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
        assert_eq!(BetaPrior::UNINFORMATIVE[sel.winner].name, "Kerman");
    }

    #[test]
    fn central_region_prefers_uniform() {
        let state = srs_state(15, 30);
        let sel = ahpd_select(&state, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
        assert_eq!(BetaPrior::UNINFORMATIVE[sel.winner].name, "Uniform");
    }

    #[test]
    fn jeffreys_never_wins_over_the_tau_range() {
        for tau in 0..=30u64 {
            let state = srs_state(tau, 30);
            let sel = ahpd_select(&state, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
            assert_ne!(
                BetaPrior::UNINFORMATIVE[sel.winner].name,
                "Jeffreys",
                "Jeffreys won at τ = {tau}"
            );
        }
    }

    #[test]
    fn informative_prior_can_dominate() {
        // Paper Example 2: reliable prior knowledge shrinks the interval.
        let informative = BetaPrior::informative(90.0, 10.0).unwrap();
        let mut priors = vec![informative];
        priors.extend(BetaPrior::UNINFORMATIVE);
        let state = srs_state(27, 30);
        let sel = ahpd_select(&state, 0.05, &priors).unwrap();
        assert_eq!(sel.winner, 0, "informative prior should win");
    }

    #[test]
    fn works_with_cluster_states() {
        let mut s = SampleState::new_cluster();
        for i in 0..15 {
            let m = if i % 3 == 0 { 1.0 } else { 0.9 };
            s.record_cluster_draw(m, (m * 3.0).round() as u64, 3);
        }
        let sel = ahpd_select(&s, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
        assert!(sel.interval.lower() > 0.5);
        assert!(sel.interval.upper() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one prior")]
    fn empty_priors_panics() {
        let state = srs_state(5, 10);
        let _ = ahpd_select(&state, 0.05, &[]);
    }
}

#[cfg(test)]
mod ushape_tests {
    use super::*;
    use crate::state::SampleState;

    #[test]
    fn u_shaped_candidates_get_the_sentinel_and_never_win() {
        // Cluster state engineered so n_eff collapses to the floor of 1:
        // per-draw Hansen–Hurwitz-style estimates with huge variance.
        let mut s = SampleState::new_cluster();
        for i in 0..40 {
            let est = if i % 2 == 0 { 3.0 } else { 0.0 };
            s.record_cluster_draw(est, (est.min(1.0) * 14.0) as u64, 14);
        }
        let eff = s.effective();
        assert!(eff.n_eff >= 1.0, "n_eff floored: {}", eff.n_eff);
        // With n_eff ≈ 1 and μ̂ interior, Kerman's posterior can be
        // U-shaped while Uniform's is proper; aHPD must survive and pick
        // a proper candidate.
        let sel = ahpd_select(&s, 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
        assert!(sel.interval.width() <= 1.0);
        assert!(sel.interval.lower() >= 0.0 && sel.interval.upper() <= 1.0);
    }
}
