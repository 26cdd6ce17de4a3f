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
//! [`crate::framework`]. The same race also runs on pooled posteriors
//! known only by their moments (a stratified campaign's KG-wide
//! accuracy, a monitor's surviving evidence mixed with unseen
//! additions): see `pooled_ahpd`.

use crate::method::pruned_ahpd;
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

/// The winner of [`pooled_ahpd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PooledSelection {
    /// The pooled mean `m` under the winning prior.
    pub mean: f64,
    /// The moment-matched evidence `ν = m(1−m)/v − 1`.
    pub nu: f64,
    /// The moment-matched posterior `Beta(m·ν, (1−m)·ν)`.
    pub posterior: Beta,
    /// Its `1-α` HPD interval, the narrowest over the priors.
    pub interval: Interval,
}

/// The aHPD race on a pooled posterior known only by its moments.
/// `moments(prior)` gives the pooled mean `m` and variance `v` under
/// each prior; each pair is moment-matched to `Beta(m·ν, (1−m)·ν)` with
/// `ν = m(1−m)/v − 1`, and the narrowest HPD interval wins, the first on
/// ties, as in [`ahpd_select`]. A prior whose `ν` is not finite and
/// positive, whose `m` is outside `(0, 1)` or whose posterior has no HPD
/// interval sits the race out; `None` when every prior does.
pub(crate) fn pooled_ahpd(
    priors: &[BetaPrior],
    alpha: f64,
    moments: impl Fn(&BetaPrior) -> (f64, f64),
) -> Option<PooledSelection> {
    let matched: Vec<(f64, f64, Beta)> = priors
        .iter()
        .filter_map(|prior| {
            let (m, v) = moments(prior);
            let nu = m * (1.0 - m) / v - 1.0;
            if !(nu.is_finite() && nu > 0.0 && m > 0.0 && m < 1.0) {
                return None;
            }
            let posterior = Beta::new(m * nu, (1.0 - m) * nu).ok()?;
            Some((m, nu, posterior))
        })
        .collect();
    if matched.is_empty() {
        return None;
    }
    let posteriors: Vec<Beta> = matched.iter().map(|&(_, _, posterior)| posterior).collect();
    // A failed solve gets the full-range sentinel, which no HPD interval
    // at α > 0 is as wide as: it wins only when every solve failed.
    let (interval, winner) = pruned_ahpd(&posteriors, alpha, |i| {
        Ok(hpd_interval_exact(&posteriors[i], alpha).unwrap_or(Interval::new(0.0, 1.0)))
    })
    .ok()?;
    if interval.width() >= 1.0 {
        return None;
    }
    let (mean, nu, posterior) = matched[winner];
    Some(PooledSelection {
        mean,
        nu,
        posterior,
        interval,
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

    /// The moments of `Beta(p.a + τ, p.b + n − τ)`.
    fn posterior_moments(prior: &BetaPrior, tau: f64, n: f64) -> (f64, f64) {
        let (a, b) = (prior.a + tau, prior.b + n - tau);
        (a / (a + b), a * b / ((a + b) * (a + b) * (a + b + 1.0)))
    }

    #[test]
    fn pooled_race_on_exact_moments_selects_like_ahpd() {
        // Moments of a conjugate posterior match back to (nearly) that
        // posterior, so the pooled race picks aHPD's winner and interval.
        for (tau, n) in [(29, 30), (30, 30), (15, 30), (80, 100)] {
            let sel = ahpd_select(&srs_state(tau, n), 0.05, &BetaPrior::UNINFORMATIVE).unwrap();
            let pooled = pooled_ahpd(&BetaPrior::UNINFORMATIVE, 0.05, |p| {
                posterior_moments(p, tau as f64, n as f64)
            })
            .unwrap();
            let prior = BetaPrior::UNINFORMATIVE[sel.winner];
            assert!((pooled.nu - (prior.a + prior.b + n as f64)).abs() < 1e-9);
            assert!((pooled.interval.lower() - sel.interval.lower()).abs() < 1e-9);
            assert!((pooled.interval.upper() - sel.interval.upper()).abs() < 1e-9);
        }
    }

    #[test]
    fn pooled_race_keeps_the_first_narrowest_valid_prior() {
        // Solving every valid moment-matched prior and keeping the first
        // minimal width gives the pruned race's answer, bit for bit.
        let priors = [
            BetaPrior::informative(90.0, 10.0).unwrap(),
            BetaPrior::KERMAN,
            BetaPrior::JEFFREYS,
            BetaPrior::UNIFORM,
        ];
        for tau in 0..=40u32 {
            let moments = |p: &BetaPrior| {
                let (m, v) = posterior_moments(p, f64::from(tau), 40.0);
                (0.7 * m + 0.15, 0.49 * v + 0.09 / 12.0)
            };
            let want = priors
                .iter()
                .filter_map(|p| {
                    let (m, v) = moments(p);
                    let nu = m * (1.0 - m) / v - 1.0;
                    let post = Beta::new(m * nu, (1.0 - m) * nu).ok()?;
                    hpd_interval_exact(&post, 0.05).ok()
                })
                .reduce(|best, i| if i.width() < best.width() { i } else { best })
                .unwrap();
            let got = pooled_ahpd(&priors, 0.05, moments).unwrap().interval;
            assert_eq!(
                (got.lower().to_bits(), got.upper().to_bits()),
                (want.lower().to_bits(), want.upper().to_bits()),
                "τ = {tau}"
            );
        }
    }

    #[test]
    fn pooled_race_skips_priors_without_a_valid_beta() {
        let at = |moments: [(f64, f64); 3]| {
            pooled_ahpd(&BetaPrior::UNINFORMATIVE, 0.05, |p| {
                let i = BetaPrior::UNINFORMATIVE
                    .iter()
                    .position(|q| q == p)
                    .unwrap();
                moments[i]
            })
        };
        // Zero variance, a mean on the boundary and a variance past the
        // Bernoulli maximum match no Beta.
        assert_eq!(at([(0.9, 0.0), (1.0, 1e-3), (0.5, 0.3)]), None);
        let one = at([(0.9, 0.0), (0.9, 1e-3), (0.5, 0.3)]).unwrap();
        assert!((one.mean - 0.9).abs() < 1e-15);
        assert!((one.nu - 89.0).abs() < 1e-9);
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
