//! Accumulated annotation state — the sufficient statistics every
//! interval method reads (phase 3 of Figure 1).

use kgae_sampling::{
    cluster_estimate_from_moments, design_effect, effective_sample_size, srs_estimate, Estimate,
};
use kgae_stats::descriptive::OnlineMoments;

/// Which estimator family the sample feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignKind {
    /// Triple-level SRS: the sample proportion estimator (Eq. 2).
    Srs,
    /// Cluster designs (TWCS/WCS/SCS): mean of per-draw estimates (Eq. 3)
    /// with Kish design-effect adjustment for the interval methods.
    Cluster,
}

/// Running annotation tallies.
///
/// Cluster draws feed a Welford accumulator rather than a growing vector
/// of per-draw estimates, so the estimator (and hence the per-draw
/// stopping check) is O(1) per draw instead of O(draws) — the quadratic
/// re-summation was measurable on low-accuracy datasets that run for
/// hundreds of draws.
#[derive(Debug, Clone)]
pub struct SampleState {
    kind: DesignKind,
    /// Total annotated observations (with multiplicity under
    /// with-replacement cluster draws).
    n: u64,
    /// Observations annotated correct.
    tau: u64,
    /// Online moments of the per-stage-1-draw estimates (cluster designs
    /// only). For TWCS/WCS the draws push cluster sample means
    /// `μ̂_i ∈ [0, 1]`; for SCS the Hansen–Hurwitz per-draw estimates
    /// (possibly > 1).
    draw_moments: OnlineMoments,
}

/// Design-effect-adjusted view of the sample, the inputs to Wilson and
/// the credible-interval posterior updates (Algorithm 1, lines 10–14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveSample {
    /// Point estimate `μ̂` (clamped to `[0, 1]` for posterior use).
    pub mu: f64,
    /// Effective sample size `n_eff = n / deff`.
    pub n_eff: f64,
    /// The Kish design effect itself.
    pub deff: f64,
}

impl SampleState {
    /// Fresh SRS state.
    #[must_use]
    pub fn new_srs() -> Self {
        Self {
            kind: DesignKind::Srs,
            n: 0,
            tau: 0,
            draw_moments: OnlineMoments::new(),
        }
    }

    /// Fresh cluster-design state.
    #[must_use]
    pub fn new_cluster() -> Self {
        Self {
            kind: DesignKind::Cluster,
            n: 0,
            tau: 0,
            draw_moments: OnlineMoments::new(),
        }
    }

    /// Records one SRS-annotated triple.
    ///
    /// # Panics
    ///
    /// Panics when called on a cluster-design state.
    pub fn record_triple(&mut self, correct: bool) {
        assert_eq!(self.kind, DesignKind::Srs, "record_triple on cluster state");
        self.n += 1;
        if correct {
            self.tau += 1;
        }
    }

    /// Records one stage-1 cluster draw with its per-draw estimate and
    /// annotation counts.
    ///
    /// # Panics
    ///
    /// Panics when called on an SRS state or with `size == 0`.
    pub fn record_cluster_draw(&mut self, estimate: f64, correct: u64, size: u64) {
        assert_eq!(
            self.kind,
            DesignKind::Cluster,
            "record_cluster_draw on SRS state"
        );
        assert!(size > 0, "empty cluster draw");
        self.n += size;
        self.tau += correct;
        self.draw_moments.push(estimate);
    }

    /// Design kind.
    #[must_use]
    pub fn kind(&self) -> DesignKind {
        self.kind
    }

    /// Total annotated observations.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Observations annotated correct.
    #[must_use]
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// Number of stage-1 draws (0 for SRS).
    #[must_use]
    pub fn draws(&self) -> usize {
        self.draw_moments.count() as usize
    }

    /// Point estimate with variance under the design's estimator.
    ///
    /// # Panics
    ///
    /// Panics on an empty state.
    #[must_use]
    pub fn estimate(&self) -> Estimate {
        match self.kind {
            DesignKind::Srs => srs_estimate(self.tau, self.n),
            DesignKind::Cluster => cluster_estimate_from_moments(
                self.draw_moments.mean(),
                self.draw_moments.sum_sq_dev(),
                self.draw_moments.count(),
            ),
        }
    }

    /// Point estimate `μ̂` alone.
    #[must_use]
    pub fn mu_hat(&self) -> f64 {
        self.estimate().mu
    }

    /// The design-effect-adjusted sample (Algorithm 1, line 12). For SRS
    /// the adjustment is the identity (`deff = 1`, `n_eff = n`).
    #[must_use]
    pub fn effective(&self) -> EffectiveSample {
        match self.kind {
            DesignKind::Srs => EffectiveSample {
                mu: self.tau as f64 / self.n as f64,
                n_eff: self.n as f64,
                deff: 1.0,
            },
            DesignKind::Cluster => {
                let est = self.estimate();
                let deff = design_effect(&est, self.n);
                // An effective sample below one observation is not
                // meaningful (it can only arise from pathological
                // per-draw variance under whole-cluster designs); floor
                // it so downstream posteriors stay proper.
                EffectiveSample {
                    mu: est.mu.clamp(0.0, 1.0),
                    n_eff: effective_sample_size(self.n, deff).max(1.0),
                    deff,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srs_tallies_and_estimate() {
        let mut s = SampleState::new_srs();
        for i in 0..30 {
            s.record_triple(i % 10 != 0); // 27/30 correct
        }
        assert_eq!(s.n(), 30);
        assert_eq!(s.tau(), 27);
        let e = s.estimate();
        assert!((e.mu - 0.9).abs() < 1e-12);
        let eff = s.effective();
        assert_eq!(eff.deff, 1.0);
        assert_eq!(eff.n_eff, 30.0);
    }

    #[test]
    fn cluster_tallies_and_estimate() {
        let mut s = SampleState::new_cluster();
        s.record_cluster_draw(1.0, 3, 3);
        s.record_cluster_draw(0.5, 1, 2);
        s.record_cluster_draw(0.75, 3, 4);
        assert_eq!(s.n(), 9);
        assert_eq!(s.tau(), 7);
        assert_eq!(s.draws(), 3);
        let e = s.estimate();
        assert!((e.mu - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cluster_design_effect_flows_into_n_eff() {
        let mut uniform = SampleState::new_cluster();
        let mut varied = SampleState::new_cluster();
        for i in 0..20 {
            uniform.record_cluster_draw(0.8, 4, 5);
            // Same overall μ̂ but means alternate 1.0 / 0.6.
            let m = if i % 2 == 0 { 1.0 } else { 0.6 };
            varied.record_cluster_draw(m, (m * 5.0) as u64, 5);
        }
        let eu = uniform.effective();
        let ev = varied.effective();
        // Identical cluster means → tiny variance → deff « 1 → n_eff » n.
        assert!(eu.deff < 0.01, "uniform deff = {}", eu.deff);
        assert!(eu.n_eff > 100.0 * 20.0 * 5.0 / 1000.0);
        // Varied means → positive deff.
        assert!(ev.deff > eu.deff);
        assert!((ev.mu - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "record_triple on cluster state")]
    fn wrong_recorder_panics() {
        let mut s = SampleState::new_cluster();
        s.record_triple(true);
    }

    #[test]
    fn welford_moments_feed_the_cluster_estimate() {
        let mut s = SampleState::new_cluster();
        s.record_cluster_draw(1.0, 3, 3);
        assert_eq!(
            s.estimate().variance,
            f64::INFINITY,
            "one draw has no spread"
        );
        s.record_cluster_draw(0.5, 1, 2);
        s.record_cluster_draw(0.75, 3, 4);
        // Σ(μ_i - 0.75)² = 0.0625 + 0.0625 + 0 = 0.125 over d(d−1) = 6.
        let est = s.estimate();
        assert!((est.mu - 0.75).abs() < 1e-12);
        assert!((est.variance - 0.125 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn scs_style_estimates_above_one_are_clamped_for_posteriors() {
        let mut s = SampleState::new_cluster();
        s.record_cluster_draw(1.4, 2, 2); // Hansen–Hurwitz per-draw > 1
        s.record_cluster_draw(0.7, 1, 2);
        let eff = s.effective();
        assert!(eff.mu <= 1.0);
    }
}
