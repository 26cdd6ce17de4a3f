//! Highest Posterior Density (HPD) credible intervals (paper §4.3).
//!
//! The `1-α` HPD interval is the *shortest* interval with posterior mass
//! `1-α` (Theorem 1) and is unique (Theorem 2). Cases by posterior shape:
//!
//! * **Unimodal** (`α > 1, β > 1`, the standard case `0 < τ < n`):
//!   solved exactly by [`hpd_interval_exact`]: Newton on the window width
//!   `w` for `M(w) = 1 - α`, where `M(w)` is the mass of the best-placed
//!   width-`w` window (the same best-window primitive
//!   [`hpd_width_achievable`] uses), started from the certified
//!   under-estimate [`hpd_width_lower_bound`]. It needs no quantile and
//!   no nested root-finding. The paper instead minimizes `u - l` under
//!   `F(u) - F(l) = 1 - α` with sequential quadratic programming from
//!   the ET interval; Theorem 2 makes that optimum unique, so both solve
//!   for the same interval. This is the only HPD solver: SRS campaigns
//!   (the posterior-kernel cache memoizes it), cluster designs on their
//!   effective posteriors, the monitor's appraisal and the figure
//!   binaries all call it.
//! * **Monotone increasing** (all-correct limiting case, Eq. 10):
//!   `[qBeta(α), 1]`.
//! * **Monotone decreasing** (all-incorrect limiting case, Eq. 11):
//!   `[0, qBeta(1-α)]`.
//! * **Uniform**: every width-`(1-α)` interval is an HPD set; the central
//!   one is returned (it coincides with ET, Theorem 3's degenerate case).
//! * **U-shaped**: no single HPD interval exists — an error. Cluster
//!   designs reach it with little effective evidence under a sub-uniform
//!   prior (Kerman at `n_eff = 1`, `μ̂ = 0.5` is `Beta(0.83, 0.83)`); the
//!   engines map it to the uninformative `[0, 1]` interval.

use crate::error::IntervalError;
use crate::et::{check_alpha, et_interval};
use crate::types::Interval;
use kgae_stats::dist::{Beta, BetaShape};

/// [`hpd_interval_exact`] under its former name, kept only because the
/// repository benchmark's `intervals.hpd.cold` row calls it.
#[doc(hidden)]
pub fn hpd_interval(posterior: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    hpd_interval_exact(posterior, alpha)
}

/// [`hpd_interval_exact`], ignoring `_warm`: kept only because the
/// repository benchmark's `intervals.hpd.warm` row calls it.
#[doc(hidden)]
pub fn hpd_interval_warm(
    posterior: &Beta,
    alpha: f64,
    _warm: Option<(f64, f64)>,
) -> Result<Interval, IntervalError> {
    hpd_interval_exact(posterior, alpha)
}

/// Certified lower bound on the `1-α` HPD width of a *unimodal*
/// posterior, from `1 - α = ∫_l^u f ≤ (u - l)·f(mode)`:
/// `width ≥ (1-α) / f(mode)`. One density evaluation. `None` when the
/// posterior is not unimodal.
///
/// The exact solver ([`hpd_interval_exact`]) starts its Newton iteration
/// on the width here: the best-window mass is concave in the width, so
/// from a certified under-estimate the iterates approach the HPD width
/// from the left. The bound's contrapositive is also the first step of
/// [`hpd_width_achievable`].
#[must_use]
pub fn hpd_width_lower_bound(posterior: &Beta, alpha: f64) -> Option<f64> {
    let mode = posterior.mode()?;
    let f_max = posterior.pdf(mode);
    if !(f_max.is_finite() && f_max > 0.0) {
        return None;
    }
    Some((1.0 - alpha) / f_max)
}

/// Exact stopping-achievability predicate: can **some** interval of
/// width `w` hold `1-α` posterior mass? Equivalently, is the `1-α` HPD
/// width at most `w`?
///
/// For a unimodal posterior this is three steps:
///
/// 1. the necessary condition `w·f(mode) ≥ 1-α` (the contrapositive of
///    Theorem 1's width bound) rejects the common "clearly not yet" case
///    with one density evaluation;
/// 2. the best-placed width-`w` window `[l, l+w]` is located by a
///    bracketed Newton solve of `f(l) = f(l+w)` in log space, which
///    needs no CDF, no normalizer and no `exp`;
/// 3. that window's mass, two CDF evaluations, is compared with `1-α`.
///
/// Monotone and uniform shapes have closed-form best windows. U-shaped
/// posteriors return `true` (nothing can be certified, so the caller
/// must construct and check).
#[must_use]
pub fn hpd_width_achievable(post: &Beta, alpha: f64, w: f64) -> bool {
    if w >= 1.0 {
        return true;
    }
    if w <= 0.0 {
        return false;
    }
    let target = 1.0 - alpha;
    match post.shape() {
        BetaShape::Uniform => w >= target,
        BetaShape::UShaped => true,
        BetaShape::Increasing => 1.0 - post.cdf(1.0 - w) >= target,
        BetaShape::Decreasing => post.cdf(w) >= target,
        BetaShape::Unimodal => {
            let mode = post.mode().expect("unimodal posterior has a mode");
            if w * post.pdf(mode) < target {
                return false;
            }
            let l = best_window_start(post, mode, w);
            post.cdf(l + w) - post.cdf(l) >= target
        }
    }
}

/// Newton step size below which [`best_window_start`] accepts a root,
/// provided `|g| ≤` [`WINDOW_GTOL`] as well.
const WINDOW_XTOL: f64 = 1e-12;

/// `|g|` below which a tiny Newton step is accepted as converged. Near
/// either bracket end (`l → 0`, `l → 1 − w`) the derivative `g′`
/// diverges, so a tiny step alone is no evidence of a root there.
const WINDOW_GTOL: f64 = 1e-9;

/// Left end `l` of the width-`w` window holding the most mass of a
/// unimodal posterior: the root of
/// `g(l) = (a−1)·ln(l/(l+w)) + (b−1)·ln((1−l)/(1−l−w))` on
/// `[max(mode−w, 0), min(mode, 1−w)]`.
///
/// `g(l) = ln f(l) − ln f(l+w)`, so it has the sign of the density
/// difference the first-order condition sets to zero, but needs neither
/// the normalizer nor `exp`. It is strictly increasing (`g′ > 0` below),
/// runs from `−∞` to `+∞` when the bracket ends are `0` and `1−w`, and
/// is negative at `mode − w` and positive at `mode` otherwise, so the
/// root is unique and bracketed. Newton steps that leave the current
/// bracket are replaced by bisection.
fn best_window_start(post: &Beta, mode: f64, w: f64) -> f64 {
    let (a1, b1) = (post.alpha() - 1.0, post.beta() - 1.0);
    let c = 1.0 - w;
    let (mut lo, mut hi) = ((mode - w).max(0.0), mode.min(c));
    // `c − l` instead of `1 − l − w`, which can round to zero or below:
    // `c − l` is positive for every iterate strictly inside the bracket.
    let g = |l: f64| b1 * (w / (c - l)).ln_1p() - a1 * (w / l).ln_1p();
    let dg = |l: f64| w * (a1 / (l * (l + w)) + b1 / ((1.0 - l) * (c - l)));
    let mut l = mode - 0.5 * w;
    if !(l > lo && l < hi) {
        l = 0.5 * (lo + hi);
    }
    for _ in 0..200 {
        let gl = g(l);
        let step = gl / dg(l);
        if step.abs() <= WINDOW_XTOL && gl.abs() <= WINDOW_GTOL {
            return l - step;
        }
        if gl < 0.0 {
            lo = l;
        } else {
            hi = l;
        }
        let next = l - step;
        l = if next > lo && next < hi {
            next
        } else {
            0.5 * (lo + hi)
        };
        // Roots within a few ulps of a bracket end (shape parameters near
        // 1) are only reached by bisection; the window mass is sensitive
        // to `l` there, so bisect to double precision (relative to `w`
        // when the bracket closes in on 0).
        if hi - lo <= f64::EPSILON * hi.max(w) {
            break;
        }
    }
    l
}

/// Computes the `1-α` HPD interval: Newton on the best-window width in
/// the unimodal case (see the module docs), closed forms Eq. 10/11 in
/// the limiting cases. This is every caller's solver: the
/// posterior-kernel cache memoizes it for SRS, cluster designs call it
/// on their effective posteriors, and the monitor's appraisal and the
/// figure binaries call it.
pub fn hpd_interval_exact(posterior: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    check_alpha(alpha)?;
    match posterior.shape() {
        BetaShape::Increasing => increasing_case(posterior, alpha),
        BetaShape::Decreasing => decreasing_case(posterior, alpha),
        BetaShape::Uniform => et_interval(posterior, alpha),
        BetaShape::UShaped => Err(IntervalError::UShapedPosterior {
            alpha: posterior.alpha(),
            beta: posterior.beta(),
        }),
        BetaShape::Unimodal => unimodal_exact(posterior, alpha),
    }
}

/// Eq. 10: exponentially increasing posterior (τ = n under an
/// uninformative prior) — the highest-density region abuts 1.
fn increasing_case(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    Ok(Interval::new(post.quantile(alpha)?, 1.0))
}

/// Eq. 11: exponentially decreasing posterior (τ = 0) — the region abuts
/// 0.
fn decreasing_case(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    Ok(Interval::new(0.0, post.quantile(1.0 - alpha)?))
}

/// Newton step on the window width below which [`unimodal_exact`]
/// stops. The step is first order in the mass residual, so the width it
/// lands on is accurate to `O(step²)`; the residual's own rounding noise
/// (CDF error over a density of at least `α`) stays below ~1e-13.
const WIDTH_XTOL: f64 = 1e-11;

/// Exact solver: Newton on the window width `w`. With `[l, l+w]` the
/// best-placed width-`w` window ([`best_window_start`]), its mass
/// `M(w) = F(l+w) − F(l)` is the most any width-`w` interval holds, so
/// the HPD width is the root of `M(w) = 1 − α` (Theorem 1) and the HPD
/// interval is that root's best window. By the envelope theorem
/// `M′(w) = f(l+w)`, which falls as `w` grows: `M` is concave and
/// increasing, so Newton started at the certified under-estimate
/// [`hpd_width_lower_bound`] approaches the root from the left. No
/// quantile (`betainc_inv`) and no nested root-finding.
///
/// A shape parameter within ~0.1 of 1 (low-effective-evidence cluster
/// samples) puts the density-equality root within a few ulps of the
/// boundary, where the best window's start is resolved only to the
/// bisection's double-precision bracket. Such a window is anchored at
/// the boundary exactly, `[0, w]` or `[1 − w, 1]`, so its mass (and the
/// returned interval) does not carry that few-ulp error times the
/// density.
fn unimodal_exact(post: &Beta, alpha: f64) -> Result<Interval, IntervalError> {
    const MAX_ITER: usize = 100;
    const ANCHOR: f64 = 4.0 * f64::EPSILON;
    let no_convergence = |iterations| {
        IntervalError::Optim(kgae_optim::OptimError::NoConvergence {
            algorithm: "newton-hpd",
            iterations,
        })
    };
    let mode = post.mode().expect("unimodal posterior has a mode");
    let window = |w: f64| {
        let l = best_window_start(post, mode, w);
        if l <= ANCHOR * w {
            (0.0, w)
        } else if l + w >= 1.0 - ANCHOR {
            (1.0 - w, 1.0)
        } else {
            (l, l + w)
        }
    };
    let target = 1.0 - alpha;
    let mut w = hpd_width_lower_bound(post, alpha).ok_or_else(|| no_convergence(0))?;
    for _ in 0..MAX_ITER {
        let (l, u) = window(w);
        // M′(w) = f(u) = f(l); an anchored window's boundary endpoint
        // has a meaningless density, so read the one farther from its
        // boundary.
        let slope = post.pdf(if l < 1.0 - u { u } else { l });
        let step = (target - (post.cdf(u) - post.cdf(l))) / slope;
        w += step;
        if step.abs() <= WIDTH_XTOL {
            let (l, u) = window(w);
            return Ok(Interval::new(l, u));
        }
    }
    Err(no_convergence(MAX_ITER))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prior::BetaPrior;
    use kgae_optim::root::{brent, RootConfig};
    use proptest::prelude::*;

    /// Posterior grid spanning the shapes the framework produces:
    /// (prior, τ, n) across skewness levels and evidence sizes.
    fn posterior_grid() -> Vec<Beta> {
        let mut out = Vec::new();
        for prior in BetaPrior::UNINFORMATIVE {
            for &(tau, n) in &[
                (15u64, 30u64),
                (27, 30),
                (29, 30),
                (3, 30),
                (170, 200),
                (100, 200),
                (378, 420),
                (1, 30),
            ] {
                out.push(prior.posterior(tau, n));
            }
        }
        // Informative-prior posteriors (Example 2 regime).
        out.push(Beta::new(80.0 + 50.0, 20.0 + 10.0).unwrap());
        out.push(Beta::new(90.0 + 5.0, 10.0 + 1.0).unwrap());
        out
    }

    #[test]
    fn coverage_constraint_holds() {
        for post in posterior_grid() {
            for &alpha in &[0.10, 0.05, 0.01] {
                let i = hpd_interval_exact(&post, alpha).unwrap();
                let mass = post.cdf(i.upper()) - post.cdf(i.lower());
                assert!(
                    (mass - (1.0 - alpha)).abs() < 1e-7,
                    "Beta({}, {}), α={alpha}: mass = {mass}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
    }

    #[test]
    fn density_is_equal_at_the_endpoints() {
        // First-order condition of Theorem 1 for interior solutions.
        for post in posterior_grid() {
            let i = hpd_interval_exact(&post, 0.05).unwrap();
            if i.lower() > 1e-9 && i.upper() < 1.0 - 1e-9 {
                let fl = post.pdf(i.lower());
                let fu = post.pdf(i.upper());
                assert!(
                    (fl - fu).abs() < 1e-4 * fl.max(fu).max(1.0),
                    "Beta({}, {}): f(l)={fl}, f(u)={fu}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
    }

    #[test]
    fn hpd_is_never_wider_than_et() {
        // Theorem 1: HPD is the shortest 1-α interval.
        for post in posterior_grid() {
            let hpd = hpd_interval_exact(&post, 0.05).unwrap();
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                hpd.width() <= et.width() + 1e-9,
                "Beta({}, {}): hpd={hpd} wider than et={et}",
                post.alpha(),
                post.beta()
            );
        }
    }

    #[test]
    fn hpd_is_strictly_shorter_for_skewed_posteriors() {
        // Fig. 2(b,c): visible gains under skew.
        let post = BetaPrior::KERMAN.posterior(28, 30);
        let hpd = hpd_interval_exact(&post, 0.05).unwrap();
        let et = et_interval(&post, 0.05).unwrap();
        assert!(hpd.width() < et.width() - 1e-4, "hpd={hpd}, et={et}");
    }

    #[test]
    fn symmetric_posterior_equals_et() {
        // Theorem 3.
        for &(a, b) in &[(16.0, 16.0), (4.0, 4.0), (151.0, 151.0)] {
            let post = Beta::new(a, b).unwrap();
            let hpd = hpd_interval_exact(&post, 0.05).unwrap();
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                (hpd.lower() - et.lower()).abs() < 1e-7 && (hpd.upper() - et.upper()).abs() < 1e-7,
                "Beta({a},{b}): hpd={hpd}, et={et}"
            );
        }
    }

    #[test]
    fn hpd_contains_the_mode() {
        for post in posterior_grid() {
            let i = hpd_interval_exact(&post, 0.05).unwrap();
            if let Some(mode) = post.mode() {
                assert!(i.contains(mode), "mode {mode} outside {i}");
            }
        }
    }

    #[test]
    fn limiting_case_all_correct_matches_eq_10() {
        // τ = n = 30 under each uninformative prior.
        for prior in BetaPrior::UNINFORMATIVE {
            let post = prior.posterior(30, 30);
            let i = hpd_interval_exact(&post, 0.05).unwrap();
            assert_eq!(i.upper(), 1.0);
            let want_l = post.quantile(0.05).unwrap();
            assert!((i.lower() - want_l).abs() < 1e-12);
            // Coverage.
            assert!((1.0 - post.cdf(i.lower()) - 0.95).abs() < 1e-9);
        }
    }

    #[test]
    fn limiting_case_all_incorrect_matches_eq_11() {
        for prior in BetaPrior::UNINFORMATIVE {
            let post = prior.posterior(0, 30);
            let i = hpd_interval_exact(&post, 0.05).unwrap();
            assert_eq!(i.lower(), 0.0);
            let want_u = post.quantile(0.95).unwrap();
            assert!((i.upper() - want_u).abs() < 1e-12);
        }
    }

    #[test]
    fn limiting_case_is_shorter_than_any_shifted_interval() {
        // Minimality (Corollary 1): shifting the all-correct interval
        // inward while keeping coverage must widen it.
        let post = BetaPrior::JEFFREYS.posterior(30, 30);
        let hpd = hpd_interval_exact(&post, 0.05).unwrap();
        for &shift in &[0.001, 0.01, 0.05] {
            let u = 1.0 - shift;
            let target = post.cdf(u) - 0.95;
            if target <= 0.0 {
                continue;
            }
            let l = post.quantile(target).unwrap();
            let alt_width = u - l;
            assert!(
                alt_width > hpd.width() - 1e-10,
                "shift {shift}: alternative narrower than HPD"
            );
        }
    }

    #[test]
    fn minimality_against_perturbed_intervals() {
        // Theorem 1 again, numerically: perturb l and re-solve u from the
        // coverage constraint; the width must not decrease.
        let post = BetaPrior::UNIFORM.posterior(170, 200);
        let hpd = hpd_interval_exact(&post, 0.05).unwrap();
        for &delta in &[-0.02, -0.005, 0.005, 0.02] {
            let l = (hpd.lower() + delta).clamp(0.0, 1.0);
            let fl = post.cdf(l);
            if fl + 0.95 >= 1.0 {
                continue;
            }
            let u = post.quantile(fl + 0.95).unwrap();
            assert!(
                u - l >= hpd.width() - 1e-9,
                "delta {delta}: perturbed interval is narrower"
            );
        }
    }

    #[test]
    fn uniform_posterior_returns_central_interval() {
        let post = Beta::new(1.0, 1.0).unwrap();
        let i = hpd_interval_exact(&post, 0.10).unwrap();
        assert!((i.width() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn u_shaped_posterior_is_an_error() {
        let post = Beta::new(0.5, 0.5).unwrap();
        assert!(matches!(
            hpd_interval_exact(&post, 0.05),
            Err(IntervalError::UShapedPosterior { .. })
        ));
    }

    /// `a` and `b` are the same interval, bit for bit.
    fn bit_identical(a: Interval, b: Interval) -> bool {
        a.lower().to_bits() == b.lower().to_bits() && a.upper().to_bits() == b.upper().to_bits()
    }

    #[test]
    fn warm_start_reproduces_cold_start() {
        // The kept aliases are the exact solver: whatever the warm start,
        // both return its interval bit for bit.
        for post in posterior_grid() {
            let exact = hpd_interval_exact(&post, 0.05).unwrap();
            assert!(bit_identical(hpd_interval(&post, 0.05).unwrap(), exact));
            for warm in [
                Some((exact.lower(), exact.upper())),
                Some((
                    (exact.lower() - 0.05).max(0.0),
                    (exact.upper() + 0.05).min(1.0),
                )),
                Some((0.3, 0.6)),
                None,
            ] {
                let w = hpd_interval_warm(&post, 0.05, warm).unwrap();
                assert!(
                    bit_identical(w, exact),
                    "Beta({}, {}), warm {warm:?}: {w} vs {exact}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
    }

    #[test]
    fn degenerate_warm_start_falls_back() {
        let post = BetaPrior::KERMAN.posterior(27, 30);
        let exact = hpd_interval_exact(&post, 0.05).unwrap();
        for warm in [Some((0.9, 0.1)), Some((-0.5, 0.5)), Some((0.2, 1.7))] {
            let w = hpd_interval_warm(&post, 0.05, warm).unwrap();
            assert!(bit_identical(w, exact), "warm {warm:?}: {w} vs {exact}");
        }
    }

    #[test]
    fn width_lower_bound_is_valid_and_useful() {
        for post in posterior_grid() {
            let Some(lb) = hpd_width_lower_bound(&post, 0.05) else {
                continue;
            };
            let actual = hpd_interval_exact(&post, 0.05).unwrap().width();
            assert!(
                lb <= actual + 1e-12,
                "Beta({}, {}): bound {lb} exceeds width {actual}",
                post.alpha(),
                post.beta()
            );
            // The bound is within a constant factor of the truth (≈ 0.6
            // for near-normal posteriors), so it is actually useful.
            assert!(lb > 0.3 * actual, "bound too loose: {lb} vs {actual}");
        }
    }

    #[test]
    fn near_degenerate_shape_parameters_anchor_to_the_boundary() {
        // Beta(5, 1.1): interior mode at ~0.976 but the density falls to
        // zero only within ~1e-10 of x = 1; the HPD is boundary-anchored
        // at double precision. The solver must return it without erroring,
        // with exact coverage.
        for (a, b) in [(5.0, 1.1), (1.1, 5.0), (3.0, 1.02), (1.05, 1.8)] {
            let post = Beta::new(a, b).unwrap();
            let iv = hpd_interval_exact(&post, 0.05).unwrap();
            let mass = post.cdf(iv.upper()) - post.cdf(iv.lower());
            assert!((mass - 0.95).abs() < 1e-6, "Beta({a},{b}): coverage {mass}");
            let et = et_interval(&post, 0.05).unwrap();
            assert!(
                iv.width() <= et.width() + 1e-6,
                "Beta({a},{b}): wider than ET"
            );
        }
    }

    #[test]
    fn modes_rounding_onto_the_boundary_take_the_monotone_limit() {
        // Jeffreys at μ̂ = 0.95, n_eff = 10 is Beta(10, 1 + 4.4e-16): its
        // mode rounds onto 1, where the density is 0. It must solve as
        // the increasing limit [α^(1/10), 1], and its mirror as the
        // decreasing limit [0, 1 − α^(1/10)], by every HPD entry point.
        let post = BetaPrior::JEFFREYS.posterior_effective(0.95, 10.0).unwrap();
        assert!(post.beta() > 1.0 && post.beta() < 1.0 + 1e-15);
        let mirror = Beta::new(post.beta(), post.alpha()).unwrap();
        let l = 0.05f64.powf(0.1);
        for (post, want) in [
            (post, Interval::new(l, 1.0)),
            (mirror, Interval::new(0.0, 1.0 - l)),
        ] {
            let got = hpd_interval_exact(&post, 0.05).unwrap();
            assert!(
                (got.lower() - want.lower()).abs() < 1e-12
                    && (got.upper() - want.upper()).abs() < 1e-12,
                "Beta({}, {}): {got} vs {want}",
                post.alpha(),
                post.beta()
            );
            assert!(hpd_width_achievable(&post, 0.05, 0.5));
            assert!(!hpd_width_achievable(&post, 0.05, 0.25));
            if let Some(lb) = hpd_width_lower_bound(&post, 0.05) {
                assert!(lb <= got.width() + 1e-12);
            }
        }
    }

    #[test]
    fn best_window_is_located_for_near_degenerate_shapes() {
        // A shape parameter near 1 puts the density-equality root within
        // a few ulps of a bracket end, where g′ diverges: Newton steps
        // there are tiny even far from the root. The located window of
        // the HPD width must still stay in bounds and hold 1-α.
        for (a, b) in [
            (1.037, 8745.0),
            (1.0119, 9144.0),
            (1.005, 200.0),
            (1.02, 3.0),
            (1.1, 5.0),
        ] {
            for post in [Beta::new(a, b).unwrap(), Beta::new(b, a).unwrap()] {
                for alpha in [0.15, 0.1, 0.05, 0.01] {
                    let w = hpd_interval_exact(&post, alpha).unwrap().width();
                    let l = best_window_start(&post, post.mode().unwrap(), w);
                    let mass = post.cdf(l + w) - post.cdf(l);
                    assert!(
                        (0.0..=1.0 - w).contains(&l) && (mass - (1.0 - alpha)).abs() < 1e-11,
                        "Beta({}, {}), α={alpha}: window at {l:e} of width {w} holds {mass}",
                        post.alpha(),
                        post.beta()
                    );
                }
            }
        }
    }

    #[test]
    fn width_achievable_matches_actual_hpd_width() {
        // The predicate must be the exact indicator `w ≥ hpd_width`:
        // true just above the actual width, false just below.
        let mut posts = posterior_grid();
        for prior in BetaPrior::UNINFORMATIVE {
            posts.push(prior.posterior(30, 30));
            posts.push(prior.posterior(0, 30));
        }
        for post in posts {
            for &alpha in &[0.10, 0.05, 0.01] {
                let w = hpd_interval_exact(&post, alpha).unwrap().width();
                if w >= 1.0 {
                    continue;
                }
                assert!(
                    hpd_width_achievable(&post, alpha, w + 1e-6),
                    "Beta({}, {}), α={alpha}: width {w} + δ not achievable",
                    post.alpha(),
                    post.beta()
                );
                if w > 1e-5 {
                    assert!(
                        !hpd_width_achievable(&post, alpha, w - 1e-5),
                        "Beta({}, {}), α={alpha}: width {w} − δ achievable",
                        post.alpha(),
                        post.beta()
                    );
                }
            }
        }
    }

    #[test]
    fn width_achievable_boundary_inputs() {
        let post = BetaPrior::KERMAN.posterior(27, 30);
        assert!(hpd_width_achievable(&post, 0.05, 1.0));
        assert!(!hpd_width_achievable(&post, 0.05, 0.0));
        // U-shaped: conservatively achievable.
        assert!(hpd_width_achievable(
            &Beta::new(0.5, 0.5).unwrap(),
            0.05,
            0.01
        ));
    }

    /// Reference for the unimodal branch of [`hpd_width_achievable`]: a
    /// mode-centred sufficient check, then Brent on the density
    /// difference `f(l) − f(l+w)` and the located window's mass.
    fn achievable_by_brent(post: &Beta, alpha: f64, w: f64) -> bool {
        let target = 1.0 - alpha;
        let mode = post.mode().expect("unimodal posterior has a mode");
        if w * post.pdf(mode) < target {
            return false;
        }
        let c_lo = (mode - 0.5 * w).clamp(0.0, 1.0 - w);
        if post.cdf(c_lo + w) - post.cdf(c_lo) >= target {
            return true;
        }
        let lo = (mode - w).max(0.0);
        let hi = mode.min(1.0 - w);
        let h = |l: f64| post.pdf(l) - post.pdf(l + w);
        let l = if hi <= lo {
            lo.min(hi.max(0.0)).clamp(0.0, 1.0 - w)
        } else if h(lo) >= 0.0 {
            lo
        } else if h(hi) <= 0.0 {
            hi
        } else {
            let cfg = RootConfig {
                xtol: 1e-12,
                max_iter: 200,
            };
            brent(h, lo, hi, cfg).unwrap_or(0.5 * (lo + hi))
        };
        post.cdf(l + w) - post.cdf(l) >= target
    }

    /// Checks [`hpd_width_achievable`] against [`achievable_by_brent`] at
    /// `extra_w` and at widths within ±1e-3 of the true HPD width, where
    /// the verdict flips. A disagreement is allowed only when the best
    /// window's mass is within 1e-9 of `1-α`, where rounding decides.
    fn agrees_with_brent(post: &Beta, alpha: f64, extra_w: f64) -> Result<(), TestCaseError> {
        let Some(mode) = post.mode() else {
            return Ok(()); // closed-form shapes: no root find to compare
        };
        let hpd = hpd_interval_exact(post, alpha).unwrap().width();
        let offsets = [-1e-3, -1e-4, -1e-5, -1e-7, 0.0, 1e-7, 1e-5, 1e-4, 1e-3];
        let widths = offsets.iter().map(|d| hpd + d).chain([extra_w]);
        for w in widths.filter(|&w| w > 0.0 && w < 1.0) {
            let (got, want) = (
                hpd_width_achievable(post, alpha, w),
                achievable_by_brent(post, alpha, w),
            );
            if got != want {
                let l = best_window_start(post, mode, w);
                let mass = post.cdf(l + w) - post.cdf(l);
                prop_assert!(
                    (mass - (1.0 - alpha)).abs() < 1e-9,
                    "Beta({}, {}), α={alpha}, w={w} (hpd {hpd}): newton {got}, brent {want}, \
                     mass {mass}",
                    post.alpha(),
                    post.beta()
                );
            }
        }
        Ok(())
    }

    fn alphas() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.10), Just(0.05), Just(0.01), 0.005f64..0.2]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        #[test]
        fn width_achievable_agrees_with_brent_on_srs_posteriors(
            (n, tau) in (1u64..=2000).prop_flat_map(|n| (Just(n), 0..=n)),
            prior in 0usize..3,
            alpha in alphas(),
            extra_w in 0.0f64..1.0,
        ) {
            let post = BetaPrior::UNINFORMATIVE[prior].posterior(tau, n);
            agrees_with_brent(&post, alpha, extra_w)?;
        }

        #[test]
        fn width_achievable_agrees_with_brent_on_cluster_posteriors(
            mu in 0.0f64..=1.0,
            log_n_eff in 0.0f64..5.0,
            prior in 0usize..3,
            alpha in alphas(),
            extra_w in 0.0f64..1.0,
        ) {
            let post = BetaPrior::UNINFORMATIVE[prior]
                .posterior_effective(mu, 10f64.powf(log_n_eff))
                .unwrap();
            agrees_with_brent(&post, alpha, extra_w)?;
        }

        #[test]
        fn width_achievable_agrees_with_brent_on_near_degenerate_shapes(
            log_a in -2.0f64..4.0,
            b in 1.000_001f64..1.1,
            mirrored in 0u8..2,
            alpha in alphas(),
            extra_w in 0.0f64..1.0,
        ) {
            let a = 1.0 + 10f64.powf(log_a);
            let (a, b) = if mirrored == 1 { (b, a) } else { (a, b) };
            agrees_with_brent(&Beta::new(a, b).unwrap(), alpha, extra_w)?;
        }
    }

    /// Reference for [`unimodal_exact`]: Brent on the density difference
    /// `h(l) = f(l) − f(u(l))` with `u(l) = F⁻¹(F(l) + 1 − α)` over
    /// `[0, F⁻¹(α)]`. Without a representable sign change (a shape
    /// parameter within ~0.1 of 1) the HPD interval is boundary-anchored
    /// to double precision, and the shorter anchored 1-α interval is
    /// returned.
    fn exact_by_brent(post: &Beta, alpha: f64) -> Interval {
        let l_max = post.quantile(alpha).unwrap();
        let h = |l: f64| {
            let fl = post.cdf(l);
            let u = post.quantile((fl + 1.0 - alpha).min(1.0)).unwrap_or(1.0);
            post.pdf(l) - post.pdf(u)
        };
        if h(0.0) * h(l_max) > 0.0 {
            let upper_anchored = Interval::new(l_max.clamp(0.0, 1.0), 1.0);
            let lower_anchored =
                Interval::new(0.0, post.quantile(1.0 - alpha).unwrap().clamp(0.0, 1.0));
            return if upper_anchored.width() <= lower_anchored.width() {
                upper_anchored
            } else {
                lower_anchored
            };
        }
        let cfg = RootConfig {
            xtol: 1e-14,
            max_iter: 300,
        };
        let l = brent(h, 0.0, l_max, cfg).unwrap();
        let u = post.quantile((post.cdf(l) + 1.0 - alpha).min(1.0)).unwrap();
        Interval::new(l.clamp(0.0, 1.0), u.clamp(0.0, 1.0))
    }

    /// Theorem 1's optimality conditions for [`hpd_interval_exact`] —
    /// mass `1-α` to 1e-12 and `f(l) = f(u)` to 1e-9 relative — and
    /// agreement with [`exact_by_brent`] to 1e-12 per endpoint.
    ///
    /// The density tolerance widens by each endpoint's log-density slope
    /// times a few ulps, which is how well a root near the boundary can be
    /// represented. An endpoint within a few ulps of 0 or 1 is anchored
    /// there: the density-equality root lies below double resolution, so
    /// only the mass and the oracle check such an interval.
    fn meets_theorem_1(post: &Beta, alpha: f64) -> Result<(), TestCaseError> {
        if post.mode().is_none() {
            return Ok(()); // closed-form shapes: no root find to check
        }
        let got = hpd_interval_exact(post, alpha).unwrap();
        let (l, u) = (got.lower(), got.upper());
        let (a, b) = (post.alpha(), post.beta());
        let mass = post.cdf(u) - post.cdf(l);
        prop_assert!(
            (mass - (1.0 - alpha)).abs() <= 1e-12,
            "Beta({a}, {b}), α={alpha}: {got} holds {mass}"
        );
        if l > 4.0 * f64::EPSILON && u < 1.0 - 4.0 * f64::EPSILON {
            let slope = |x: f64| ((a - 1.0) / x - (b - 1.0) / (1.0 - x)).abs();
            let tol = 1e-9 + 4.0 * f64::EPSILON * (slope(l) + slope(u));
            let gap = (post.ln_pdf(l) - post.ln_pdf(u)).abs();
            prop_assert!(
                gap <= tol,
                "Beta({a}, {b}), α={alpha}: {got} has |ln f(l) − ln f(u)| = {gap:e}"
            );
        }
        let want = exact_by_brent(post, alpha);
        prop_assert!(
            (l - want.lower()).abs() <= 1e-12 && (u - want.upper()).abs() <= 1e-12,
            "Beta({a}, {b}), α={alpha}: newton [{l:e}, {u:e}], brent [{:e}, {:e}]",
            want.lower(),
            want.upper()
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn exact_hpd_meets_theorem_1_on_srs_posteriors(
            (n, tau) in (1u64..=2000).prop_flat_map(|n| (Just(n), 0..=n)),
            prior in 0usize..3,
            alpha in alphas(),
        ) {
            meets_theorem_1(&BetaPrior::UNINFORMATIVE[prior].posterior(tau, n), alpha)?;
        }

        #[test]
        fn exact_hpd_meets_theorem_1_on_cluster_posteriors(
            mu in 0.0f64..=1.0,
            log_n_eff in 0.0f64..5.0,
            prior in 0usize..3,
            alpha in alphas(),
        ) {
            let post = BetaPrior::UNINFORMATIVE[prior]
                .posterior_effective(mu, 10f64.powf(log_n_eff))
                .unwrap();
            meets_theorem_1(&post, alpha)?;
        }

        #[test]
        fn exact_hpd_meets_theorem_1_on_near_degenerate_shapes(
            log_a in -2.0f64..4.0,
            b in 1.000_001f64..1.1,
            mirrored in 0u8..2,
            alpha in alphas(),
        ) {
            let a = 1.0 + 10f64.powf(log_a);
            let (a, b) = if mirrored == 1 { (b, a) } else { (a, b) };
            meets_theorem_1(&Beta::new(a, b).unwrap(), alpha)?;
        }
    }

    #[test]
    fn width_lower_bound_none_for_monotone_shapes() {
        assert!(hpd_width_lower_bound(&BetaPrior::KERMAN.posterior(30, 30), 0.05).is_none());
        assert!(hpd_width_lower_bound(&BetaPrior::KERMAN.posterior(0, 30), 0.05).is_none());
    }

    #[test]
    fn figure_2_regions_skewed_case() {
        // Fig. 2(b,c): the ET interval covers a non-HPD region while
        // excluding part of the HPD region; verify the CDF comparison the
        // paper makes — the excluded HPD mass exceeds the included
        // non-HPD mass... equivalently both intervals have the same
        // coverage but ET is wider and shifted left for a right-skewed
        // (high-accuracy) posterior.
        let post = BetaPrior::KERMAN.posterior(29, 30);
        let hpd = hpd_interval_exact(&post, 0.05).unwrap();
        let et = et_interval(&post, 0.05).unwrap();
        assert!(et.lower() < hpd.lower(), "ET extends below the HPD region");
        assert!(et.upper() < hpd.upper(), "ET stops short of the HPD top");
    }
}
