//! Interval-method dispatch: one enum covering every `1-α` interval the
//! experiments compare, applied uniformly to SRS and cluster samples.
//!
//! Two hot-path mechanisms live here alongside the dispatch:
//!
//! * **The posterior kernel** ([`Kernel`]): under SRS every interval and
//!   certificate is a pure function of the integer counts `(τ, n)` plus
//!   the `(prior, α)` configuration, so all SRS solves route through
//!   [`kgae_intervals::kernel`]'s canonical count-keyed functions. When a
//!   shared [`KernelCache`] is attached to the [`MethodState`] the solves
//!   are memoized process-wide; without one the same functions run
//!   directly, so cached and uncached runs are bit-identical by
//!   construction. (Cluster designs have fractional effective counts and
//!   call the exact HPD solver on their effective posteriors directly.)
//! * **Certified multi-step lookahead**
//!   ([`IntervalMethod::certified_skip_srs`] /
//!   [`IntervalMethod::certified_skip_cluster`]): from Theorem 1's width
//!   bound, compute how many future annotation units *provably* cannot
//!   satisfy `MoE ≤ ε`, so the evaluation loop skips interval
//!   construction (and even the one-step bound check) entirely until the
//!   first unit where stopping is achievable. Both searches run on the
//!   decisive extreme outcome first, starting near its expected answer
//!   (SRS: the state's `Frontier` hint; clusters: the normal
//!   approximation's horizon), and certify the candidate with one probe
//!   of the rest of the outcome-and-prior union. The stopping decision is
//!   unchanged — every skipped step is one where the reference
//!   check-every-unit loop could not have stopped either.
//! * **Pruned aHPD selection**: at the stop, the prior with the smallest
//!   certified width lower bound is solved first, and every other prior
//!   whose HPD width is certified wider than that solution is never
//!   solved. The selected interval is the one solving every prior would
//!   select, bit for bit.

use crate::ahpd::posteriors_for_state;
use crate::state::{DesignKind, SampleState};
use kgae_intervals::{
    et_interval, hpd_interval_exact, hpd_width_achievable, hpd_width_lower_bound,
    wald_from_variance, wilson, BetaPrior, Interval, IntervalError, Kernel, KernelCache,
};
use kgae_stats::dist::Beta;
use std::sync::Arc;

/// Hard cap on a single certified skip, bounding the cost of one
/// lookahead computation. Re-derived after the cap is reached, so larger
/// skips simply arrive in installments.
const MAX_SKIP: u64 = 1 << 16;

/// Relative margin by which a prior's HPD width must be certified wider
/// than the best solved width before the pruned aHPD selection skips its
/// solve — far above the exact solver's error, so a skipped prior could
/// never have been selected.
const PRUNE_MARGIN: f64 = 1e-6;

/// Where the last SRS lookahead found the decisive path's first
/// stoppable horizon. The next search starts from it, rescaled to the
/// new state's fixed count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// The path's direction: `true` when successes move (`τ+k`).
    toward_one: bool,
    /// The count fixed along the path: failures toward one, successes
    /// toward zero.
    fixed: u64,
    /// The moving count at the path's first stoppable horizon.
    stop: u64,
}

impl Frontier {
    /// The horizon to start the next decisive search at, from a path
    /// with the given direction and counts. At high accuracy the moving
    /// count needed to stop grows as the square root of the fixed count
    /// (the normal approximation), so the hint is `stop·√(fixed/f₀)`. A
    /// flipped direction, or a first failure after a run without any,
    /// starts cold at horizon 1.
    fn start(&self, toward_one: bool, fixed: u64, moving: u64) -> u64 {
        if toward_one != self.toward_one || (self.fixed == 0 && fixed > 0) {
            return 1;
        }
        let scale = if self.fixed == 0 {
            1.0
        } else {
            (fixed as f64 / self.fixed as f64).sqrt()
        };
        ((self.stop as f64 * scale).ceil() as u64).saturating_sub(moving)
    }
}

/// Per-run solver state carried across the framework's successive calls:
/// the incrementally-advanced per-prior posteriors for SRS samples, an
/// optional handle on the process-wide posterior-kernel cache, and the
/// SRS lookahead's search hint. Every interval is solved from the
/// current sample alone, so no state changes a result.
#[derive(Debug, Clone, Default)]
pub struct MethodState {
    /// Per-prior posteriors `Beta(a + τ, b + n − τ)`, advanced by
    /// [`IntervalMethod::record_observation`]. Empty for methods without
    /// posteriors (Wald, Wilson). SRS interval construction routes
    /// through the count-keyed kernel instead of reading these, but the
    /// state keeps tracking them: they are part of the snapshot wire
    /// format, so byte-stable resumability does not depend on whether a
    /// kernel cache is attached.
    pub(crate) posteriors: Vec<Beta>,
    /// The `(τ, n)` the cached posteriors reflect.
    pub(crate) tracked: (u64, u64),
    /// Shared posterior-kernel cache. `None` solves every kernel
    /// directly through the same canonical functions — identical bits,
    /// no memoization. Never serialized: a resumed session re-attaches
    /// the host's cache (or none).
    pub(crate) kernel: Option<Arc<KernelCache>>,
    /// Where the last SRS lookahead's decisive search ended: a cache
    /// that only moves where the next search starts, never its result.
    /// Never serialized: snapshots keep their bytes, and a resumed
    /// session's first search starts cold and finds the same skip.
    pub(crate) frontier: Option<Frontier>,
}

impl MethodState {
    /// The dispatch handle for this state's SRS kernel solves.
    pub(crate) fn kernel(&self) -> Kernel<'_> {
        Kernel::new(self.kernel.as_deref())
    }

    /// Attaches the shared posterior-kernel cache; subsequent SRS solves
    /// memoize through it.
    pub(crate) fn attach_kernel(&mut self, kernel: Arc<KernelCache>) {
        self.kernel = Some(kernel);
    }
}

/// An interval-estimation method under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalMethod {
    /// Wald CI (Eq. 5) — efficient but unreliable baseline.
    Wald,
    /// Wilson CI (Eq. 7) with Kish effective-sample-size adjustment under
    /// cluster designs — the frequentist state of the art.
    Wilson,
    /// Equal-tailed credible interval under one prior (Eq. 9).
    Et(BetaPrior),
    /// HPD credible interval under one prior (§4.3).
    Hpd(BetaPrior),
    /// The adaptive HPD algorithm over a set of priors (Algorithm 1).
    AHpd(Vec<BetaPrior>),
}

impl IntervalMethod {
    /// aHPD with the paper's default prior set {Kerman, Jeffreys,
    /// Uniform}.
    #[must_use]
    pub fn ahpd_default() -> IntervalMethod {
        IntervalMethod::AHpd(BetaPrior::UNINFORMATIVE.to_vec())
    }

    /// Display name used in tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            IntervalMethod::Wald => "Wald".into(),
            IntervalMethod::Wilson => "Wilson".into(),
            IntervalMethod::Et(p) => format!("ET[{}]", p.name),
            IntervalMethod::Hpd(p) => format!("HPD[{}]", p.name),
            IntervalMethod::AHpd(_) => "aHPD".into(),
        }
    }

    /// Canonical lower-case wire name (`"wald"`, `"et[jeffreys]"`,
    /// `"ahpd"`, ...); [`IntervalMethod::from_str`](std::str::FromStr)
    /// parses it back for every named-prior method.
    #[must_use]
    pub fn canonical_name(&self) -> String {
        self.name().to_ascii_lowercase()
    }

    /// The candidate priors of the Bayesian methods (`None` for the
    /// frequentist ones).
    pub(crate) fn priors(&self) -> Option<&[BetaPrior]> {
        match self {
            IntervalMethod::Hpd(p) | IntervalMethod::Et(p) => Some(std::slice::from_ref(p)),
            IntervalMethod::AHpd(ps) => Some(ps),
            IntervalMethod::Wald | IntervalMethod::Wilson => None,
        }
    }

    /// Fresh solver state for a run of [`Self::interval_stateful`] calls.
    #[must_use]
    pub fn new_state(&self) -> MethodState {
        let priors = self.priors().unwrap_or(&[]);
        MethodState {
            posteriors: priors
                .iter()
                .map(|p| Beta::new(p.a, p.b).expect("priors have positive parameters"))
                .collect(),
            tracked: (0, 0),
            kernel: None,
            frontier: None,
        }
    }

    /// Advances the per-prior posterior cache by one SRS annotation.
    ///
    /// O(1) per prior — the beta-function recurrence inside
    /// [`Beta::observe`] replaces the three `ln_gamma` evaluations a
    /// fresh construction would pay. Both loop variants (check-every-unit
    /// and certified lookahead) apply the identical per-observation
    /// update sequence, so their posteriors agree bit for bit.
    pub fn record_observation(&self, cache: &mut MethodState, success: bool) {
        if cache.posteriors.is_empty() {
            return;
        }
        for post in &mut cache.posteriors {
            *post = post.observe(success);
        }
        cache.tracked.1 += 1;
        if success {
            cache.tracked.0 += 1;
        }
    }

    /// Builds the `1-α` interval from the current sample.
    ///
    /// Degenerate cluster variance (a single stage-1 draw) yields the
    /// maximally uninformative sentinel interval `[μ̂-0.5, μ̂+0.5]`
    /// (MoE 0.5), so the stopping rule simply keeps sampling.
    pub fn interval(&self, state: &SampleState, alpha: f64) -> Result<Interval, IntervalError> {
        self.interval_stateful(state, alpha, &mut self.new_state())
    }

    /// [`Self::interval`] with the posterior state and kernel cache
    /// carried across calls.
    pub fn interval_stateful(
        &self,
        state: &SampleState,
        alpha: f64,
        cache: &mut MethodState,
    ) -> Result<Interval, IntervalError> {
        match self {
            IntervalMethod::Wald => {
                let est = state.estimate();
                if !est.variance.is_finite() {
                    let mu = est.mu.clamp(0.0, 1.0);
                    return Ok(Interval::new(mu - 0.5, mu + 0.5));
                }
                Ok(wald_from_variance(
                    est.mu.clamp(0.0, 1.0),
                    est.variance,
                    alpha,
                )?)
            }
            IntervalMethod::Wilson => match state.kind() {
                DesignKind::Srs => cache.kernel().wilson(state.tau(), state.n(), alpha),
                DesignKind::Cluster => {
                    let eff = state.effective();
                    if state.draws() < 2 {
                        return Ok(Interval::new(eff.mu - 0.5, eff.mu + 0.5));
                    }
                    Ok(wilson(eff.mu, eff.n_eff, alpha)?)
                }
            },
            IntervalMethod::Et(prior) => match state.kind() {
                DesignKind::Srs => cache.kernel().et(prior, state.tau(), state.n(), alpha),
                DesignKind::Cluster => {
                    let eff = state.effective();
                    et_interval(&prior.posterior_effective(eff.mu, eff.n_eff)?, alpha)
                }
            },
            IntervalMethod::Hpd(prior) => {
                // No single HPD interval exists for a U-shaped posterior
                // (near-zero evidence): report the maximally
                // uninformative sentinel so the loop keeps sampling
                // instead of aborting.
                ushaped_as_sentinel(match state.kind() {
                    DesignKind::Srs => cache.kernel().hpd(prior, state.tau(), state.n(), alpha),
                    DesignKind::Cluster => {
                        let eff = state.effective();
                        hpd_interval_exact(&prior.posterior_effective(eff.mu, eff.n_eff)?, alpha)
                    }
                })
            }
            IntervalMethod::AHpd(priors) => {
                // Match ahpd_select's loud failure on an empty sample — a
                // prior-only "posterior" interval would look plausible
                // and hide the caller's bug.
                assert!(state.n() > 0, "aHPD needs at least one annotation");
                let posteriors = posteriors_for_state(state, priors)?;
                let kernel = cache.kernel();
                pruned_ahpd(&posteriors, alpha, |i| match state.kind() {
                    DesignKind::Srs => kernel.hpd(&priors[i], state.tau(), state.n(), alpha),
                    DesignKind::Cluster => hpd_interval_exact(&posteriors[i], alpha),
                })
            }
        }
    }

    /// Exact one-step gate: can the *current* sample's `1-α` interval
    /// possibly satisfy `MoE ≤ ε`?
    ///
    /// For the HPD-family methods this evaluates [`hpd_width_achievable`]
    /// on the actual posteriors — the exact indicator `HPD width ≤ 2ε` —
    /// so full interval construction runs only at steps that actually
    /// stop (plus measure-zero boundary ties and shapes with no
    /// certificate). Methods without a certificate (Wald, Wilson)
    /// return `true` and always construct; ET gates on the HPD predicate
    /// (ET is at least as wide, so a negative gate is still sound).
    #[must_use]
    pub fn stop_possible_now(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        cache: &MethodState,
    ) -> bool {
        let Some(priors) = self.priors() else {
            return true;
        };
        let width = 2.0 * epsilon;
        match state.kind() {
            DesignKind::Srs => {
                let kernel = cache.kernel();
                priors
                    .iter()
                    .any(|prior| kernel.achievable(prior, state.tau(), state.n(), alpha, width))
            }
            DesignKind::Cluster => {
                let eff = state.effective();
                priors.iter().any(|prior| {
                    prior
                        .posterior_effective(eff.mu, eff.n_eff)
                        .map_or(true, |post| hpd_width_achievable(&post, alpha, width))
                })
            }
        }
    }

    /// Certified SRS lookahead: the number of further annotations that
    /// provably cannot satisfy `MoE ≤ ε`, from the current `(τ, n)`.
    ///
    /// For each horizon `k`, every achievable posterior has
    /// `τ' ∈ [τ, τ+k]` at `n + k` observations. HPD width at fixed
    /// evidence is smallest in the extreme outcome regions (the Fig. 3
    /// width curves peak centrally), so stopping achievability is
    /// evaluated — via the *exact* best-window predicate
    /// [`hpd_width_achievable`] — at the range endpoints plus their
    /// one-step-inside neighbors (covering the transition into the
    /// monotone limiting shapes of Eq. 10/11). That union over outcomes
    /// and priors is the certificate; everything before the first
    /// horizon where it holds is skipped.
    ///
    /// The search runs on the *decisive path* first: the extreme outcome
    /// nearer the boundary (`τ+k` when `2τ ≥ n`, else `τ`), where the
    /// posterior narrows fastest, and [`decisive_first_skip`] certifies
    /// its answer against the rest of the union.
    ///
    /// The start comes from `cache`'s `Frontier`: each call records
    /// where its decisive path first became stoppable, and the next call
    /// rescales that to its own state (horizon 1 when there is none). A
    /// campaign's answer moves by only a few units between rounds, so the
    /// search is a handful of probes instead of a cold search from 1.
    ///
    /// Returns 0 (check the very next annotation) for methods without a
    /// certified bound (Wald, Wilson).
    #[must_use]
    pub fn certified_skip_srs(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        cache: &mut MethodState,
    ) -> u64 {
        let Some(priors) = self.priors() else {
            return 0;
        };
        debug_assert_eq!(state.kind(), DesignKind::Srs);
        let (tau, n) = (state.tau(), state.n());
        let toward_one = 2 * tau >= n;
        let (fixed, moving) = if toward_one {
            (n - tau, tau)
        } else {
            (tau, n - tau)
        };
        let decisive = |k| if toward_one { tau + k } else { tau };
        let start = cache
            .frontier
            .map_or(1, |f| f.start(toward_one, fixed, moving));
        let kernel = Kernel::new(cache.kernel.as_deref());
        let (candidate, skip) = decisive_first_skip(
            start,
            |k| {
                priors
                    .iter()
                    .any(|prior| kernel.achievable(prior, decisive(k), n + k, alpha, 2.0 * epsilon))
            },
            |k, refuted| {
                let refuted = refuted.then(|| decisive(k));
                srs_stoppable_at(priors, &kernel, tau, n, k, alpha, epsilon, refuted)
            },
        );
        cache.frontier = Some(Frontier {
            toward_one,
            fixed,
            stop: moving + candidate + 1,
        });
        skip
    }

    /// Certified cluster lookahead: the number of further stage-1 draws
    /// that provably cannot satisfy `MoE ≤ ε`.
    ///
    /// The effective sample size after `j` more draws is bounded by
    /// `n_eff' = μ̂'(1−μ̂')/V̂' ≤ (d+j)(d+j−1)/(4·SS)` because the sum of
    /// squared deviations `SS` of the per-draw estimates is monotone
    /// non-decreasing under Welford updates, together with the Kish
    /// clamp bound `n_eff' ≤ 10³·n'` (each draw annotates at most
    /// `max_draw_size` triples). The reachable estimate-mean range after
    /// `j` draws is `[μ̂·d/(d+j), (μ̂·d+j)/(d+j)]` for sample-mean
    /// designs; Hansen–Hurwitz per-draw estimates are unbounded, so SCS
    /// widens the range to `[0, 1]` and admits the degenerate
    /// `deff = 1 ⇒ n_eff' = n'` case. Zero draw spread certifies
    /// nothing (the Kish clamp can explode `n_eff` on the next draw), so
    /// the method returns 0 and the loop checks every draw.
    ///
    /// The certificate is a union over priors and the two range
    /// endpoints. Its decisive endpoint is the one nearer the boundary
    /// (`μ_hi` when `2μ̂ ≥ 1`, else `μ_lo`), searched first by
    /// [`decisive_first_skip`] from the horizon where the normal
    /// approximation on that endpoint, `ν·ε² ≥ z²·m(1−m)`, first holds.
    /// Any start gives the same skip; this one is usually the first
    /// stoppable horizon or the one after it.
    #[must_use]
    pub fn certified_skip_cluster(
        &self,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        max_draw_size: u64,
        hansen_hurwitz: bool,
    ) -> u64 {
        let Some(priors) = self.priors() else {
            return 0;
        };
        debug_assert_eq!(state.kind(), DesignKind::Cluster);
        let ss = state.draw_sum_sq_dev();
        if ss <= 0.0 {
            return 0;
        }
        let d = state.draws() as u64;
        let n = state.n();
        let mu = state.draw_mean().clamp(0.0, 1.0);
        // The certificate's effective-sample bound ν and the endpoint on
        // the `toward_one` side of the reachable mean range, `j` draws on.
        let bound = |j: u64, toward_one: bool| {
            let d_j = (d + j) as f64;
            let n_j = (n + j * max_draw_size.max(1)) as f64;
            let mut nu = (d_j * (d_j - 1.0) / (4.0 * ss)).min(1e3 * n_j);
            let (mu_lo, mu_hi) = if hansen_hurwitz {
                nu = nu.max(n_j);
                (0.0, 1.0)
            } else {
                (mu * d as f64 / d_j, (mu * d as f64 + j as f64) / d_j)
            };
            (nu.max(1.0), if toward_one { mu_hi } else { mu_lo })
        };
        let stoppable = |j, toward_one| {
            let (nu, m) = bound(j, toward_one);
            priors.iter().any(|prior| {
                let post = Beta::new(prior.a + m * nu, prior.b + (1.0 - m) * nu)
                    .expect("positive posterior parameters");
                hpd_width_achievable(&post, alpha, 2.0 * epsilon)
            })
        };
        let toward_one = 2.0 * mu >= 1.0;
        let z = upper_normal_quantile(alpha / 2.0);
        let start = 1 + find_certified_skip(1, |j| {
            let (nu, m) = bound(j, toward_one);
            nu * epsilon * epsilon >= z * z * m * (1.0 - m)
        });
        decisive_first_skip(
            start,
            |j| stoppable(j, toward_one),
            |j, refuted| (!refuted && stoppable(j, toward_one)) || stoppable(j, !toward_one),
        )
        .1
    }
}

/// Error parsing an interval-method name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodParseError(
    /// The offending name.
    pub String,
);

impl std::fmt::Display for MethodParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown interval method {:?} (expected wald, wilson, ahpd, \
             or et/hpd with an optional [kerman|jeffreys|uniform] prior)",
            self.0
        )
    }
}

impl std::error::Error for MethodParseError {}

impl std::str::FromStr for IntervalMethod {
    type Err = MethodParseError;

    /// Parses a method name, case-insensitively: `wald`, `wilson`,
    /// `ahpd` (the paper's default prior set), and `et` / `hpd` with an
    /// optional named prior in brackets (`et[kerman]`, `hpd[uniform]`;
    /// Jeffreys when omitted). Informative custom priors have no wire
    /// name — construct those variants directly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || MethodParseError(s.to_string());
        match lower.as_str() {
            "wald" => return Ok(IntervalMethod::Wald),
            "wilson" => return Ok(IntervalMethod::Wilson),
            "ahpd" => return Ok(IntervalMethod::ahpd_default()),
            _ => {}
        }
        let (base, prior) = match lower.split_once('[') {
            None => (lower.as_str(), BetaPrior::JEFFREYS),
            Some((base, rest)) => {
                let name = rest.strip_suffix(']').ok_or_else(err)?;
                let prior = match name {
                    "kerman" => BetaPrior::KERMAN,
                    "jeffreys" => BetaPrior::JEFFREYS,
                    "uniform" => BetaPrior::UNIFORM,
                    _ => return Err(err()),
                };
                (base, prior)
            }
        };
        match base {
            "et" => Ok(IntervalMethod::Et(prior)),
            "hpd" => Ok(IntervalMethod::Hpd(prior)),
            _ => Err(err()),
        }
    }
}

/// Whether `MoE ≤ ε` is achievable at horizon `k` under SRS: the exact
/// best-window predicate evaluated over priors and the extreme
/// achievable outcomes (plus their one-step-inside neighbors, covering
/// the monotone-shape transitions). Verdicts route through the kernel,
/// so a shared cache memoizes them across campaigns — the lookahead loop
/// no longer reconstructs a `Beta` per polled count. A `refuted`
/// outcome, already shown not stoppable under every prior at this
/// horizon, is not evaluated again.
#[allow(clippy::too_many_arguments)]
fn srs_stoppable_at(
    priors: &[BetaPrior],
    kernel: &Kernel<'_>,
    tau: u64,
    n: u64,
    k: u64,
    alpha: f64,
    epsilon: f64,
    refuted: Option<u64>,
) -> bool {
    let n_k = n + k;
    let mut candidates = [tau, tau + k, tau + k - 1, tau + 1];
    candidates.sort_unstable();
    let mut prev = u64::MAX;
    for &t in &candidates {
        if t == prev || t < tau || t > tau + k {
            continue;
        }
        prev = t;
        if refuted == Some(t) {
            continue;
        }
        for prior in priors {
            if kernel.achievable(prior, t, n_k, alpha, 2.0 * epsilon) {
                return true;
            }
        }
    }
    false
}

/// A U-shaped posterior (near-zero evidence under a sub-uniform prior)
/// has no single HPD interval; it gets the full-range sentinel (width 1,
/// MoE 0.5), which can neither stop the loop nor win an aHPD selection.
fn ushaped_as_sentinel(solved: Result<Interval, IntervalError>) -> Result<Interval, IntervalError> {
    match solved {
        Err(IntervalError::UShapedPosterior { .. }) => Ok(Interval::new(0.0, 1.0)),
        solved => solved,
    }
}

/// Algorithm 1's selection (lines 14–24) without solving every prior.
/// `solve(i)` builds prior `i`'s HPD interval on `posteriors[i]`. The
/// prior with the smallest certified width lower bound is solved first,
/// as it almost always wins; every other prior that cannot fit its mass
/// into a window just wider than the best solution is certified to lose
/// and never solved (U-shaped posteriors certify nothing and are solved).
/// Ties go to the lower prior index, so the result is
/// [`crate::ahpd_select`]'s first minimal interval, bit for bit.
fn pruned_ahpd(
    posteriors: &[Beta],
    alpha: f64,
    solve: impl Fn(usize) -> Result<Interval, IntervalError>,
) -> Result<Interval, IntervalError> {
    let (_, first) = posteriors
        .iter()
        .enumerate()
        .map(|(i, post)| {
            let bound = hpd_width_lower_bound(post, alpha);
            (bound.unwrap_or(f64::INFINITY), i)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("aHPD requires at least one prior");
    let mut best = (ushaped_as_sentinel(solve(first))?, first);
    for (i, post) in posteriors.iter().enumerate() {
        let wider = best.0.width() * (1.0 + PRUNE_MARGIN);
        if i == first || !hpd_width_achievable(post, alpha, wider) {
            continue;
        }
        let interval = ushaped_as_sentinel(solve(i))?;
        if (interval.width(), i) < (best.0.width(), best.1) {
            best = (interval, i);
        }
    }
    Ok(best.0)
}

/// `z` with upper-tail normal probability `p ∈ (0, 0.5]`, by the
/// rational approximation of Abramowitz & Stegun 26.2.23 (absolute error
/// below 4.5e-4). Only the cluster lookahead's start horizon uses it,
/// and any start gives the same skip.
fn upper_normal_quantile(p: f64) -> f64 {
    let t = (-2.0 * p.ln()).sqrt();
    t - (2.515_517 + t * (0.802_853 + t * 0.010_328))
        / (1.0 + t * (1.432_788 + t * (0.189_269 + t * 0.001_308)))
}

/// The lookahead's skip from a decisive-first search. The decisive
/// outcome's last non-stoppable horizon, found by [`find_certified_skip`]
/// from `start`, is the candidate: the union is stoppable one horizon
/// later. One probe of the rest of the union at the candidate,
/// `union(k, true)`, which leaves out the decisive outcome the search
/// has just refuted there, certifies it. Only when that probe finds
/// another outcome stoppable is the full union, `union(k, false)`,
/// bisected below the candidate. With stoppability monotone in the
/// horizon, which both searches assume, the skip is the union's own first
/// stoppable horizon less one, whatever the start.
///
/// Returns the decisive candidate and the skip.
fn decisive_first_skip(
    start: u64,
    decisive: impl Fn(u64) -> bool,
    union: impl Fn(u64, bool) -> bool,
) -> (u64, u64) {
    let candidate = find_certified_skip(start, decisive);
    if candidate == 0 || !union(candidate, true) {
        return (candidate, candidate);
    }
    let skip = if union(1, false) {
        0
    } else {
        bisect_skip(|k| union(k, false), 1, candidate)
    };
    (candidate, skip)
}

/// Searches for the number of units to skip: one less than the smallest
/// horizon at which stopping becomes achievable, capped at `MAX_SKIP`.
/// It exploits that achievability is monotone in the horizon (more
/// evidence can only narrow the best achievable interval): an
/// exponential search outward from `start` (clamped to `1..=MAX_SKIP`)
/// brackets the first stoppable horizon, and bisection finds it. Every
/// start gives the same answer; a start near it costs O(log distance)
/// predicate evaluations, most of which short-circuit on the
/// one-density-evaluation necessary condition. A non-zero result was
/// itself evaluated and found not stoppable.
fn find_certified_skip(start: u64, stoppable_at: impl Fn(u64) -> bool) -> u64 {
    let start = start.clamp(1, MAX_SKIP);
    let mut step = 1;
    if stoppable_at(start) {
        // Down: invariant stoppable(hi); horizon 0 is "now", never
        // evaluated.
        let mut hi = start;
        let mut lo = start - 1;
        while lo > 0 && stoppable_at(lo) {
            hi = lo;
            step *= 2;
            lo = hi.saturating_sub(step);
        }
        return bisect_skip(stoppable_at, lo, hi);
    }
    // Up: invariant !stoppable(lo).
    let mut lo = start;
    while lo < MAX_SKIP {
        let hi = (lo + step).min(MAX_SKIP);
        if stoppable_at(hi) {
            return bisect_skip(stoppable_at, lo, hi);
        }
        lo = hi;
        step *= 2;
    }
    MAX_SKIP
}

/// Binary search between a horizon `lo` that is not stoppable (or 0)
/// and a horizon `hi` that is: the last non-stoppable horizon before the
/// first stoppable one.
fn bisect_skip(stoppable_at: impl Fn(u64) -> bool, mut lo: u64, mut hi: u64) -> u64 {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if stoppable_at(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn srs_state(tau: u64, n: u64) -> SampleState {
        let mut s = SampleState::new_srs();
        for i in 0..n {
            s.record_triple(i < tau);
        }
        s
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(IntervalMethod::Wald.name(), "Wald");
        assert_eq!(IntervalMethod::Wilson.name(), "Wilson");
        assert_eq!(IntervalMethod::Et(BetaPrior::KERMAN).name(), "ET[Kerman]");
        assert_eq!(
            IntervalMethod::Hpd(BetaPrior::UNIFORM).name(),
            "HPD[Uniform]"
        );
        assert_eq!(IntervalMethod::ahpd_default().name(), "aHPD");
    }

    #[test]
    fn all_methods_produce_covering_intervals_on_srs() {
        let state = srs_state(27, 30);
        let methods = [
            IntervalMethod::Wald,
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::JEFFREYS),
            IntervalMethod::Hpd(BetaPrior::KERMAN),
            IntervalMethod::ahpd_default(),
        ];
        for m in methods {
            let i = m.interval(&state, 0.05).unwrap();
            assert!(i.contains(0.9), "{} misses the MLE: {i}", m.name());
            assert!(i.width() > 0.0 && i.width() < 1.0, "{}: {i}", m.name());
        }
    }

    #[test]
    fn wald_zero_width_on_unanimous_sample() {
        // Example 1 pathology reproduced through the dispatch layer.
        let state = srs_state(30, 30);
        let i = IntervalMethod::Wald.interval(&state, 0.05).unwrap();
        assert_eq!(i.width(), 0.0);
        // The Bayesian methods keep a sane interval instead.
        let h = IntervalMethod::Hpd(BetaPrior::KERMAN)
            .interval(&state, 0.05)
            .unwrap();
        // Reference width 0.04792 (independent numeric integration of the
        // Beta(30 + 1/3, 1/3) tail).
        assert!((h.width() - 0.04792).abs() < 5e-4, "width = {}", h.width());
        assert_eq!(h.upper(), 1.0);
    }

    #[test]
    fn single_cluster_draw_yields_sentinel() {
        let mut s = SampleState::new_cluster();
        s.record_cluster_draw(1.0, 3, 3);
        let w = IntervalMethod::Wald.interval(&s, 0.05).unwrap();
        assert!((w.moe() - 0.5).abs() < 1e-12);
        let wi = IntervalMethod::Wilson.interval(&s, 0.05).unwrap();
        assert!((wi.moe() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hpd_never_wider_than_et_through_dispatch() {
        for tau in [0u64, 1, 15, 29, 30] {
            let state = srs_state(tau, 30);
            let hpd = IntervalMethod::Hpd(BetaPrior::KERMAN)
                .interval(&state, 0.05)
                .unwrap();
            let et = IntervalMethod::Et(BetaPrior::KERMAN)
                .interval(&state, 0.05)
                .unwrap();
            assert!(hpd.width() <= et.width() + 1e-9, "τ = {tau}");
        }
    }

    #[test]
    fn ahpd_at_least_as_good_as_every_fixed_prior() {
        for tau in [0u64, 3, 15, 27, 30] {
            let state = srs_state(tau, 30);
            let a = IntervalMethod::ahpd_default()
                .interval(&state, 0.05)
                .unwrap();
            for p in BetaPrior::UNINFORMATIVE {
                let h = IntervalMethod::Hpd(p).interval(&state, 0.05).unwrap();
                assert!(
                    a.width() <= h.width() + 1e-12,
                    "τ={tau}: aHPD {a} vs HPD[{}] {h}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn incremental_posteriors_match_fresh_construction() {
        // Drive the cache one observation at a time; intervals must
        // agree with a cold state, and the incrementally-observed
        // posteriors (kept for snapshot-byte stability) must track the
        // fresh count construction.
        let method = IntervalMethod::ahpd_default();
        let mut cache = method.new_state();
        let mut state = SampleState::new_srs();
        for i in 0..120u64 {
            let label = i % 11 != 5;
            state.record_triple(label);
            method.record_observation(&mut cache, label);
            assert_eq!(cache.tracked, (state.tau(), state.n()));
            if i >= 29 && i % 13 == 0 {
                let warm = method.interval_stateful(&state, 0.05, &mut cache).unwrap();
                let cold = method.interval(&state, 0.05).unwrap();
                assert!(
                    (warm.lower() - cold.lower()).abs() < 1e-9
                        && (warm.upper() - cold.upper()).abs() < 1e-9,
                    "step {i}: warm {warm} vs cold {cold}"
                );
                for (post, prior) in cache.posteriors.iter().zip(BetaPrior::UNINFORMATIVE) {
                    let fresh = prior.posterior(state.tau(), state.n());
                    assert!(
                        (post.alpha() - fresh.alpha()).abs() < 1e-9
                            && (post.beta() - fresh.beta()).abs() < 1e-9,
                        "step {i}: incremental posterior drifted from counts"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_and_uncached_states_agree_bit_for_bit() {
        // The tentpole invariant at the dispatch layer: attaching a
        // shared kernel cache changes cost, not a single output bit.
        let shared = Arc::new(KernelCache::new());
        let methods = [
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::KERMAN),
            IntervalMethod::Hpd(BetaPrior::JEFFREYS),
            IntervalMethod::ahpd_default(),
        ];
        for method in methods {
            let mut plain = method.new_state();
            let mut cached = method.new_state();
            cached.attach_kernel(Arc::clone(&shared));
            for (tau, n) in [(1u64, 1u64), (5, 30), (27, 30), (30, 30), (88, 100)] {
                let state = srs_state(tau, n);
                let a = method.interval_stateful(&state, 0.05, &mut plain).unwrap();
                let b = method.interval_stateful(&state, 0.05, &mut cached).unwrap();
                assert_eq!(
                    (a.lower().to_bits(), a.upper().to_bits()),
                    (b.lower().to_bits(), b.upper().to_bits()),
                    "{} at (τ={tau}, n={n}): {a} vs {b}",
                    method.name()
                );
                assert_eq!(
                    method.stop_possible_now(&state, 0.05, 0.05, &plain),
                    method.stop_possible_now(&state, 0.05, 0.05, &cached),
                );
                assert_eq!(
                    method.certified_skip_srs(&state, 0.05, 0.05, &mut plain),
                    method.certified_skip_srs(&state, 0.05, 0.05, &mut cached),
                );
            }
        }
        let stats = shared.stats();
        assert!(stats.lookups() > 0, "cached states never hit the kernel");
    }

    #[test]
    fn certified_skip_srs_is_sound_against_brute_force() {
        // Every skipped step must have an actual constructed MoE > ε —
        // the defining property that keeps the stopping point identical.
        for (tau, n) in [(27u64, 30u64), (30, 30), (15, 30), (0, 30), (90, 100)] {
            for method in [
                IntervalMethod::ahpd_default(),
                IntervalMethod::Hpd(BetaPrior::KERMAN),
                IntervalMethod::Et(BetaPrior::UNIFORM),
            ] {
                let state = srs_state(tau, n);
                let skip = method.certified_skip_srs(&state, 0.05, 0.05, &mut method.new_state());
                // Brute-force: for each skipped horizon k and each
                // achievable τ', the constructed interval is wider than ε.
                for k in 1..=skip.min(60) {
                    for t in [0u64, k / 2, k] {
                        let future = srs_state(tau + t, n + k);
                        let i = method.interval(&future, 0.05).unwrap();
                        assert!(
                            i.moe() > 0.05,
                            "{} at (τ={tau}, n={n}): skipped k={k}, τ'=+{t} \
                             but moe = {} ≤ ε",
                            method.name(),
                            i.moe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn certified_skip_srs_reaches_stoppable_horizons() {
        // The lookahead must not be trivially zero: a central sample
        // (μ̂ = 0.5 needs ~380 annotations to stop at ε = 0.05) should
        // certify a long skip even under the loose f(mode) bound.
        let state = srs_state(15, 30);
        let ahpd = IntervalMethod::ahpd_default();
        let skip = ahpd.certified_skip_srs(&state, 0.05, 0.05, &mut ahpd.new_state());
        assert!(skip >= 30, "skip = {skip} is uselessly small");
        // And frequentist methods certify nothing.
        let wald = IntervalMethod::Wald;
        assert_eq!(
            wald.certified_skip_srs(&state, 0.05, 0.05, &mut wald.new_state()),
            0
        );
        let wilson = IntervalMethod::Wilson;
        assert_eq!(
            wilson.certified_skip_srs(&state, 0.05, 0.05, &mut wilson.new_state()),
            0
        );
    }

    /// Reference for [`IntervalMethod::certified_skip_srs`]: exponential
    /// and binary search over the union predicate from horizon 1, without
    /// the decisive-path candidate or a frontier hint.
    fn skip_by_union_search(
        method: &IntervalMethod,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
    ) -> u64 {
        let Some(priors) = method.priors() else {
            return 0;
        };
        let kernel = Kernel::new(None);
        find_certified_skip(1, |k| {
            srs_stoppable_at(
                priors,
                &kernel,
                state.tau(),
                state.n(),
                k,
                alpha,
                epsilon,
                None,
            )
        })
    }

    fn skip_methods() -> [IntervalMethod; 3] {
        let mut with_informative = BetaPrior::UNINFORMATIVE.to_vec();
        with_informative.push(BetaPrior::informative(8.0, 2.0).unwrap());
        [
            IntervalMethod::ahpd_default(),
            IntervalMethod::AHpd(with_informative),
            IntervalMethod::Hpd(BetaPrior::informative(8.0, 2.0).unwrap()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn decisive_path_skip_equals_the_union_search(
            (n, tau) in (1u64..=5000).prop_flat_map(|n| (Just(n), 0..=n)),
            // The frontier hint comes from a prior call at another state:
            // far-off hints, flipped directions, and runs without a
            // single failure (or success) all occur.
            (n0, tau0) in (1u64..=5000).prop_flat_map(|n0| {
                (Just(n0), prop_oneof![Just(0), Just(n0), 0..=n0])
            }),
            alpha in prop_oneof![Just(0.01), Just(0.05), Just(0.1)],
            epsilon in 0.01f64..0.1,
        ) {
            let state = srs_state(tau, n);
            for method in skip_methods() {
                let want = skip_by_union_search(&method, &state, alpha, epsilon);
                let cold = method.certified_skip_srs(&state, alpha, epsilon, &mut method.new_state());
                prop_assert_eq!(cold, want, "{:?} at (τ={}, n={}), α={}, ε={}",
                    method, tau, n, alpha, epsilon);
                let mut seeded = method.new_state();
                let _ = method.certified_skip_srs(&srs_state(tau0, n0), alpha, epsilon, &mut seeded);
                let hinted = method.certified_skip_srs(&state, alpha, epsilon, &mut seeded);
                prop_assert_eq!(hinted, want, "{:?} at (τ={}, n={}) seeded at (τ={}, n={}), \
                    α={}, ε={}", method, tau, n, tau0, n0, alpha, epsilon);
                // A predecessor state of the same campaign.
                let back = (n - tau).min(tau).min(7);
                let mut chained = method.new_state();
                let _ = method.certified_skip_srs(
                    &srs_state(tau - back, n - 2 * back), alpha, epsilon, &mut chained);
                prop_assert_eq!(method.certified_skip_srs(&state, alpha, epsilon, &mut chained),
                    want, "{:?} at (τ={}, n={}) after (τ={}, n={})",
                    method, tau, n, tau - back, n - 2 * back);
            }
        }
    }

    #[test]
    fn decisive_path_skip_equals_the_union_search_at_the_cap() {
        // At ε = 1e-5 even an unbroken run of correct (or incorrect)
        // labels needs more than MAX_SKIP annotations: both searches stop
        // at the cap.
        for (tau, n) in [(5u64, 10u64), (500, 1000), (1, 3), (0, 7)] {
            let state = srs_state(tau, n);
            for method in skip_methods() {
                let got = method.certified_skip_srs(&state, 0.01, 1e-5, &mut method.new_state());
                assert_eq!(got, MAX_SKIP, "{method:?} at (τ={tau}, n={n})");
                assert_eq!(got, skip_by_union_search(&method, &state, 0.01, 1e-5));
            }
        }
    }

    /// A cluster state of `d` draws of `size` triples each: the first
    /// `c` draws estimate `q`, the rest `p`.
    fn cluster_state(d: u64, c: u64, p: f64, q: f64, size: u64) -> SampleState {
        let mut s = SampleState::new_cluster();
        for i in 0..d {
            let est = if i < c { q } else { p };
            s.record_cluster_draw(est, (est.min(1.0) * size as f64).round() as u64, size);
        }
        s
    }

    /// Reference for [`IntervalMethod::certified_skip_cluster`]:
    /// exponential and binary search from horizon 1 over the whole
    /// prior × `{μ_lo, μ_hi}` union, without the decisive-first search or
    /// the predicted start.
    fn cluster_skip_by_union_search(
        method: &IntervalMethod,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
        max_draw_size: u64,
        hansen_hurwitz: bool,
    ) -> u64 {
        let Some(priors) = method.priors() else {
            return 0;
        };
        let ss = state.draw_sum_sq_dev();
        if ss <= 0.0 {
            return 0;
        }
        let d = state.draws() as u64;
        let n = state.n();
        let mu = state.draw_mean().clamp(0.0, 1.0);
        find_certified_skip(1, |j| {
            let d_j = (d + j) as f64;
            let n_j = (n + j * max_draw_size.max(1)) as f64;
            let mut nu = (d_j * (d_j - 1.0) / (4.0 * ss)).min(1e3 * n_j);
            let (mu_lo, mu_hi) = if hansen_hurwitz {
                nu = nu.max(n_j);
                (0.0, 1.0)
            } else {
                (mu * d as f64 / d_j, (mu * d as f64 + j as f64) / d_j)
            };
            let nu = nu.max(1.0);
            priors.iter().any(|prior| {
                [mu_lo, mu_hi].into_iter().any(|mu_p| {
                    let post = Beta::new(prior.a + mu_p * nu, prior.b + (1.0 - mu_p) * nu)
                        .expect("positive posterior parameters");
                    hpd_width_achievable(&post, alpha, 2.0 * epsilon)
                })
            })
        })
    }

    /// Per-draw estimates: the boundaries, values within a hair of them,
    /// and the interior.
    fn draw_estimate() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            1e-9f64..1e-3,
            (1e-9f64..1e-3).prop_map(|x| 1.0 - x),
            0.0f64..=1.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn cluster_skip_equals_the_union_search(
            (d, c) in (2u64..=400).prop_flat_map(|d| {
                (Just(d), prop_oneof![Just(0), Just(1), 0..=d])
            }),
            p in draw_estimate(),
            q in prop_oneof![draw_estimate(), Just(f64::NAN)],
            (max_draw_size, size_frac) in (prop_oneof![Just(1u64), Just(3), Just(10)], 0.0f64..=1.0),
            (hansen_hurwitz, hh_scale) in (prop::bool::ANY, 1.0f64..3.0),
            alpha in prop_oneof![Just(0.01), Just(0.05), Just(0.1)],
            epsilon in 0.01f64..0.1,
        ) {
            // A NaN `q` stands for "every draw agrees" (SS = 0).
            let q = if q.is_nan() { p } else { q };
            // Hansen–Hurwitz per-draw estimates are not bounded by 1.
            let scale = if hansen_hurwitz { hh_scale } else { 1.0 };
            let size = 1 + (size_frac * (max_draw_size - 1) as f64) as u64;
            let state = cluster_state(d, c, p * scale, q * scale, size);
            for method in skip_methods() {
                let want = cluster_skip_by_union_search(
                    &method, &state, alpha, epsilon, max_draw_size, hansen_hurwitz);
                let got = method.certified_skip_cluster(
                    &state, alpha, epsilon, max_draw_size, hansen_hurwitz);
                prop_assert_eq!(got, want, "{:?} at d={}, c={}, p={}, q={}, size={}/{}, \
                    HH={}, α={}, ε={}", method, d, c, p * scale, q * scale, size,
                    max_draw_size, hansen_hurwitz, alpha, epsilon);
            }
        }
    }

    #[test]
    fn cluster_skip_equals_the_union_search_at_the_cap() {
        // At ε = 1e-9 no reachable effective sample is large enough, not
        // even Hansen–Hurwitz's widest range: both searches stop at the
        // cap, on either side of μ̂ = 1/2.
        for (d, c, p, q) in [(10u64, 5u64, 0.0, 1.0), (40, 3, 0.9, 0.2), (7, 6, 0.6, 0.1)] {
            let state = cluster_state(d, c, p, q, 3);
            for method in skip_methods() {
                for hansen_hurwitz in [false, true] {
                    let got = method.certified_skip_cluster(&state, 0.01, 1e-9, 3, hansen_hurwitz);
                    assert_eq!(
                        got, MAX_SKIP,
                        "{method:?} at d={d}, c={c}, HH={hansen_hurwitz}"
                    );
                    assert_eq!(
                        got,
                        cluster_skip_by_union_search(
                            &method,
                            &state,
                            0.01,
                            1e-9,
                            3,
                            hansen_hurwitz
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn upper_normal_quantile_is_within_its_stated_error() {
        for (p, z) in [
            (0.005, 2.575_829),
            (0.025, 1.959_964),
            (0.05, 1.644_854),
            (0.5, 0.0),
        ] {
            assert!((upper_normal_quantile(p) - z).abs() < 4.5e-4, "p = {p}");
        }
    }

    #[test]
    fn certified_skip_cluster_requires_draw_spread() {
        let mut s = SampleState::new_cluster();
        for _ in 0..10 {
            s.record_cluster_draw(0.9, 9, 10);
        }
        // Zero spread: the Kish clamp could explode n_eff next draw —
        // nothing is certifiable.
        assert_eq!(
            IntervalMethod::ahpd_default().certified_skip_cluster(&s, 0.05, 0.05, 3, false),
            0
        );
    }

    #[test]
    fn certified_skip_cluster_is_sound_against_simulation() {
        // Whatever mixture of future draws arrives, no skipped draw may
        // reach MoE ≤ ε. Simulate adversarially favorable futures: all
        // draws agreeing on the majority side at several sizes.
        let method = IntervalMethod::ahpd_default();
        let mut s = SampleState::new_cluster();
        for i in 0..12 {
            let m = if i % 3 == 0 { 1.0 } else { 0.5 };
            s.record_cluster_draw(m, (m * 2.0) as u64, 2);
        }
        let skip = method.certified_skip_cluster(&s, 0.05, 0.05, 3, false);
        for j in 1..=skip.min(40) {
            for future_mean in [0.0, 1.0] {
                let mut fut = s.clone();
                for _ in 0..j {
                    fut.record_cluster_draw(future_mean, (future_mean * 3.0) as u64, 3);
                }
                let i = method.interval(&fut, 0.05).unwrap();
                assert!(
                    i.moe() > 0.05,
                    "skipped draw {j} (future mean {future_mean}) has moe {}",
                    i.moe()
                );
            }
        }
    }

    #[test]
    fn find_certified_skip_search_is_consistent() {
        // Synthetic monotone predicates with first stoppable horizon T
        // ⇒ T − 1 units are skippable: immediately stoppable, mid-range,
        // at the cap, and never stoppable within the cap (capped skip).
        // Every start gives the same answer, and a non-zero answer was
        // itself evaluated (the union probe relies on it).
        for threshold in [1, MAX_SKIP / 2 + 7, MAX_SKIP, u64::MAX] {
            let want = threshold.saturating_sub(1).min(MAX_SKIP);
            for start in 1..=MAX_SKIP + 1 {
                let seen = std::cell::Cell::new(false);
                let skip = find_certified_skip(start, |k| {
                    assert!((1..=MAX_SKIP).contains(&k), "probed horizon {k}");
                    seen.set(seen.get() || k == want);
                    k >= threshold
                });
                assert_eq!(skip, want, "threshold {threshold}, start {start}");
                assert!(
                    want == 0 || seen.get(),
                    "threshold {threshold}, start {start}"
                );
            }
        }
    }

    #[test]
    fn frontier_starts_follow_the_square_root_law() {
        let f = Frontier {
            toward_one: true,
            fixed: 4,
            stop: 100,
        };
        // Four times the failures need twice the successes.
        assert_eq!(f.start(true, 16, 150), 50);
        assert_eq!(f.start(true, 4, 97), 3);
        // Already past the hint: the search clamps it to horizon 1.
        assert_eq!(f.start(true, 4, 120), 0);
        // A flipped direction starts cold.
        assert_eq!(f.start(false, 4, 97), 1);
        // From a run without failures, a first failure starts cold; more
        // successes alone keep the hint.
        let clean = Frontier {
            toward_one: true,
            fixed: 0,
            stop: 60,
        };
        assert_eq!(clean.start(true, 1, 50), 1);
        assert_eq!(clean.start(true, 0, 50), 10);
    }

    /// The aHPD selection the pruned branch must reproduce: solve every
    /// prior and keep the first minimal width.
    fn ahpd_by_every_prior(priors: &[BetaPrior], state: &SampleState, alpha: f64) -> Interval {
        let mut best: Option<Interval> = None;
        for &prior in priors {
            let i = IntervalMethod::Hpd(prior).interval(state, alpha).unwrap();
            if best.is_none_or(|b| i.width() < b.width()) {
                best = Some(i);
            }
        }
        best.unwrap()
    }

    #[test]
    fn pruned_ahpd_selection_equals_solving_every_prior() {
        // Every τ (0 and n included) at sample sizes up to 2000, for the
        // default priors and with an informative prior added.
        let sizes = [
            1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2000,
        ];
        for method in &skip_methods()[..2] {
            let priors = method.priors().unwrap();
            let kernel = Arc::new(KernelCache::new());
            let mut cache = method.new_state();
            cache.attach_kernel(Arc::clone(&kernel));
            let (mut selections, mut single_solves) = (0u64, 0u64);
            for (n, alpha) in sizes.iter().map(|&n| (n, 0.05)).chain([
                (30, 0.01),
                (30, 0.1),
                (400, 0.01),
                (400, 0.1),
            ]) {
                for tau in 0..=n {
                    let state = srs_state(tau, n);
                    let before = kernel.stats().lookups();
                    let got = method.interval_stateful(&state, alpha, &mut cache).unwrap();
                    let solves = kernel.stats().lookups() - before;
                    let want = ahpd_by_every_prior(priors, &state, alpha);
                    assert_eq!(
                        (got.lower().to_bits(), got.upper().to_bits()),
                        (want.lower().to_bits(), want.upper().to_bits()),
                        "{method:?} at (τ={tau}, n={n}), α={alpha}: {got} vs {want}"
                    );
                    selections += 1;
                    single_solves += u64::from(solves == 1);
                }
            }
            assert!(
                single_solves as f64 >= 0.99 * selections as f64,
                "{method:?}: {single_solves} of {selections} selections solved one prior"
            );
        }
    }

    #[test]
    fn pruned_cluster_ahpd_selection_equals_solving_every_prior() {
        // Effective posteriors over n_eff ∈ [1, 1e5] (log-spaced) and
        // μ̂ ∈ [0, 1] with the boundaries and their near neighbours, for
        // the default priors and with an informative prior added.
        let mus: Vec<f64> = [0.0, 1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9, 1.0]
            .into_iter()
            .chain((1..40).map(|i| f64::from(i) / 40.0))
            .collect();
        let (mut selections, mut single_solves, mut solver_failures) = (0u64, 0u64, 0u64);
        for method in &skip_methods()[..2] {
            let priors = method.priors().unwrap();
            for alpha in [0.01, 0.05, 0.1] {
                for &mu in &mus {
                    for n_eff in (0..=50).map(|i| 10f64.powf(f64::from(i) / 10.0)) {
                        let posteriors: Vec<Beta> = priors
                            .iter()
                            .map(|p| p.posterior_effective(mu, n_eff).unwrap())
                            .collect();
                        // The exact solver fails where a shape parameter
                        // exceeds 1 by a few ulps and the mode rounds onto
                        // the boundary (e.g. Jeffreys at μ̂ = 0.95, n_eff =
                        // 10): the reference then has no interval to match.
                        let Ok(want) = crate::ahpd::ahpd_select_posteriors(&posteriors, alpha)
                        else {
                            solver_failures += 1;
                            continue;
                        };
                        let solves = std::cell::Cell::new(0u32);
                        let got = pruned_ahpd(&posteriors, alpha, |i| {
                            solves.set(solves.get() + 1);
                            hpd_interval_exact(&posteriors[i], alpha)
                        })
                        .unwrap();
                        assert_eq!(
                            (got.lower().to_bits(), got.upper().to_bits()),
                            (
                                want.interval.lower().to_bits(),
                                want.interval.upper().to_bits()
                            ),
                            "{method:?} at μ̂={mu}, n_eff={n_eff}, α={alpha}: {got} vs {}",
                            want.interval
                        );
                        selections += 1;
                        single_solves += u64::from(solves.get() == 1);
                    }
                }
            }
        }
        eprintln!(
            "{single_solves} of {selections} cluster selections solved one prior \
             ({solver_failures} grid points without a reference)"
        );
        assert!(
            solver_failures <= selections / 1000,
            "{solver_failures} solver failures"
        );
        assert!(
            single_solves as f64 >= 0.8 * selections as f64,
            "{single_solves} of {selections} selections solved one prior"
        );

        // Whole cluster states through the dispatch against ahpd_select,
        // including ahpd.rs's low-evidence state whose Kerman posterior
        // is U-shaped (the sentinel case).
        let mut ushaped = SampleState::new_cluster();
        for i in 0..40 {
            let est = if i % 2 == 0 { 3.0 } else { 0.0 };
            ushaped.record_cluster_draw(est, (est.min(1.0) * 14.0) as u64, 14);
        }
        let mut states = vec![ushaped];
        for d in [2u64, 3, 5, 20, 100, 400] {
            for c in [0, 1, d / 2, d - 1] {
                for (p, q) in [(0.0, 1.0), (0.9, 1.0), (0.5, 0.6), (0.99, 0.0), (1.0, 0.95)] {
                    states.push(cluster_state(d, c, p, q, 3));
                }
            }
        }
        for state in &states {
            for method in skip_methods() {
                let priors = method.priors().unwrap();
                for alpha in [0.01, 0.05, 0.1] {
                    let got = method.interval(state, alpha).unwrap();
                    let want = crate::ahpd_select(state, alpha, priors).unwrap().interval;
                    assert_eq!(
                        (got.lower().to_bits(), got.upper().to_bits()),
                        (want.lower().to_bits(), want.upper().to_bits()),
                        "{method:?} at {:?}, α={alpha}: {got} vs {want}",
                        state.effective()
                    );
                }
            }
        }
    }
}
