//! Interval-method dispatch: one enum covering every `1-α` interval the
//! experiments compare, applied uniformly to SRS and cluster samples.
//!
//! The hot-path mechanisms that live here alongside the dispatch:
//!
//! * **The posterior kernel** ([`Kernel`]): under SRS every interval is a
//!   pure function of the integer counts `(τ, n)` plus the `(prior, α)`
//!   configuration, so all SRS interval solves route through
//!   [`kgae_intervals::kernel`]'s canonical count-keyed functions. When the
//!   caller's [`Kernel`] handle carries a shared
//!   [`KernelCache`](kgae_intervals::KernelCache) the solves
//!   are memoized process-wide; without one the same functions run
//!   directly, so cached and uncached runs are bit-identical by
//!   construction. (Cluster designs have fractional effective counts and
//!   call the exact HPD solver on their effective posteriors directly.)
//! * **The stopping boundary** ([`StoppingBoundary`]): the stopping
//!   certificate, "can some `1-α` window be at most `2ε` wide", is a
//!   pure function of the evidence too. At each `n` its stoppable `τ`
//!   are two-tailed, at each `n_eff` its stoppable `μ̂` are, and for a
//!   symmetric prior it is monotone in `n_eff` at each `μ̂`. So every
//!   check, SRS or cluster, asks the process-wide [`Boundary`] table of
//!   each certificate prior, which answers from what earlier verdicts
//!   settled and calls the predicate only when nothing did; a session
//!   resolves its tables once, whatever its design.
//! * **Certified SRS lookahead** ([`StoppingBoundary::certified_skip`]):
//!   from Theorem 1's width bound, made exact by the best-window
//!   predicate, compute how many future annotations cannot satisfy
//!   `MoE ≤ ε`, so the evaluation loop skips interval construction (and
//!   even the one-step bound check) entirely until the first annotation
//!   where stopping is achievable. The search runs on the decisive
//!   extreme outcome first, starting at the horizon where the normal
//!   approximation at that outcome's posterior mode, `ν·ε² ≥ z²·m(1−m)`,
//!   first holds, certifies the candidate with one probe of the other
//!   extreme outcome, and asks the boundary tables throughout. The skip
//!   is a pure function of the sample and `(α, ε, priors)`: no search
//!   state is kept between calls.
//! * **The cluster gate**
//!   ([`StoppingBoundary::stop_possible_effective`]): cluster designs
//!   have no lookahead. Every ready draw asks the shared tables whether
//!   the current effective evidence `(μ̂, n_eff)` can stop, and only a
//!   draw that passes constructs the interval, as the paper's loop
//!   checks every unit. A symmetric prior's table answers from its row
//!   of the grid point `k ≥ n_eff` (`⌈n_eff⌉`, or within 1/64 of `n_eff`
//!   past 64; an asymmetric prior's asks the predicate directly): a
//!   refusal settled there answers the draw, and only a `(μ̂, k)` that
//!   stops is followed by the predicate at `n_eff` itself, so once a
//!   configuration's rows are settled most draws evaluate no predicate
//!   at all.
//!
//!   The SRS certificates evaluate only the extreme outcomes, and both
//!   designs evaluate only the extreme pseudo-counts of a set of
//!   symmetric priors. That every skipped or gated step is one where the
//!   reference check-every-unit loop could not have stopped either rests
//!   on five properties that are verified, not proven: stoppability is
//!   monotone in the horizon and two-tailed in the outcome (the SRS skip
//!   and the count rows), two-tailed in `μ̂` at fixed `n_eff` and, for
//!   a symmetric prior, monotone in `n_eff` at fixed `μ̂` (the effective
//!   rows, which asymmetric priors do without), and
//!   two-tailed in a symmetric prior's pseudo-count (both designs).
//!   `tests/certificate_lemmas.rs` pins them, on the SRS counts and on a
//!   fractional `(μ̂, n_eff)` grid, and both kinds of rows against the
//!   predicate they replace, and `tests/lookahead_equivalence.rs` pins
//!   the resulting stops.
//! * **Pruned aHPD selection**: at the stop, the prior with the smallest
//!   certified width lower bound is solved first, and every other prior
//!   whose HPD width is certified wider than that solution is never
//!   solved. The selected interval is the one solving every prior would
//!   select, bit for bit.

use crate::ahpd::posteriors_for_state;
use crate::state::{DesignKind, SampleState};
use kgae_intervals::{
    et_interval, hpd_interval_exact, hpd_width_achievable, hpd_width_lower_bound,
    wald_from_variance, wilson, BetaPrior, Boundary, Interval, IntervalError, Kernel,
};
use kgae_stats::dist::{upper_normal_quantile, Beta};
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

    /// Builds the `1-α` interval from the current sample.
    ///
    /// Degenerate cluster variance (a single stage-1 draw) yields the
    /// maximally uninformative sentinel interval `[μ̂-0.5, μ̂+0.5]`
    /// (MoE 0.5), so the stopping rule simply keeps sampling.
    pub fn interval(&self, state: &SampleState, alpha: f64) -> Result<Interval, IntervalError> {
        self.interval_stateful(state, alpha, Kernel::new(None))
    }

    /// [`Self::interval`] with its SRS solves routed through `kernel`.
    pub fn interval_stateful(
        &self,
        state: &SampleState,
        alpha: f64,
        kernel: Kernel<'_>,
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
                DesignKind::Srs => kernel.wilson(state.tau(), state.n(), alpha),
                DesignKind::Cluster => {
                    let eff = state.effective();
                    if state.draws() < 2 {
                        return Ok(Interval::new(eff.mu - 0.5, eff.mu + 0.5));
                    }
                    Ok(wilson(eff.mu, eff.n_eff, alpha)?)
                }
            },
            IntervalMethod::Et(prior) => match state.kind() {
                DesignKind::Srs => kernel.et(prior, state.tau(), state.n(), alpha),
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
                    DesignKind::Srs => kernel.hpd(prior, state.tau(), state.n(), alpha),
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
                let (interval, _) = pruned_ahpd(&posteriors, alpha, |i| match state.kind() {
                    DesignKind::Srs => kernel.hpd(&priors[i], state.tau(), state.n(), alpha),
                    DesignKind::Cluster => hpd_interval_exact(&posteriors[i], alpha),
                })?;
                Ok(interval)
            }
        }
    }

    /// The method's stopping boundary at `(α, ε)`, or `None` for methods
    /// without a certificate (Wald, Wilson). Resolve it once per
    /// campaign: it takes the boundary registry's lock.
    #[must_use]
    pub fn stopping_boundary(&self, alpha: f64, epsilon: f64) -> Option<StoppingBoundary> {
        let priors = self.priors()?;
        Some(StoppingBoundary {
            tables: certificate_priors(priors)
                .map(|prior| Boundary::shared(prior, alpha, 2.0 * epsilon))
                .collect(),
            alpha,
            epsilon,
            start_prior: *narrowest_prior(priors),
        })
    }
}

/// A method's stopping boundary at one `(α, ε)`: handles on the shared
/// [`Boundary`] tables of the priors `certificate_priors` keeps, from
/// [`IntervalMethod::stopping_boundary`]. A sample can stop when any of
/// them says so. SRS and cluster samples of the configuration read the
/// same tables.
#[derive(Debug, Clone)]
pub struct StoppingBoundary {
    tables: Vec<Arc<Boundary>>,
    alpha: f64,
    epsilon: f64,
    /// The prior `normal_start` extrapolates with.
    start_prior: BetaPrior,
}

impl StoppingBoundary {
    /// Exact one-step gate on an SRS sample: can the `1-α` interval at
    /// `(τ, n)` satisfy `MoE ≤ ε`? Asked of the boundary tables'
    /// count rows.
    #[must_use]
    pub fn stop_possible_now(&self, tau: u64, n: u64) -> bool {
        self.tables.iter().any(|table| table.stoppable(tau, n))
    }

    /// Exact one-step gate on a cluster sample with effective evidence
    /// `(μ̂, n_eff)` ([`SampleState::effective`]): can its `1-α` interval
    /// satisfy `MoE ≤ ε`? Asked of the boundary tables' effective rows,
    /// so full interval construction runs only at steps that actually
    /// stop (plus measure-zero boundary ties and shapes with no
    /// certificate). ET gates on the HPD predicate: ET is at least as
    /// wide, so a negative gate is still sound.
    #[must_use]
    pub fn stop_possible_effective(&self, mu: f64, n_eff: f64) -> bool {
        self.tables
            .iter()
            .any(|table| table.stoppable_effective(mu, n_eff))
    }

    /// Certified SRS lookahead: the number of further annotations that
    /// cannot satisfy `MoE ≤ ε`, from `(τ, n)` with `left` triples not
    /// yet annotated. No horizon past `left` is probed: a skip of `left`
    /// says no outcome can stop before the population runs out.
    ///
    /// For each horizon `k`, every achievable posterior has
    /// `τ' ∈ [τ, τ+k]` at `n + k` observations. At fixed `n + k` the
    /// stoppable outcomes are two-tailed (the Fig. 3 width curves peak
    /// centrally), so the union over `[τ, τ+k]` is decided at its two
    /// ends; everything before the first horizon where an end stops is
    /// skipped. Two-tailedness is verified, not proven:
    /// `tests/certificate_lemmas.rs` pins it.
    ///
    /// The search runs on the *decisive path* first: the extreme outcome
    /// nearer the boundary (`τ+k` when `2τ ≥ n`, else `τ`), where the
    /// posterior narrows fastest, and `decisive_first_skip` certifies
    /// its answer with one probe of the other end. It starts at
    /// `normal_start` on the decisive endpoint. Any start gives the same
    /// skip, so the skip depends on the sample and `(α, ε, priors)` alone.
    ///
    /// Monotonicity in the horizon is swept (`certificate_lemmas`) for
    /// the default priors, `Beta(c, c)` with `c ∈ {0.2, 1/3, 1/2, 1, 2, 5}`,
    /// and `Beta(8, 2)`, `Beta(80, 20)` and `Beta(0.5, 2)`, none of which
    /// stops on its own evidence at the swept `(α, ε)`. It fails for a
    /// prior that does: `Beta(90, 10)` at `(α, ε) = (0.05, 0.065)` stops
    /// at every `τ ≤ 4` at `n = 4` and refuses `τ = 0` at `n = 5`. The
    /// skip's stops under that prior still match the every-unit loop's
    /// (`tests/lookahead_equivalence.rs`,
    /// `gates_halt_identically_under_prior_data_conflict`).
    ///
    /// Debug builds audit a fixed pseudo-random sample of the skips
    /// against a brute-force scan that rests on neither lemma nor the
    /// boundary tables (`audit_skip`).
    #[must_use]
    pub fn certified_skip(&self, tau: u64, n: u64, left: u64) -> u64 {
        let max = left.min(MAX_SKIP);
        if max == 0 {
            return 0;
        }
        let toward_one = 2 * tau >= n;
        let start = normal_start(self.alpha, self.epsilon, &self.start_prior, |k| {
            (
                (n + k) as f64,
                (if toward_one { tau + k } else { tau }) as f64,
            )
        });
        let skip = self.skip_from(tau, n, start, max);
        #[cfg(debug_assertions)]
        if skip_audited(tau, n, skip) {
            self.audit_skip(tau, n, skip);
        }
        skip
    }

    /// Panics unless no outcome the skip passes over can stop: every
    /// `(τ′, n + k)` with `1 ≤ k ≤ skip` and `τ ≤ τ′ ≤ τ + k`, judged by
    /// [`hpd_width_achievable`] on each certificate prior directly. The
    /// scan visits every horizon and every outcome, so it assumes
    /// neither monotonicity in the horizon nor two-tailedness in the
    /// outcome, and it reads no boundary table.
    #[cfg(debug_assertions)]
    fn audit_skip(&self, tau: u64, n: u64, skip: u64) {
        for k in 1..=skip {
            for t in tau..=tau + k {
                for table in &self.tables {
                    let prior = table.prior();
                    assert!(
                        !hpd_width_achievable(
                            &prior.posterior(t, n + k),
                            self.alpha,
                            2.0 * self.epsilon
                        ),
                        "certified skip {skip} from (τ = {tau}, n = {n}) at α = {}, ε = {} \
                         skips a stoppable outcome: (τ′ = {t}, n = {}) under {:?}",
                        self.alpha,
                        self.epsilon,
                        n + k,
                        prior
                    );
                }
            }
        }
    }

    /// [`Self::certified_skip`] with its decisive search started at
    /// `start` and capped at `max ≥ 1`.
    fn skip_from(&self, tau: u64, n: u64, start: u64, max: u64) -> u64 {
        // Whether the outcome `k` annotations on at the `toward_one` end
        // of `[τ, τ+k]` can stop.
        let stoppable =
            |k, toward_one| self.stop_possible_now(if toward_one { tau + k } else { tau }, n + k);
        let toward_one = 2 * tau >= n;
        decisive_first_skip(
            start,
            max,
            |k| stoppable(k, toward_one),
            |k, refuted| (!refuted && stoppable(k, toward_one)) || stoppable(k, !toward_one),
        )
    }
}

/// Longest skip the debug audit scans: the scan visits
/// `skip·(skip + 3)/2` outcomes per prior.
#[cfg(debug_assertions)]
const AUDIT_MAX_SKIP: u64 = 256;

/// Whether debug builds audit the skip certified at `(τ, n)`: skips of
/// at most `AUDIT_MAX_SKIP`, from a fixed 64th of the samples by a
/// multiplicative hash, so a run audits the same skips whatever order
/// its campaigns run in. On the debug workspace tests this read +1.4%
/// (a sixteenth read about +5%).
#[cfg(debug_assertions)]
fn skip_audited(tau: u64, n: u64, skip: u64) -> bool {
    skip <= AUDIT_MAX_SKIP
        && (tau.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 58
            == 0
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

/// Pseudo-counts `c` of the symmetric priors `Beta(c, c)` on which
/// `certificate_priors` drops the interior priors: the range over which
/// the two-tail property in `c` was verified.
const SYMMETRIC_VERIFIED: std::ops::RangeInclusive<f64> = 0.2..=5.0;

/// The priors a stopping certificate evaluates. When every prior is a
/// symmetric `Beta(c, c)` with `c` in `SYMMETRIC_VERIFIED`, only those with
/// the smallest and the largest `c`: at any outcome the stoppable `c` are
/// two-tailed, so an interior prior never stops alone (verified, not
/// proven; `tests/certificate_lemmas.rs` pins it). With the default set
/// this is Kerman and Uniform. Any other set keeps every prior.
fn certificate_priors(priors: &[BetaPrior]) -> impl Iterator<Item = &BetaPrior> {
    let symmetric = priors
        .iter()
        .all(|p| p.a == p.b && SYMMETRIC_VERIFIED.contains(&p.a));
    let (lo, hi) = priors.iter().fold((f64::INFINITY, 0.0), |(lo, hi), p| {
        (p.a.min(lo), p.a.max(hi))
    });
    priors
        .iter()
        .filter(move |p| !symmetric || p.a == lo || p.a == hi)
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
/// [`crate::ahpd_select`]'s first minimal interval and its index, bit
/// for bit.
pub(crate) fn pruned_ahpd(
    posteriors: &[Beta],
    alpha: f64,
    solve: impl Fn(usize) -> Result<Interval, IntervalError>,
) -> Result<(Interval, usize), IntervalError> {
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
    Ok(best)
}

/// The prior with the smallest `a + b`: the one whose posterior narrows
/// fastest.
fn narrowest_prior(priors: &[BetaPrior]) -> &BetaPrior {
    priors
        .iter()
        .min_by(|p, q| (p.a + p.b).total_cmp(&(q.a + q.b)))
        .expect("a certified method has a prior")
}

/// Where a decisive-first search starts: the first horizon at which the
/// Wald sample-size condition `ν·ε² ≥ z²·m(1−m)` holds on the decisive
/// endpoint `(ν, t) = endpoint(k)`, `t` successes in `ν` observations. `m`
/// is that endpoint's posterior mode `(t + a − 1)/(ν + a + b − 2)` under
/// `prior`, the method's `narrowest_prior` (`t/ν` while
/// `ν + a + b − 2 ≤ 0`). Any start gives the same skip; a near one saves
/// predicate calls. Over NELL's SRS aHPD campaigns at `α = ε = 0.05`,
/// `t/ν` started on average three horizons past the decisive path's first
/// stoppable horizon, and the mode two before it.
fn normal_start(
    alpha: f64,
    epsilon: f64,
    prior: &BetaPrior,
    endpoint: impl Fn(u64) -> (f64, f64),
) -> u64 {
    let z = upper_normal_quantile(alpha / 2.0);
    let pseudo = prior.a + prior.b - 2.0;
    1 + find_certified_skip(1, MAX_SKIP, |k| {
        let (nu, t) = endpoint(k);
        let m = if nu + pseudo > 0.0 {
            (t + prior.a - 1.0) / (nu + pseudo)
        } else {
            t / nu
        };
        nu * epsilon * epsilon >= z * z * m * (1.0 - m)
    })
}

/// The lookahead's skip from a decisive-first search, capped at `max`.
/// The decisive outcome's last non-stoppable horizon, found by
/// [`find_certified_skip`] from `start`, is the candidate: the union is stoppable one horizon
/// later. One probe of the rest of the union at the candidate,
/// `union(k, true)`, which leaves out the decisive outcome the search
/// has just refuted there and so evaluates only the other end,
/// certifies it. Only when that probe finds the other end stoppable is
/// the full union, `union(k, false)`, bisected below the candidate.
/// With stoppability monotone in the horizon, which the search assumes,
/// the skip is the union's own first stoppable horizon less one,
/// whatever the start.
fn decisive_first_skip(
    start: u64,
    max: u64,
    decisive: impl Fn(u64) -> bool,
    union: impl Fn(u64, bool) -> bool,
) -> u64 {
    let candidate = find_certified_skip(start, max, decisive);
    if candidate == 0 || !union(candidate, true) {
        return candidate;
    }
    if union(1, false) {
        0
    } else {
        bisect_skip(|k| union(k, false), 1, candidate)
    }
}

/// Searches for the number of units to skip: one less than the smallest
/// horizon at which stopping becomes achievable, capped at `max ≥ 1`,
/// past which no horizon is evaluated. It exploits that achievability
/// is monotone in the horizon (more evidence can only narrow the best
/// achievable interval): an exponential search outward from `start`
/// (clamped to `1..=max`) brackets the first stoppable horizon, and
/// bisection finds it. Every
/// start gives the same answer; a start near it costs O(log distance)
/// predicate evaluations, most of which short-circuit on the
/// one-density-evaluation necessary condition. A non-zero result was
/// itself evaluated and found not stoppable.
fn find_certified_skip(start: u64, max: u64, stoppable_at: impl Fn(u64) -> bool) -> u64 {
    let start = start.clamp(1, max);
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
    while lo < max {
        let hi = (lo + step).min(max);
        if stoppable_at(hi) {
            return bisect_skip(stoppable_at, lo, hi);
        }
        lo = hi;
        step *= 2;
    }
    max
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
    use kgae_intervals::KernelCache;
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
    fn cached_and_uncached_states_agree_bit_for_bit() {
        // The tentpole invariant at the dispatch layer: routing through a
        // shared kernel cache changes cost, not a single output bit.
        let shared = KernelCache::new();
        let methods = [
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::KERMAN),
            IntervalMethod::Hpd(BetaPrior::JEFFREYS),
            IntervalMethod::ahpd_default(),
        ];
        for method in methods {
            let plain = Kernel::new(None);
            let cached = Kernel::new(Some(&shared));
            for (tau, n) in [(1, 1), (5, 30), (27, 30), (30, 30), (88, 100), (109, 120)] {
                let state = srs_state(tau, n);
                let a = method.interval_stateful(&state, 0.05, plain).unwrap();
                let b = method.interval_stateful(&state, 0.05, cached).unwrap();
                let cold = method.interval(&state, 0.05).unwrap();
                for other in [b, cold] {
                    assert_eq!(
                        (a.lower().to_bits(), a.upper().to_bits()),
                        (other.lower().to_bits(), other.upper().to_bits()),
                        "{} at (τ={tau}, n={n}): {a} vs {other}",
                        method.name()
                    );
                }
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
                let skip = method
                    .stopping_boundary(0.05, 0.05)
                    .unwrap()
                    .certified_skip(tau, n, u64::MAX);
                // Brute-force: for each skipped horizon k and every
                // achievable τ', the constructed interval is wider than ε.
                for k in 1..=skip.min(60) {
                    for t in 0..=k {
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "skips a stoppable outcome")]
    fn skip_audit_trips_on_a_skip_one_horizon_too_long() {
        // The scan accepts the certified skip and refuses one horizon
        // more: by the skip's definition, some outcome stops there.
        let boundary = IntervalMethod::ahpd_default()
            .stopping_boundary(0.05, 0.05)
            .unwrap();
        let (tau, n) = (27, 30);
        let skip = boundary.certified_skip(tau, n, u64::MAX);
        assert!((1..MAX_SKIP).contains(&skip), "skip = {skip}");
        boundary.audit_skip(tau, n, skip);
        boundary.audit_skip(tau, n, skip + 1);
    }

    #[test]
    fn certified_skip_srs_reaches_stoppable_horizons() {
        // The lookahead must not be trivially zero: a central sample
        // (μ̂ = 0.5 needs ~380 annotations to stop at ε = 0.05) should
        // certify a long skip even under the loose f(mode) bound.
        let ahpd = IntervalMethod::ahpd_default();
        let skip = ahpd
            .stopping_boundary(0.05, 0.05)
            .unwrap()
            .certified_skip(15, 30, u64::MAX);
        assert!(skip >= 30, "skip = {skip} is uselessly small");
        // And frequentist methods certify nothing.
        assert!(IntervalMethod::Wald.stopping_boundary(0.05, 0.05).is_none());
        assert!(IntervalMethod::Wilson
            .stopping_boundary(0.05, 0.05)
            .is_none());
    }

    /// Reference for [`StoppingBoundary::certified_skip`]: exponential and
    /// binary search over the union predicate from horizon 1, without the
    /// boundary table, the decisive-first search, the
    /// normal-approximation start or the two-tail reductions. At each horizon `k` it evaluates every prior at the
    /// outcomes `{τ, τ+1, τ+k−1, τ+k}` within `[τ, τ+k]`.
    fn skip_by_union_search(
        method: &IntervalMethod,
        state: &SampleState,
        alpha: f64,
        epsilon: f64,
    ) -> u64 {
        let Some(priors) = method.priors() else {
            return 0;
        };
        let (tau, n) = (state.tau(), state.n());
        find_certified_skip(1, MAX_SKIP, |k| {
            [tau, tau + 1, tau + k - 1, tau + k]
                .into_iter()
                .filter(|t| (tau..=tau + k).contains(t))
                .any(|t| {
                    priors.iter().any(|prior| {
                        hpd_width_achievable(&prior.posterior(t, n + k), alpha, 2.0 * epsilon)
                    })
                })
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
            // The search from an arbitrary start must land on the same
            // skip as from the normal-approximation start.
            start in prop_oneof![Just(1u64), Just(MAX_SKIP), 1..=MAX_SKIP, 1u64..=2000],
            alpha in prop_oneof![Just(0.01), Just(0.05), Just(0.1)],
            epsilon in 0.01f64..0.1,
            // Triples left to annotate: the skip is capped there.
            left in 0u64..=3000,
        ) {
            let state = srs_state(tau, n);
            for method in skip_methods() {
                let want = skip_by_union_search(&method, &state, alpha, epsilon);
                let boundary = method.stopping_boundary(alpha, epsilon).unwrap();
                let got = boundary.certified_skip(tau, n, u64::MAX);
                prop_assert_eq!(got, want, "{:?} at (τ={}, n={}), α={}, ε={}",
                    method, tau, n, alpha, epsilon);
                let capped = boundary.certified_skip(tau, n, left);
                prop_assert_eq!(capped, want.min(left), "{:?} at (τ={}, n={}) with {} left",
                    method, tau, n, left);
                let from = boundary.skip_from(tau, n, start, MAX_SKIP);
                prop_assert_eq!(from, want, "{:?} at (τ={}, n={}) from horizon {}, \
                    α={}, ε={}", method, tau, n, start, alpha, epsilon);
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
                let got = method
                    .stopping_boundary(0.01, 1e-5)
                    .unwrap()
                    .certified_skip(tau, n, u64::MAX);
                assert_eq!(got, MAX_SKIP, "{method:?} at (τ={tau}, n={n})");
                assert_eq!(got, skip_by_union_search(&method, &state, 0.01, 1e-5));
            }
        }
    }

    #[test]
    fn decisive_path_skip_equals_the_union_search_on_small_samples() {
        // Every (τ, n) with n ≤ 40: at small n an informative prior
        // outweighs the sample, and the end away from the sample's
        // boundary can stop first.
        let mut methods = skip_methods().to_vec();
        methods.extend([
            IntervalMethod::Hpd(BetaPrior::informative(80.0, 20.0).unwrap()),
            IntervalMethod::Hpd(BetaPrior::informative(0.5, 2.0).unwrap()),
        ]);
        for method in &methods {
            for epsilon in [0.05, 0.1] {
                let boundary = method.stopping_boundary(0.05, epsilon).unwrap();
                for n in 1..=40u64 {
                    for tau in 0..=n {
                        let state = srs_state(tau, n);
                        assert_eq!(
                            boundary.certified_skip(tau, n, u64::MAX),
                            skip_by_union_search(method, &state, 0.05, epsilon),
                            "{method:?} at (τ={tau}, n={n}), ε={epsilon}"
                        );
                    }
                }
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

    #[test]
    fn find_certified_skip_search_is_consistent() {
        // Synthetic monotone predicates with first stoppable horizon T
        // ⇒ T − 1 units are skippable: immediately stoppable, mid-range,
        // at the cap, and never stoppable within the cap (capped skip).
        // Every start gives the same answer, no horizon past the cap is
        // probed, and a non-zero answer was itself evaluated (the union
        // probe relies on it).
        for max in [MAX_SKIP, 1_860, 1] {
            for threshold in [1, 2, MAX_SKIP / 2 + 7, MAX_SKIP, u64::MAX] {
                let want = threshold.saturating_sub(1).min(max);
                for start in (1..=max + 1).chain([MAX_SKIP + 1]) {
                    let seen = std::cell::Cell::new(false);
                    let skip = find_certified_skip(start, max, |k| {
                        assert!((1..=max).contains(&k), "probed horizon {k}");
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
            let kernel = KernelCache::new();
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
                    let got = method
                        .interval_stateful(&state, alpha, Kernel::new(Some(&kernel)))
                        .unwrap();
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
        let (mut selections, mut single_solves) = (0u64, 0u64);
        for method in &skip_methods()[..2] {
            let priors = method.priors().unwrap();
            for alpha in [0.01, 0.05, 0.1] {
                for &mu in &mus {
                    for n_eff in (0..=50).map(|i| 10f64.powf(f64::from(i) / 10.0)) {
                        let posteriors: Vec<Beta> = priors
                            .iter()
                            .map(|p| p.posterior_effective(mu, n_eff).unwrap())
                            .collect();
                        let want = crate::ahpd::ahpd_select_posteriors(&posteriors, alpha).unwrap();
                        let solves = std::cell::Cell::new(0u32);
                        let (got, _) = pruned_ahpd(&posteriors, alpha, |i| {
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
        eprintln!("{single_solves} of {selections} cluster selections solved one prior");
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
