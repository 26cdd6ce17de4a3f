//! The facts the stopping certificates rest on, checked exhaustively
//! over an operating domain. They are verified here, not proven.
//! "Stoppable" is the engine's exact predicate: the `1-α` HPD width of
//! the posterior is at most `2ε`.
//!
//! * **Two-tailed in the outcome.** At fixed `n`, the stoppable `τ` are
//!   `{τ ≤ lo(n)} ∪ {τ ≥ hi(n)}`, per prior and over a prior set, so the
//!   SRS certificate decides the outcome range `[τ, τ+k]` at its ends.
//!   Per prior the tails part at the centre `c = (n + b − a)/2`: every
//!   stoppable `τ ≤ c` lies below every refused outcome and every
//!   stoppable `τ > c` above it, which is how the stopping-boundary
//!   table tells which run of outcomes a verdict settles.
//! * **Monotone in the horizon.** `lo(n+1) ≥ lo(n)` and
//!   `hi(n+1) ≤ hi(n) + 1`: with two-tailedness, an outcome range that
//!   can stop `k` annotations on can stop `k + 1` on, so the SRS
//!   lookahead's search may gallop and bisect over the horizon. Cluster
//!   designs have no lookahead and do not rest on this fact. It fails
//!   for a prior that stops on its own evidence, where the data conflict
//!   with it (`Beta(90, 10)` at the first [`CONFLICT`] pair), so the
//!   count sweep keeps to [`priors`].
//! * **Two-tailed in `μ̂`.** At fixed `n_eff`, the stoppable `μ̂` of the
//!   effective posterior are two-tailed, per prior and over a prior set,
//!   and per prior they part at the centre `(n_eff + b − a)/(2·n_eff)`,
//!   so a verdict at `(μ̂, k)` settles a run of the cluster row of `k`.
//! * **Monotone in `n_eff`, for a symmetric prior.** At fixed `μ̂`, an
//!   `n_eff` that stops under `Beta(c, c)` stops at every larger one, so
//!   a refusal at `(μ̂, k)`, on the row of a grid point `k ≥ n_eff`,
//!   answers `(μ̂, n_eff)`. Under an asymmetric prior it need not, where
//!   the data conflict with the prior (`Beta(90, 10)` at the
//!   [`CONFLICT`] pairs); the tables ask the predicate for those priors'
//!   effective evidence, and are checked there too.
//! * **Two-tailed in a symmetric prior's pseudo-count.** For `Beta(c, c)`,
//!   the stoppable `c` at any outcome are `{c ≤ c_lo} ∪ {c ≥ c_hi}`, on
//!   integer `(τ, n)` (the SRS certificates) and on fractional
//!   `(μ̂, n_eff)` (the cluster designs' one-step gate), so an interior
//!   prior never stops alone and the certificates evaluate only the
//!   smallest and the largest `c`.
//!
//! The two `μ̂`/`n_eff` facts are checked on certified verdicts: a
//! U-shaped posterior has no certificate, so the predicate answers
//! `true` there, and the tables answer it before reading any row.
//!
//! On these facts both designs' certificates ask the shared
//! stopping-boundary tables, which settle runs of evidence from single
//! verdicts, so the tables are checked here too: at every point of the
//! sweep, `(τ, n)` and `(μ̂, n_eff)`, asked in a scrambled order, each
//! prior's table and the default set's
//! [`StoppingBoundary`](kgae_core::StoppingBoundary) give the predicate's
//! verdict, and tables settled concurrently in different orders agree.

use kgae_core::IntervalMethod;
use kgae_intervals::{hpd_width_achievable, BetaPrior, Boundary};
use std::sync::{Arc, Barrier};

/// The pseudo-counts `c` of the symmetric priors `Beta(c, c)` checked:
/// the default set's 1/3, 1/2 and 1, and the ends of the range on which
/// the certificates keep only the extreme pseudo-counts.
const SYMMETRIC: [f64; 6] = [0.2, 1.0 / 3.0, 0.5, 1.0, 2.0, 5.0];

/// The `(α, ε)` pairs of the workspace run.
const PAIRS: [(f64, f64); 3] = [(0.05, 0.05), (0.01, 0.05), (0.05, 0.02)];

/// `(α, ε)` pairs at which [`conflict`]'s `Beta(90, 10)` stops on its
/// own evidence, and evidence that conflicts with it widens its
/// posterior past `2ε` before narrowing it again.
const CONFLICT: [(f64, f64); 2] = [(0.05, 0.065), (0.05, 0.0725)];

fn informative(a: f64, b: f64) -> BetaPrior {
    BetaPrior::informative(a, b).unwrap()
}

/// The default priors first, then informative ones on both sides of 1/2,
/// then the rest of [`SYMMETRIC`].
fn priors() -> Vec<BetaPrior> {
    let mut priors = BetaPrior::UNINFORMATIVE.to_vec();
    priors.extend([
        informative(8.0, 2.0),
        informative(80.0, 20.0),
        informative(0.5, 2.0),
    ]);
    for c in SYMMETRIC {
        if !priors.iter().any(|p| p.a == c && p.b == c) {
            priors.push(informative(c, c));
        }
    }
    priors
}

/// [`priors`] and `Beta(90, 10)`, a prior strong enough to stop on its
/// own evidence at the [`CONFLICT`] pairs, for the fractional checks.
/// (At those pairs its count rows are not monotone in the horizon: at
/// `ε = 0.065` every `τ ≤ 4` stops at `n = 4`, and `τ = 0` does not at
/// `n = 5`.)
fn conflict() -> Vec<BetaPrior> {
    let mut priors = priors();
    priors.push(informative(90.0, 10.0));
    priors
}

/// The stoppable tails of a row of verdicts in index order: `lo` is the
/// last index of the leading stoppable run (−1 if none) and `hi` the
/// first of the trailing one (`len` if none). `None` when a stoppable
/// entry lies strictly between two that are not, i.e. the row is not
/// two-tailed.
fn tails(row: &[bool]) -> Option<(i64, i64)> {
    let Some(first) = row.iter().position(|&s| !s) else {
        let len = row.len() as i64;
        return Some((len - 1, 0));
    };
    let last = row.iter().rposition(|&s| !s).unwrap();
    (!row[first..=last].iter().any(|&s| s)).then_some((first as i64 - 1, last as i64 + 1))
}

/// Panics unless the verdicts of the [`SYMMETRIC`] priors, in ascending
/// `c`, are two-tailed. `verdict(i)` is prior `i`'s.
fn assert_two_tailed_in_c(
    priors: &[BetaPrior],
    verdict: impl Fn(usize) -> bool,
    what: impl FnOnce() -> String,
) {
    let row: Vec<bool> = SYMMETRIC
        .iter()
        .map(|&c| verdict(priors.iter().position(|p| p.a == c && p.b == c).unwrap()))
        .collect();
    assert!(
        tails(&row).is_some(),
        "{}: stoppable c ∈ {SYMMETRIC:?} are not two-tailed: {row:?}",
        what()
    );
}

/// Panics unless `row`'s stoppable outcomes part at the centre: every
/// stoppable outcome with `below_centre(i)` lies below every refused one,
/// every other stoppable outcome above it.
fn assert_parted_at_the_centre(
    row: &[bool],
    below_centre: impl Fn(usize) -> bool,
    what: impl FnOnce() -> String,
) {
    let (Some(first), Some(last)) = (row.iter().position(|&s| !s), row.iter().rposition(|&s| !s))
    else {
        return;
    };
    let misplaced = row
        .iter()
        .enumerate()
        .find(|&(i, &stoppable)| stoppable && if below_centre(i) { i > first } else { i < last });
    assert!(
        misplaced.is_none(),
        "{}: stoppable outcome {:?} on the wrong side of the refused run {first}..={last}",
        what(),
        misplaced.map(|(i, _)| i)
    );
}

/// `0..=n` in a scrambled order, so later table lookups read what
/// earlier ones settled.
fn scrambled(n: u64) -> impl Iterator<Item = u64> {
    (0..=n).map(move |i| (i * 7_919 + n / 2) % (n + 1))
}

/// Evaluates every prior at every `(τ, n)` with `n ≤ max_n` once, and
/// checks there two-tailedness in `τ` (parted at the centre, per prior)
/// and monotonicity in the horizon, for each prior alone and for the
/// default set as a whole, and two-tailedness in `c`. Checks at every
/// one of those points, asked in a scrambled order, that each prior's
/// boundary table and the default set's stopping boundary give the
/// predicate's verdict. Returns the number of predicates evaluated.
fn check_counts(priors: &[BetaPrior], alpha: f64, epsilon: f64, max_n: u64) -> u64 {
    let defaults = BetaPrior::UNINFORMATIVE.len();
    let tables: Vec<Arc<Boundary>> = priors
        .iter()
        .map(|prior| Boundary::shared(prior, alpha, 2.0 * epsilon))
        .collect();
    let default_boundary = IntervalMethod::ahpd_default()
        .stopping_boundary(alpha, epsilon)
        .unwrap();
    let mut previous: Vec<Option<(i64, i64)>> = vec![None; priors.len() + 1];
    let mut evaluated = 0;
    for n in 1..=max_n {
        let rows: Vec<Vec<bool>> = priors
            .iter()
            .map(|prior| {
                (0..=n)
                    .map(|tau| hpd_width_achievable(&prior.posterior(tau, n), alpha, 2.0 * epsilon))
                    .collect()
            })
            .collect();
        evaluated += rows.len() as u64 * (n + 1);
        let default_set: Vec<bool> = (0..=n as usize)
            .map(|tau| rows[..defaults].iter().any(|row| row[tau]))
            .collect();
        for (prior, row) in priors.iter().zip(&rows) {
            let below_centre = |tau: usize| 2.0 * tau as f64 <= n as f64 + prior.b - prior.a;
            assert_parted_at_the_centre(row, below_centre, || {
                format!(
                    "Beta({}, {}) at n = {n}, α = {alpha}, ε = {epsilon}",
                    prior.a, prior.b
                )
            });
        }
        for tau in scrambled(n) {
            let at = tau as usize;
            for ((prior, table), row) in priors.iter().zip(&tables).zip(&rows) {
                assert_eq!(
                    table.stoppable(tau, n),
                    row[at],
                    "Beta({}, {})'s boundary table at (τ, n) = ({tau}, {n}), α = {alpha}, ε = {epsilon}",
                    prior.a,
                    prior.b
                );
            }
            assert_eq!(
                default_boundary.stop_possible_now(tau, n),
                default_set[at],
                "the default set's SRS boundary at (τ, n) = ({tau}, {n}), α = {alpha}, ε = {epsilon}"
            );
        }
        let names = priors
            .iter()
            .map(|p| format!("Beta({}, {})", p.a, p.b))
            .chain(["the default set".to_string()]);
        for ((row, name), previous) in rows
            .iter()
            .chain([&default_set])
            .zip(names)
            .zip(&mut previous)
        {
            let what = format!("{name} at n = {n}, α = {alpha}, ε = {epsilon}");
            let (lo, hi) = tails(row)
                .unwrap_or_else(|| panic!("{what}: stoppable τ are not two-tailed: {row:?}"));
            if let Some((prev_lo, prev_hi)) = *previous {
                assert!(
                    lo >= prev_lo && hi <= prev_hi + 1,
                    "{what}: tails (lo, hi) = ({lo}, {hi}) after ({prev_lo}, {prev_hi}) at n − 1"
                );
            }
            *previous = Some((lo, hi));
        }
        (0..=n as usize).for_each(|tau| {
            assert_two_tailed_in_c(
                priors,
                |i| rows[i][tau],
                || format!("(τ, n) = ({tau}, {n}), α = {alpha}, ε = {epsilon}"),
            );
        });
    }
    evaluated
}

/// Checks on fractional `(μ̂, n_eff)` through the cluster gate's
/// `posterior_effective`, for every prior: μ̂ in steps of `1/mu_steps`
/// plus values within a hair of the boundaries, n_eff = 0 and 40
/// log-spaced values a decade from 0.1 to `max_n_eff`. At each n_eff the
/// certified stoppable μ̂ are two-tailed and part at the centre
/// `(n_eff + b − a)/(2·n_eff)`, per prior and over the default set; at
/// each μ̂ they are monotone in n_eff, per symmetric prior and over the
/// default set; and the stoppable `c` are
/// two-tailed. "Certified" leaves out U-shaped posteriors, on which the
/// predicate answers `true` for want of a certificate and which the
/// boundary tables answer before any row. At every point, asked in a
/// scrambled order of μ̂, each prior's table and the default set's
/// [`StoppingBoundary`] give the predicate's verdict. Returns the number
/// of predicates evaluated.
fn check_fractional(
    priors: &[BetaPrior],
    alpha: f64,
    epsilon: f64,
    mu_steps: u32,
    max_n_eff: f64,
) -> u64 {
    let defaults = BetaPrior::UNINFORMATIVE.len();
    let tables: Vec<Arc<Boundary>> = priors
        .iter()
        .map(|prior| Boundary::shared(prior, alpha, 2.0 * epsilon))
        .collect();
    let default_boundary = IntervalMethod::ahpd_default()
        .stopping_boundary(alpha, epsilon)
        .unwrap();
    let mut mus: Vec<f64> = [1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9]
        .into_iter()
        .chain((0..=mu_steps).map(|i| f64::from(i) / f64::from(mu_steps)))
        .collect();
    mus.sort_by(f64::total_cmp);
    let steps = ((max_n_eff.log10() + 1.0) * 40.0).round() as i32;
    let n_effs =
        std::iter::once(0.0).chain((0..=steps).map(|j| 10f64.powf(f64::from(j) / 40.0 - 1.0)));
    let names: Vec<String> = priors
        .iter()
        .map(|p| format!("Beta({}, {})", p.a, p.b))
        .chain(["the default set".to_string()])
        .collect();
    // Per prior and the default set, the certified verdicts at the
    // previous n_eff.
    let mut previous: Vec<Option<Vec<bool>>> = vec![None; priors.len() + 1];
    let mut evaluated = 0;
    for n_eff in n_effs {
        // Per prior, the predicate and whether it certified, by μ̂.
        let (verdicts, certified): (Vec<Vec<bool>>, Vec<Vec<bool>>) = priors
            .iter()
            .map(|prior| {
                mus.iter()
                    .map(|&mu| {
                        let post = prior.posterior_effective(mu, n_eff).unwrap();
                        let stoppable = hpd_width_achievable(&post, alpha, 2.0 * epsilon);
                        let ushaped = post.alpha() < 1.0 && post.beta() < 1.0;
                        (stoppable, stoppable && !ushaped)
                    })
                    .unzip()
            })
            .unzip();
        evaluated += (priors.len() * mus.len()) as u64;
        let any_default = |rows: &[Vec<bool>], i: usize| rows[..defaults].iter().any(|row| row[i]);
        let default_set: Vec<bool> = (0..mus.len()).map(|i| any_default(&certified, i)).collect();
        let at = || format!("n_eff = {n_eff}, α = {alpha}, ε = {epsilon}");
        for (((row, prior), name), previous) in certified
            .iter()
            .chain([&default_set])
            .zip(priors.iter().map(Some).chain([None]))
            .zip(&names)
            .zip(&mut previous)
        {
            let what = || format!("{name} at {}", at());
            assert!(
                tails(row).is_some(),
                "{}: stoppable μ̂ are not two-tailed: {row:?}",
                what()
            );
            if let Some(prior) = prior {
                assert_parted_at_the_centre(
                    row,
                    |i| 2.0 * n_eff * mus[i] <= n_eff + prior.b - prior.a,
                    what,
                );
            }
            // Monotone in n_eff for the symmetric priors, on which the
            // effective rows rest; `prior_data_conflict_is_not_monotone_in_n_eff`
            // shows an asymmetric one that is not.
            let symmetric = prior.is_none_or(|p| p.a == p.b);
            if let Some(previous) = previous.as_ref().filter(|_| symmetric) {
                let lost = (0..mus.len()).find(|&i| previous[i] && !row[i]);
                assert!(
                    lost.is_none(),
                    "{name} at {}: μ̂ = {:?} stops at the previous n_eff but not here",
                    at(),
                    lost.map(|i| mus[i])
                );
            }
            *previous = Some(row.clone());
        }
        for i in scrambled(mus.len() as u64 - 1).map(|i| i as usize) {
            let mu = mus[i];
            for ((table, row), name) in tables.iter().zip(&verdicts).zip(&names) {
                assert_eq!(
                    table.stoppable_effective(mu, n_eff),
                    row[i],
                    "{name}'s boundary table at μ̂ = {mu}, {}",
                    at()
                );
            }
            assert_eq!(
                default_boundary.stop_possible_effective(mu, n_eff),
                any_default(&verdicts, i),
                "the default set's boundary at μ̂ = {mu}, {}",
                at()
            );
            assert_two_tailed_in_c(priors, |p| verdicts[p][i], || format!("μ̂ = {mu}, {}", at()));
        }
    }
    evaluated
}

#[test]
fn stoppable_counts_are_two_tailed_and_monotone_in_the_horizon() {
    let priors = priors();
    let mut evaluated = 0;
    for (alpha, epsilon) in PAIRS {
        evaluated += check_counts(&priors, alpha, epsilon, 500);
    }
    eprintln!("{evaluated} predicates");
}

#[test]
fn fractional_evidence_is_two_tailed_and_monotone_in_n_eff() {
    let priors = conflict();
    let mut evaluated = 0;
    for (alpha, epsilon) in PAIRS.into_iter().chain(CONFLICT) {
        evaluated += check_fractional(&priors, alpha, epsilon, 400, 1e4);
    }
    eprintln!("{evaluated} predicates");
}

#[test]
fn prior_data_conflict_is_not_monotone_in_n_eff() {
    // Beta(90, 10) stops on its own evidence at the CONFLICT pairs, and
    // μ̂ = 0.3 first widens its posterior: the 95% HPD width is about
    // 0.114 at n_eff = 0 and 0.146 at 40. So a refusal at a larger n_eff
    // says nothing about a smaller one, and its table must ask the
    // predicate. On a grid of n_eff in steps of 1/8, walked down and then
    // up, each μ̂ ≤ 0.3 is asked cold and again after its rows settled.
    let prior = informative(90.0, 10.0);
    let width = |n_eff: f64| {
        let post = prior.posterior_effective(0.3, n_eff).unwrap();
        kgae_intervals::hpd_interval(&post, 0.05).unwrap().width()
    };
    assert!((width(0.0) - 0.114).abs() < 0.001, "{}", width(0.0));
    assert!((width(40.0) - 0.146).abs() < 0.001, "{}", width(40.0));
    for (alpha, epsilon) in CONFLICT {
        let table = Boundary::shared(&prior, alpha, 2.0 * epsilon);
        let stop = |mu: f64, n_eff: f64| {
            let post = prior.posterior_effective(mu, n_eff).unwrap();
            hpd_width_achievable(&post, alpha, 2.0 * epsilon)
        };
        let mut lost = 0;
        for i in 0..=30 {
            let mu = f64::from(i) / 100.0;
            let n_eff = |j: usize| j as f64 / 8.0;
            let verdicts: Vec<bool> = (0..=400).map(|j| stop(mu, n_eff(j))).collect();
            lost += verdicts.windows(2).filter(|w| w[0] && !w[1]).count();
            for j in (0..=400).rev().chain(0..=400) {
                assert_eq!(
                    table.stoppable_effective(mu, n_eff(j)),
                    verdicts[j],
                    "Beta(90, 10)'s boundary table at μ̂ = {mu}, n_eff = {}, ε = {epsilon}",
                    n_eff(j)
                );
            }
        }
        assert!(
            lost > 0,
            "ε = {epsilon}: no μ̂ ≤ 0.3 stops and then does not"
        );
    }
}

#[test]
fn prior_data_conflict_is_not_monotone_in_the_horizon() {
    // Beta(90, 10) at (α, ε) = (0.05, 0.065) stops on its own evidence:
    // at n = 4 every outcome stops, and at n = 5 the outcome τ = 0 does
    // not, so the leading stoppable run shrinks as the horizon grows.
    // The SRS skip assumes it never does; its stops under this prior are
    // pinned against `EveryUnit` by `lookahead_equivalence`'s
    // `gates_halt_identically_under_prior_data_conflict`.
    let prior = informative(90.0, 10.0);
    let (alpha, epsilon) = CONFLICT[0];
    let table = Boundary::shared(&prior, alpha, 2.0 * epsilon);
    let stop = |tau: u64, n: u64| {
        let exact = hpd_width_achievable(&prior.posterior(tau, n), alpha, 2.0 * epsilon);
        assert_eq!(table.stoppable(tau, n), exact, "(τ = {tau}, n = {n})");
        exact
    };
    assert!((0..=4).all(|tau| stop(tau, 4)));
    assert!(!stop(0, 5));
}

#[test]
fn boundary_tables_settled_concurrently_agree() {
    // A configuration no other test reads, so these threads settle its
    // table from empty: each walks the (τ, n ≤ 300) in its own order, all
    // at once.
    let (alpha, width) = (0.05, 2.0 * 0.0437);
    let prior = BetaPrior::KERMAN;
    let orders: Vec<Vec<u64>> = (0..8u64)
        .map(|t| {
            let mut order: Vec<u64> = (1..=300).collect();
            match t % 4 {
                0 => {}
                1 => order.reverse(),
                2 => order.sort_by_key(|&n| (n * 97 + t) % 301),
                _ => order.rotate_left(37 * t as usize),
            }
            order
        })
        .collect();
    let start = Barrier::new(orders.len());
    let verdicts: Vec<Vec<Vec<bool>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = orders
            .iter()
            .enumerate()
            .map(|(t, order)| {
                let start = &start;
                scope.spawn(move || {
                    let table = Boundary::shared(&prior, alpha, width);
                    start.wait();
                    let mut rows: Vec<Vec<bool>> = (0..=300).map(|n| vec![false; n + 1]).collect();
                    for &n in order {
                        let taus: Vec<u64> = if t < 4 {
                            scrambled(n).collect()
                        } else {
                            (0..=n).rev().collect()
                        };
                        for tau in taus {
                            rows[n as usize][tau as usize] = table.stoppable(tau, n);
                        }
                    }
                    rows
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("settling thread"))
            .collect()
    });
    for rows in &verdicts[1..] {
        assert_eq!(rows, &verdicts[0]);
    }
    for n in 1..=300u64 {
        for tau in 0..=n {
            assert_eq!(
                verdicts[0][n as usize][tau as usize],
                hpd_width_achievable(&prior.posterior(tau, n), alpha, width),
                "(τ, n) = ({tau}, {n})"
            );
        }
    }
}

#[test]
fn effective_rows_settled_concurrently_agree() {
    // A configuration no other test reads, so these threads settle its
    // effective rows from empty: each walks the (μ̂, n_eff), μ̂ on a grid
    // of 101 and n_eff ∈ {k − 1/2, k} for k ≤ 150, in its own order, all
    // at once.
    let (alpha, width) = (0.05, 2.0 * 0.0419);
    let prior = BetaPrior::KERMAN;
    let points: Vec<(f64, f64)> = (1..=300)
        .flat_map(|j| (0..=100).map(move |i| (f64::from(i) / 100.0, f64::from(j) / 2.0)))
        .collect();
    let len = points.len() as u64;
    let orders: Vec<Vec<usize>> = (0..8u64)
        .map(|t| match t % 4 {
            0 => (0..len).map(|i| i as usize).collect(),
            1 => (0..len).rev().map(|i| i as usize).collect(),
            2 => scrambled(len - 1).map(|i| i as usize).collect(),
            _ => (0..len).map(|i| ((i * 97 + t) % len) as usize).collect(),
        })
        .collect();
    let start = Barrier::new(orders.len());
    let verdicts: Vec<Vec<bool>> = std::thread::scope(|scope| {
        let workers: Vec<_> = orders
            .iter()
            .map(|order| {
                let (start, points) = (&start, &points);
                scope.spawn(move || {
                    let table = Boundary::shared(&prior, alpha, width);
                    start.wait();
                    let mut verdicts = vec![false; points.len()];
                    for &i in order {
                        let (mu, n_eff) = points[i];
                        verdicts[i] = table.stoppable_effective(mu, n_eff);
                    }
                    verdicts
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("settling thread"))
            .collect()
    });
    for rows in &verdicts[1..] {
        assert_eq!(rows, &verdicts[0]);
    }
    for (&(mu, n_eff), &verdict) in points.iter().zip(&verdicts[0]) {
        let post = prior.posterior_effective(mu, n_eff).unwrap();
        assert_eq!(
            verdict,
            hpd_width_achievable(&post, alpha, width),
            "(μ̂, n_eff) = ({mu}, {n_eff})"
        );
    }
}

/// The larger sweep: a finer fractional grid and the counts up to
/// `n = 1,000` at ten `(α, ε)` pairs, the boundary tables checked
/// throughout. The last four pairs run the counts to
/// `max(1,000, ⌈z²/(4ε²)⌉ + 50)`, 50 past the worst-case SRS sample
/// size of the normal approximation, so each is covered to its whole
/// SRS horizon (`n ≤ 1,742` at `(0.1, 0.02)`). Run it in release:
/// `cargo test --release -p kgae-core --test certificate_lemmas -- --ignored`.
#[test]
#[ignore = "release-mode sweep; run with --ignored"]
fn certificate_lemmas_hold_on_the_larger_sweep() {
    let (priors, fractional) = (priors(), conflict());
    let horizon = |alpha: f64, epsilon: f64| {
        let z = kgae_intervals::z_critical(alpha);
        ((z * z / (4.0 * epsilon * epsilon)).ceil() as u64 + 50).max(1_000)
    };
    let mut evaluated = 0;
    for (alpha, epsilon, max_n) in [
        (0.05, 0.05, 1_000),
        (0.01, 0.05, 1_000),
        (0.10, 0.05, 1_000),
        (0.05, 0.02, 1_000),
        (0.01, 0.02, 1_000),
        (0.10, 0.03, 1_000),
        (0.01, 0.10, horizon(0.01, 0.10)),
        (0.05, 0.10, horizon(0.05, 0.10)),
        (0.10, 0.10, horizon(0.10, 0.10)),
        (0.10, 0.02, horizon(0.10, 0.02)),
    ] {
        evaluated += check_counts(&priors, alpha, epsilon, max_n);
        evaluated += check_fractional(&fractional, alpha, epsilon, 1_000, 1e5);
    }
    for (alpha, epsilon) in CONFLICT {
        evaluated += check_fractional(&fractional, alpha, epsilon, 1_000, 1e5);
    }
    eprintln!("{evaluated} predicates");
}
