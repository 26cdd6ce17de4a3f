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
//!   designs have no lookahead and do not rest on this fact.
//! * **Two-tailed in a symmetric prior's pseudo-count.** For `Beta(c, c)`,
//!   the stoppable `c` at any outcome are `{c ≤ c_lo} ∪ {c ≥ c_hi}`, on
//!   integer `(τ, n)` (the SRS certificates) and on fractional
//!   `(μ̂, n_eff)` (the cluster designs' one-step gate), so an interior
//!   prior never stops alone and the certificates evaluate only the
//!   smallest and the largest `c`.
//!
//! On these facts the SRS certificates ask the shared stopping-boundary
//! tables, which settle runs of outcomes from single verdicts, so the
//! tables are checked here too: at every `(τ, n)` of the sweep, asked in
//! a scrambled order, each prior's table and the default set's
//! [`SrsBoundary`](kgae_core::SrsBoundary) give the predicate's verdict,
//! and tables settled concurrently in different orders agree.

use kgae_core::IntervalMethod;
use kgae_intervals::{hpd_width_achievable, BetaPrior, Boundary};
use std::sync::{Arc, Barrier};

/// The pseudo-counts `c` of the symmetric priors `Beta(c, c)` checked:
/// the default set's 1/3, 1/2 and 1, and the ends of the range on which
/// the certificates keep only the extreme pseudo-counts.
const SYMMETRIC: [f64; 6] = [0.2, 1.0 / 3.0, 0.5, 1.0, 2.0, 5.0];

/// The `(α, ε)` pairs of the workspace run.
const PAIRS: [(f64, f64); 3] = [(0.05, 0.05), (0.01, 0.05), (0.05, 0.02)];

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

/// Panics unless `row`'s stoppable outcomes part at the centre
/// `c = (n + b − a)/2`: every stoppable `τ ≤ c` below every refused one,
/// every stoppable `τ > c` above it.
fn assert_parted_at_the_centre(row: &[bool], prior: &BetaPrior, what: impl FnOnce() -> String) {
    let n = row.len() as f64 - 1.0;
    let (Some(first), Some(last)) = (row.iter().position(|&s| !s), row.iter().rposition(|&s| !s))
    else {
        return;
    };
    let misplaced = row.iter().enumerate().find(|&(tau, &stoppable)| {
        let below_centre = 2.0 * tau as f64 <= n + prior.b - prior.a;
        stoppable
            && if below_centre {
                tau > first
            } else {
                tau < last
            }
    });
    assert!(
        misplaced.is_none(),
        "{}: stoppable τ = {:?} on the wrong side of the refused run {first}..={last}",
        what(),
        misplaced.map(|(tau, _)| tau)
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
/// boundary table and the default set's SRS boundary give the
/// predicate's verdict. Returns the number of predicates evaluated.
fn check_counts(priors: &[BetaPrior], alpha: f64, epsilon: f64, max_n: u64) -> u64 {
    let defaults = BetaPrior::UNINFORMATIVE.len();
    let tables: Vec<Arc<Boundary>> = priors
        .iter()
        .map(|prior| Boundary::shared(prior, alpha, 2.0 * epsilon))
        .collect();
    let default_boundary = IntervalMethod::ahpd_default()
        .srs_boundary(alpha, epsilon)
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
            assert_parted_at_the_centre(row, prior, || {
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

/// Checks two-tailedness in `c` on fractional `(μ̂, n_eff)` through the
/// cluster gate's `posterior_effective`: μ̂ in steps of `1/mu_steps` plus
/// values within a hair of the boundaries, n_eff = 0 and 40 log-spaced
/// values a decade from 0.1 to `max_n_eff`. Returns the number of
/// predicates evaluated.
fn check_fractional(alpha: f64, epsilon: f64, mu_steps: u32, max_n_eff: f64) -> u64 {
    let priors: Vec<BetaPrior> = SYMMETRIC.iter().map(|&c| informative(c, c)).collect();
    let mus = [1e-9, 1e-4, 1.0 - 1e-4, 1.0 - 1e-9]
        .into_iter()
        .chain((0..=mu_steps).map(|i| f64::from(i) / f64::from(mu_steps)));
    let steps = ((max_n_eff.log10() + 1.0) * 40.0).round() as i32;
    let n_effs: Vec<f64> = std::iter::once(0.0)
        .chain((0..=steps).map(|j| 10f64.powf(f64::from(j) / 40.0 - 1.0)))
        .collect();
    let mut evaluated = 0;
    for mu in mus {
        for &n_eff in &n_effs {
            assert_two_tailed_in_c(
                &priors,
                |i| {
                    let post = priors[i].posterior_effective(mu, n_eff).unwrap();
                    hpd_width_achievable(&post, alpha, 2.0 * epsilon)
                },
                || format!("(μ̂, n_eff) = ({mu}, {n_eff}), α = {alpha}, ε = {epsilon}"),
            );
            evaluated += priors.len() as u64;
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
fn stoppable_pseudo_counts_are_two_tailed_on_fractional_evidence() {
    let mut evaluated = 0;
    for (alpha, epsilon) in PAIRS {
        evaluated += check_fractional(alpha, epsilon, 400, 1e4);
    }
    eprintln!("{evaluated} predicates");
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
    let priors = priors();
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
        evaluated += check_fractional(alpha, epsilon, 1_000, 1e5);
    }
    eprintln!("{evaluated} predicates");
}
