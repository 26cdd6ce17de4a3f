//! The stopping boundary: for one `(prior, α, width)`, the evidence at
//! which some `1-α` window of the posterior fits within `width`.
//!
//! That certificate, [`hpd_width_achievable`], is a pure function of the
//! evidence, which comes in two kinds. An SRS sample has counts `(τ, n)`
//! and the count posterior `Beta(a + τ, b + n − τ)`; a cluster sample
//! has effective evidence `(μ̂, n_eff)` and the effective posterior
//! `Beta(a + μ̂·n_eff, b + (1 − μ̂)·n_eff)`. A [`Boundary`] keeps rows of
//! what the verdicts asked of it so far have settled, one per `n` for
//! counts and one per grid point `k ≥ n_eff` for effective evidence (see
//! below), and calls the predicate only for what nothing settles yet. The rows rest on
//! two properties of the predicate, verified, not proven (kgae-core's
//! `tests/certificate_lemmas.rs` pins them, and these tables against the
//! predicate):
//!
//! * **Two-tailed about the centre.** At fixed `n` the stoppable `τ` are
//!   two-tailed about the centre `c = (n + b − a)/2` of the posterior's
//!   mirror symmetry (`τ ↔ n + b − a − τ`): every stoppable `τ ≤ c` lies
//!   below every refused outcome, and every stoppable `τ > c` above it.
//!   Likewise, at fixed `n_eff` the stoppable `μ̂` are two-tailed about
//!   `(n_eff + b − a)/(2·n_eff)`. So each verdict settles a run of its
//!   row: a stoppable outcome below the centre settles every outcome
//!   below it, one above the centre every outcome above it, and two
//!   refused outcomes every one between them.
//! * **Monotone in the evidence, for a symmetric prior.** For
//!   `Beta(c, c)` at fixed `μ̂`, an `n_eff` that stops stops at every
//!   larger `n_eff` too: the posterior mean moves from 1/2 toward `μ̂`
//!   and the variance falls. So a refusal at `(μ̂, k)` refuses every
//!   `(μ̂, n_eff)` with `n_eff ≤ k`. An asymmetric prior's need not:
//!   evidence that conflicts with it first widens the posterior
//!   (`Beta(90, 10)` at `μ̂ = 0.3` has a 95% HPD width of about 0.114
//!   at `n_eff = 0` and 0.146 at 40, so at `ε = 0.065` it stops at the
//!   first and not at the second). Asymmetric priors have no effective
//!   rows; their effective evidence is asked of the predicate directly.
//!
//! [`Boundary::stoppable`] answers counts from their row, exactly, and
//! costs at most the one predicate call it replaces.
//! For a symmetric prior, [`Boundary::stoppable_effective`] asks the
//! row of the grid point `k ≥ n_eff` about `(μ̂, k)`: a refusal there
//! answers `(μ̂, n_eff)`, and only a stoppable `(μ̂, k)` is followed by
//! the predicate at `(μ̂, n_eff)` itself (none when `n_eff = k`). A lookup therefore costs at most one
//! predicate call more than the direct check, and once the campaigns of
//! a configuration have crossed a row, most of its lookups cost none.
//! The grid is `k = ⌈n_eff⌉` up to 64 and 64 points an octave above
//! (`ROWS_PER_OCTAVE`), so `k` is within 1/64 of `n_eff` and a long
//! campaign's own refusals answer many of its later draws. Posteriors
//! the predicate cannot certify (U-shaped ones, where it answers `true`)
//! and effective evidence without a posterior are answered `true` before
//! any row is read; no row holds them.
//!
//! Count rows are hashed by `n` behind a lock, since the SRS lookahead
//! probes far horizons. Effective rows are dense chunks a cluster
//! campaign crosses in turn, read and settled without a lock: every
//! bound of a row holds a verdict's coordinate, so a racing reader sees
//! only settled facts, and a cold lookup, the common case in a
//! configuration's first campaign, costs a few loads and stores.
//!
//! [`Boundary::shared`] hands out the process-wide table of a
//! configuration from a registry keyed by the exact bits of
//! `(prior, α, width)`, so every session and engine with that
//! configuration, SRS or cluster, reads and fills one table. Like the
//! critical value `z`, a verdict depends on nothing else. The registry
//! holds at most `CAPACITY` entries (tables and rows of both kinds). An
//! insert past it drops the tables no handle outside the registry holds,
//! and if the tables still held fill half of it, their count rows too
//! (their effective rows, at most 54 KB a table, stay); a table in use
//! stays registered. Nothing here is serialized.
//!
//! Debug builds audit the inferences: a count verdict a settled row
//! answers, and an effective refusal a settled row answers, is checked
//! against the predicate it stands in for when the evidence falls in a
//! fixed pseudo-random quarter (`audited`), so every debug test that
//! reaches a table checks the properties on the evidence it visits.
//! Auditing every answer added about a third to the debug test run; a
//! quarter adds a few percent.

use crate::hpd::hpd_width_achievable;
use crate::prior::BetaPrior;
use kgae_stats::hash::BuildIntHasher;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Registry entry cap: tables plus rows, about 16 MB of rows. The
/// working set of a campaign mix is a few tables of a few thousand rows
/// each, so the cap is a safety valve against tenants cycling
/// configurations.
const CAPACITY: usize = 1 << 18;

/// Effective rows an octave of `n_eff`, and the rows of a chunk. Up to
/// `n_eff = ROWS_PER_OCTAVE` there is a row per integer `k = ⌈n_eff⌉`;
/// for `⌈n_eff⌉` in `(2^m, 2^(m+1)]` the rows sit on the multiples of
/// `2^m / ROWS_PER_OCTAVE`, and `k` is the first one at or past `n_eff`.
/// So `k` exceeds `n_eff` by under 1/64 of it, and a campaign that
/// gains little evidence a draw asks one row again and again: at
/// ε = 0.005 the first NELL TWCS(3) aHPD campaign of a process evaluates
/// 0.89 predicates a draw, where a row per integer, which its draws
/// never revisit, evaluates 2.
const ROWS_PER_OCTAVE: u64 = 64;

/// The largest `k` with an effective row. Larger effective evidence is
/// asked of the predicate directly.
const MAX_EFFECTIVE_K: u64 = 1 << 31;

/// Chunks of effective rows, `ROWS_PER_OCTAVE` rows (2 KB) each: every
/// row up to `MAX_EFFECTIVE_K`. A table allocates a chunk, and counts
/// its rows toward the registry's cap, when a lookup first reaches one
/// of its rows.
const CHUNKS: usize = effective_row(MAX_EFFECTIVE_K).1 / ROWS_PER_OCTAVE as usize + 1;

/// The effective row answering `n_eff ≥ 0`: its evidence `k ≥ n_eff` and
/// its index, or `None` past `MAX_EFFECTIVE_K`.
fn effective_key(n_eff: f64) -> Option<(f64, usize)> {
    let c = n_eff.ceil() as u64;
    if c > MAX_EFFECTIVE_K {
        return None;
    }
    let (k, index) = effective_row(c);
    Some((k as f64, index))
}

/// The grid point `k ≥ c` of the row answering `⌈n_eff⌉ = c`, and that
/// row's index.
const fn effective_row(c: u64) -> (u64, usize) {
    if c <= ROWS_PER_OCTAVE {
        return (c, c as usize);
    }
    // `c` lies in `(2^m, 2^(m+1)]`, octave `m − 5` past 64, whose rows sit
    // on the multiples of `2^(m−6)` and follow row `64·(m − 5)`, the row
    // of `k = 2^m`.
    let octave = ((c - 1).ilog2() + 1 - ROWS_PER_OCTAVE.ilog2()) as u64;
    let span = 1 << (octave - 1);
    let k = c.div_ceil(span) * span;
    (
        k,
        (ROWS_PER_OCTAVE * octave + k / span - ROWS_PER_OCTAVE) as usize,
    )
}

/// What the verdicts on one row have settled, in the row's coordinate
/// (`τ` for counts, `μ̂` for effective evidence): every outcome at or
/// below `lower` and at or above `upper` stops, and every outcome in
/// `refused` (inclusive; empty while its start exceeds its end) does not.
///
/// The bounds are `f64` bits, read and settled without a lock or a
/// read-modify-write: every bound holds the coordinate of a verdict that
/// settles it (or its unsettled sentinel), so any mix of bounds a racing
/// reader sees is settled. Two racing writers may leave the narrower of
/// their bounds, which only forgets what a later miss settles again.
/// The accesses are `Relaxed`: a bound publishes no other data, and the
/// `OnceLock` of its chunk publishes the chunk.
#[derive(Debug)]
struct Row {
    lower: AtomicU64,
    upper: AtomicU64,
    refused: [AtomicU64; 2],
}

impl Row {
    fn unsettled() -> Row {
        let bits = |x: f64| AtomicU64::new(x.to_bits());
        Row {
            lower: bits(f64::NEG_INFINITY),
            upper: bits(f64::INFINITY),
            refused: [bits(f64::INFINITY), bits(f64::NEG_INFINITY)],
        }
    }

    /// The verdict at `x`, if settled.
    fn verdict(&self, x: f64) -> Option<bool> {
        let bound = |bound: &AtomicU64| f64::from_bits(bound.load(Relaxed));
        if x <= bound(&self.lower) || x >= bound(&self.upper) {
            Some(true)
        } else if bound(&self.refused[0]) <= x && x <= bound(&self.refused[1]) {
            Some(false)
        } else {
            None
        }
    }

    /// Records the predicate's verdict at `x`; `below_centre` tells a
    /// stoppable `x` in the lower tail from one in the upper tail.
    fn settle(&self, x: f64, stoppable: bool, below_centre: bool) {
        // Moves `bound` to `x` if that moves it `down` (or up).
        let toward = |bound: &AtomicU64, down: bool| {
            let old = f64::from_bits(bound.load(Relaxed));
            if (down && x < old) || (!down && x > old) {
                bound.store(x.to_bits(), Relaxed);
            }
        };
        if !stoppable {
            toward(&self.refused[0], true);
            toward(&self.refused[1], false);
        } else if below_centre {
            toward(&self.lower, false);
        } else {
            toward(&self.upper, true);
        }
    }
}

/// The lazily settled boundary of one `(prior, α, width)`; see the module
/// docs. Obtain it from [`Boundary::shared`].
#[derive(Debug)]
pub struct Boundary {
    prior: BetaPrior,
    alpha: f64,
    width: f64,
    /// Count rows by `n`: sparse, since the SRS lookahead probes far
    /// horizons.
    counts: RwLock<HashMap<u64, Row, BuildIntHasher>>,
    /// Effective rows by `k`, in chunks: dense, since a cluster campaign
    /// crosses every `k` in turn, and read without a lock.
    effective: [OnceLock<Box<[Row]>>; CHUNKS],
}

/// Whether debug builds re-check a settled verdict on evidence `(x, n)`
/// (`(τ, n)`, or the bits of `(μ̂, n_eff)`): a fixed quarter, by a
/// multiplicative hash, so a run audits the same evidence whatever order
/// its tables settle in.
fn audited(x: u64, n: u64) -> bool {
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 62 == 0
}

/// The registry: tables by the bits of `(a, b, α, width)`, and their
/// entries (tables and rows) as last counted.
#[derive(Default)]
struct Registry {
    tables: HashMap<[u64; 4], Arc<Boundary>>,
    entries: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// Counts `added` new entries. Past `CAPACITY` it drops the tables only
/// the registry holds (a table a caller is reading is held by that
/// caller), then, if the rest still fill half the cap, their count rows.
/// The effective rows of a table in use stay until it is dropped: they
/// are read without a lock, and `CHUNKS` bounds them. Lock order: a
/// table's row lock is never held while taking the registry lock.
fn add_entries(registry: &mut Registry, added: usize) {
    registry.entries += added;
    if registry.entries <= CAPACITY {
        return;
    }
    registry
        .tables
        .retain(|_, table| Arc::strong_count(table) > 1);
    let count_rows = |table: &Boundary| table.counts.read().expect("boundary rows").len();
    let mut entries = registry
        .tables
        .values()
        .map(|t| 1 + count_rows(t) + t.effective_entries())
        .sum();
    if entries > CAPACITY / 2 {
        for table in registry.tables.values() {
            table.counts.write().expect("boundary rows").clear();
        }
        entries = registry
            .tables
            .values()
            .map(|t| 1 + t.effective_entries())
            .sum();
    }
    registry.entries = entries;
}

impl Boundary {
    /// The process-wide table of `(prior, α, width)`. Resolve it once per
    /// session, not per check: this takes the registry lock.
    #[must_use]
    pub fn shared(prior: &BetaPrior, alpha: f64, width: f64) -> Arc<Boundary> {
        let key = [prior.a, prior.b, alpha, width].map(f64::to_bits);
        let mut registry = registry().lock().expect("boundary registry");
        if let Some(table) = registry.tables.get(&key) {
            return Arc::clone(table);
        }
        let table = Arc::new(Boundary::new(prior, alpha, width));
        add_entries(&mut registry, 1);
        registry.tables.insert(key, Arc::clone(&table));
        table
    }

    /// An empty table outside the registry.
    fn new(prior: &BetaPrior, alpha: f64, width: f64) -> Boundary {
        Boundary {
            prior: *prior,
            alpha,
            width,
            counts: RwLock::default(),
            effective: Default::default(),
        }
    }

    /// The prior whose posteriors this table judges.
    #[must_use]
    pub fn prior(&self) -> &BetaPrior {
        &self.prior
    }

    /// Whether some `1-α` window at `(τ, n)` fits within the width:
    /// [`hpd_width_achievable`] on the count posterior, read from the
    /// table when an earlier verdict settles it.
    #[must_use]
    pub fn stoppable(&self, tau: u64, n: u64) -> bool {
        let x = tau as f64;
        let below_centre = 2.0 * x <= n as f64 + self.prior.b - self.prior.a;
        let settled = self
            .counts
            .read()
            .expect("boundary rows")
            .get(&n)
            .and_then(|row| row.verdict(x));
        if let Some(verdict) = settled {
            debug_assert!(
                !audited(tau, n) || verdict == self.predicate(tau, n),
                "boundary table of {:?} at α = {}, width = {}: a settled row \
                 answers (τ = {tau}, n = {n}) against the predicate",
                self.prior,
                self.alpha,
                self.width
            );
            return verdict;
        }
        let stoppable = self.predicate(tau, n);
        // Racing writers settle the same pure function; the merge only
        // widens what is settled, so its order does not matter.
        let mut fresh = false;
        self.counts
            .write()
            .expect("boundary rows")
            .entry(n)
            .or_insert_with(|| {
                fresh = true;
                Row::unsettled()
            })
            .settle(x, stoppable, below_centre);
        if fresh {
            add_entries(&mut registry().lock().expect("boundary registry"), 1);
        }
        stoppable
    }

    /// Whether some `1-α` window of the effective posterior at
    /// `(μ̂, n_eff)` fits within the width: [`hpd_width_achievable`] on
    /// [`BetaPrior::posterior_effective`], and `true` where that has no
    /// posterior (`μ̂` outside `[0, 1]`, `n_eff` negative or not finite).
    /// For a symmetric prior, a refusal settled in the row of the grid
    /// point `k ≥ n_eff` (see `ROWS_PER_OCTAVE`) answers it; otherwise the
    /// verdict at `(μ̂, k)` settles that row, and only a stoppable one is
    /// followed by the predicate at `(μ̂, n_eff)`. An asymmetric prior's
    /// evidence is asked of the predicate directly.
    #[must_use]
    pub fn stoppable_effective(&self, mu: f64, n_eff: f64) -> bool {
        // The parameters `posterior_effective` builds: the predicate
        // answers `true` on a U-shaped posterior, before any row.
        let (a, b) = (self.prior.a + mu * n_eff, self.prior.b + (1.0 - mu) * n_eff);
        if !((0.0..=1.0).contains(&mu) && n_eff.is_finite() && n_eff >= 0.0) || (a < 1.0 && b < 1.0)
        {
            return true;
        }
        // Rows serve symmetric priors only: an asymmetric prior's
        // verdicts need not be monotone in `n_eff` (module docs).
        let symmetric = self.prior.a == self.prior.b;
        let Some((k, index)) = effective_key(n_eff).filter(|_| symmetric) else {
            return self.predicate_effective(mu, n_eff);
        };
        let row = self.effective_row(index);
        let at_k = match row.verdict(mu) {
            Some(at_k) => {
                debug_assert!(
                    at_k || !audited(mu.to_bits(), n_eff.to_bits())
                        || !self.predicate_effective(mu, n_eff),
                    "boundary table of {:?} at α = {}, width = {}: a settled row \
                     answers (μ̂ = {mu}, n_eff = {n_eff}) against the predicate",
                    self.prior,
                    self.alpha,
                    self.width
                );
                at_k
            }
            None => {
                let at_k = self.predicate_effective(mu, k);
                let below_centre = 2.0 * k * mu <= k + self.prior.b - self.prior.a;
                row.settle(mu, at_k, below_centre);
                at_k
            }
        };
        at_k && (k == n_eff || self.predicate_effective(mu, n_eff))
    }

    /// The effective row at `index`, allocating its chunk on first reach.
    fn effective_row(&self, index: usize) -> &Row {
        let per_chunk = ROWS_PER_OCTAVE as usize;
        let mut added = 0;
        let chunk = self.effective[index / per_chunk].get_or_init(|| {
            added = per_chunk;
            (0..per_chunk).map(|_| Row::unsettled()).collect()
        });
        if added > 0 {
            add_entries(&mut registry().lock().expect("boundary registry"), added);
        }
        &chunk[index % per_chunk]
    }

    /// Registry entries the effective rows count for: their rows.
    fn effective_entries(&self) -> usize {
        self.effective
            .iter()
            .filter_map(OnceLock::get)
            .map(|chunk| chunk.len())
            .sum()
    }

    /// The verdict at `(τ, n)` straight from [`hpd_width_achievable`].
    fn predicate(&self, tau: u64, n: u64) -> bool {
        hpd_width_achievable(&self.prior.posterior(tau, n), self.alpha, self.width)
    }

    /// The verdict at `(μ̂, n_eff)` straight from [`hpd_width_achievable`]
    /// (`true` without a posterior).
    fn predicate_effective(&self, mu: f64, n_eff: f64) -> bool {
        self.prior
            .posterior_effective(mu, n_eff)
            .map_or(true, |post| {
                hpd_width_achievable(&post, self.alpha, self.width)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row's bounds: `(lower, upper, refused)`.
    fn bounds(row: &Row) -> (f64, f64, (f64, f64)) {
        let bound = |bound: &AtomicU64| f64::from_bits(bound.load(Relaxed));
        (
            bound(&row.lower),
            bound(&row.upper),
            (bound(&row.refused[0]), bound(&row.refused[1])),
        )
    }

    /// `0..=n` in a scrambled order, so later lookups read what earlier
    /// ones settled.
    fn scrambled(n: u64) -> impl Iterator<Item = u64> {
        (0..=n).map(move |i| (i * 7_919 + n / 2) % (n + 1))
    }

    #[test]
    fn verdicts_match_the_predicate_at_every_outcome() {
        let informative = BetaPrior::informative(8.0, 2.0).unwrap();
        for prior in BetaPrior::UNINFORMATIVE.into_iter().chain([informative]) {
            let table = Boundary::shared(&prior, 0.05, 0.1);
            for n in (0..=120).chain([400, 1_000]) {
                for pass in 0..2 {
                    for tau in scrambled(n) {
                        assert_eq!(
                            table.stoppable(tau, n),
                            hpd_width_achievable(&prior.posterior(tau, n), 0.05, 0.1),
                            "{} at (τ = {tau}, n = {n}), pass {pass}",
                            prior.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn four_verdicts_settle_a_row() {
        // The outcomes either side of each end of the refused run settle
        // every outcome at that n.
        let (prior, n, width) = (BetaPrior::KERMAN, 400, 0.09);
        let stop = |tau| hpd_width_achievable(&prior.posterior(tau, n), 0.05, width);
        let lo = (0..=n).find(|&tau| !stop(tau)).unwrap();
        let hi = (lo..=n).find(|&tau| stop(tau)).unwrap();
        let table = Boundary::shared(&prior, 0.05, width);
        for tau in [lo - 1, lo, hi - 1, hi] {
            let _ = table.stoppable(tau, n);
        }
        let counts = table.counts.read().unwrap();
        let row = &counts[&n];
        let settled = ((lo - 1) as f64, hi as f64, (lo as f64, (hi - 1) as f64));
        assert_eq!(bounds(row), settled);
        assert!((0..=n).all(|tau| row.verdict(tau as f64) == Some(stop(tau))));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a settled row answers")]
    fn audit_trips_on_a_row_that_settles_one_extra_outcome() {
        // A table outside the registry whose row at `n` claims that the
        // first refused outcome of the lower tail stops, at an `n` where
        // that outcome is audited.
        let table = Boundary::new(&BetaPrior::KERMAN, 0.05, 0.09);
        let (lo, n) = (300..)
            .find_map(|n| {
                let lo = (0..=n).find(|&tau| !table.predicate(tau, n))?;
                audited(lo, n).then_some((lo, n))
            })
            .unwrap();
        let hi = (lo..=n).find(|&tau| table.predicate(tau, n)).unwrap();
        let mutant = Row::unsettled();
        mutant.settle(lo as f64, true, true);
        mutant.settle(hi as f64, true, false);
        mutant.settle((lo + 1) as f64, false, true);
        mutant.settle((hi - 1) as f64, false, false);
        table.counts.write().unwrap().insert(n, mutant);
        let _ = table.stoppable(lo, n);
    }

    /// Asks `table` every `(μ̂, n_eff)` with `μ̂ = i/200 ≤ max_mu` in a
    /// scrambled order and `n_eff = k − offset` at each `k` of `ks`, twice,
    /// so later lookups read refusals earlier ones settled at `(μ̂, k)`,
    /// and checks each answer against the predicate.
    fn check_effective(table: &Boundary, ks: impl Iterator<Item = u32>, max_mu: f64) {
        let (prior, alpha, width) = (table.prior, table.alpha, table.width);
        for k in ks {
            for offset in [0.0, 0.75, 0.5, 0.999, 0.25] {
                let n_eff = f64::from(k) - offset;
                for pass in 0..2 {
                    for i in scrambled(200) {
                        let mu = i as f64 / 200.0;
                        if mu > max_mu {
                            continue;
                        }
                        let exact = prior
                            .posterior_effective(mu, n_eff)
                            .map_or(true, |post| hpd_width_achievable(&post, alpha, width));
                        assert_eq!(
                            table.stoppable_effective(mu, n_eff),
                            exact,
                            "{} at (μ̂ = {mu}, n_eff = {n_eff}), width {width}, pass {pass}",
                            prior.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn effective_verdicts_match_the_predicate() {
        // Fractional evidence at every offset below a row's k, and the
        // row's own k.
        let informative = BetaPrior::informative(8.0, 2.0).unwrap();
        let sub_uniform = BetaPrior::informative(0.2, 0.2).unwrap();
        for prior in BetaPrior::UNINFORMATIVE
            .into_iter()
            .chain([informative, sub_uniform])
        {
            let table = Boundary::shared(&prior, 0.05, 0.1);
            check_effective(&table, (1..=60).chain([200, 400, 1_000]), 1.0);
        }
        // Prior–data conflict: Beta(90, 10) stops on its own evidence,
        // and data far below its mean first widen the posterior, so at
        // μ̂ ≤ 0.3 a small n_eff stops where a larger one does not.
        let conflict = BetaPrior::informative(90.0, 10.0).unwrap();
        for epsilon in [0.065, 0.0725] {
            let table = Boundary::shared(&conflict, 0.05, 2.0 * epsilon);
            check_effective(&table, (1..=200).chain([400, 1_000]), 0.3);
        }
        // Past the last effective row the predicate answers directly.
        for mu in [0.5, 0.9, 0.999] {
            let n_eff = MAX_EFFECTIVE_K as f64 + 0.5;
            let exact = hpd_width_achievable(
                &BetaPrior::KERMAN.posterior_effective(mu, n_eff).unwrap(),
                0.05,
                0.01,
            );
            let table = Boundary::shared(&BetaPrior::KERMAN, 0.05, 0.01);
            assert_eq!(table.stoppable_effective(mu, n_eff), exact, "μ̂ = {mu}");
        }
        // Without a posterior there is nothing to certify.
        let table = Boundary::shared(&BetaPrior::KERMAN, 0.05, 0.1);
        for (mu, n_eff) in [
            (f64::NAN, 10.0),
            (1.5, 10.0),
            (0.5, -1.0),
            (0.5, f64::INFINITY),
        ] {
            assert!(
                table.stoppable_effective(mu, n_eff),
                "(μ̂ = {mu}, n_eff = {n_eff})"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a settled row answers")]
    fn audit_trips_on_an_effective_row_widened_past_its_last_refusal() {
        // A table outside the registry whose row at `k` stretches its
        // refused run over the first stoppable μ̂ of the upper tail, on a
        // grid of μ̂, at a `(μ̂, k)` that is audited.
        let table = Boundary::new(&BetaPrior::KERMAN, 0.05, 0.09);
        let (lo, hi, k, index) = (300..)
            .find_map(|n_eff| {
                let (k, index) = effective_key(f64::from(n_eff))?;
                let mus = (0..=1_000).map(|i| f64::from(i) / 1_000.0);
                let lo = mus.clone().find(|&mu| !table.predicate_effective(mu, k))?;
                let hi = mus
                    .skip_while(|&mu| mu <= lo)
                    .find(|&mu| table.predicate_effective(mu, k))?;
                audited(hi.to_bits(), k.to_bits()).then_some((lo, hi, k, index))
            })
            .unwrap();
        let mutant = table.effective_row(index);
        mutant.settle(lo, false, true);
        mutant.settle(hi, false, false);
        let _ = table.stoppable_effective(hi, k);
    }

    #[test]
    fn effective_rows_cover_every_n_eff_from_above() {
        // Each row answers the n_eff just below it: k ≥ n_eff, less than
        // 1/64 past it (or by under 1 where k = ⌈n_eff⌉), and the rows are
        // numbered in order without gaps.
        let mut last = (0.0, 0);
        for c in 1..=1u64 << 20 {
            for n_eff in [c as f64 - 0.5, c as f64] {
                let (k, index) = effective_key(n_eff).unwrap();
                assert!(
                    k >= n_eff && (k - n_eff < 1.0 || k - n_eff < n_eff / 64.0),
                    "n_eff = {n_eff}"
                );
                assert!(
                    index == last.1 || (index == last.1 + 1 && k > last.0),
                    "n_eff = {n_eff}"
                );
                last = (k, index);
            }
        }
        let (k, index) = effective_key(MAX_EFFECTIVE_K as f64).unwrap();
        assert_eq!((k, index / 64), (MAX_EFFECTIVE_K as f64, CHUNKS - 1));
        assert_eq!(effective_key(MAX_EFFECTIVE_K as f64 + 0.5), None);
    }

    #[test]
    fn equal_bits_share_one_table() {
        let a = Boundary::shared(&BetaPrior::KERMAN, 0.05, 0.1);
        let b = Boundary::shared(&BetaPrior::KERMAN, 0.05, 0.1);
        let c = Boundary::shared(&BetaPrior::KERMAN, 0.05, 0.1 + f64::EPSILON);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn overflow_drops_only_tables_nobody_holds() {
        let mut registry = Registry::default();
        let table = |width: f64| Arc::new(Boundary::new(&BetaPrior::KERMAN, 0.05, width));
        let held = table(0.1);
        // Rows of both kinds count toward the cap: one count row, and the
        // first chunk of effective rows.
        held.counts.write().unwrap().insert(7, Row::unsettled());
        let _ = held.effective_row(2);
        assert_eq!(held.effective_entries(), ROWS_PER_OCTAVE as usize);
        registry.tables.insert([0; 4], Arc::clone(&held));
        registry.tables.insert([1; 4], table(0.2));
        registry.entries = CAPACITY;
        add_entries(&mut registry, 1);
        assert_eq!(registry.tables.len(), 1);
        assert!(Arc::ptr_eq(&registry.tables[&[0; 4]], &held));
        assert_eq!(registry.entries, 2 + ROWS_PER_OCTAVE as usize);
        assert_eq!(held.counts.read().unwrap().len(), 1);
    }
}
