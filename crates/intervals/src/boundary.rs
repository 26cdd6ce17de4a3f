//! The stopping boundary: for one `(prior, α, width)`, the evidence at
//! which some `1-α` window of the posterior fits within `width`.
//!
//! That certificate, [`hpd_width_achievable`], is a pure function of the
//! evidence, which comes in two kinds. An SRS sample has counts `(τ, n)`
//! and the count posterior `Beta(a + τ, b + n − τ)`; a cluster sample
//! has effective evidence `(μ̂, n_eff)` and the effective posterior
//! `Beta(a + μ̂·n_eff, b + (1 − μ̂)·n_eff)`. A [`Boundary`] keeps rows of
//! what the verdicts asked of it so far have settled, one per `n` for
//! counts and one per grid point `k ≥ n_eff` for effective evidence, and
//! calls the predicate only for what nothing settles yet. The rows rest
//! on two properties of the predicate, verified, not proven (kgae-core's
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
//! costs at most the one predicate call it replaces. For a symmetric
//! prior, [`Boundary::stoppable_effective`] asks the row of the grid
//! point `k ≥ n_eff` about `(μ̂, k)`: a refusal there answers
//! `(μ̂, n_eff)`, and only a stoppable `(μ̂, k)` is followed by the
//! predicate at `(μ̂, n_eff)` itself (none when `n_eff = k`). A lookup
//! therefore costs at most one predicate call more than the direct
//! check, and once the campaigns of a configuration have crossed a row,
//! most of its lookups cost none.
//! The grid is `k = ⌈n_eff⌉` up to 64 and 64 points an octave above
//! (`ROWS_PER_OCTAVE`), so `k` is within 1/64 of `n_eff` and a long
//! campaign's own refusals answer many of its later draws. Posteriors
//! the predicate cannot certify (U-shaped ones, where it answers `true`)
//! and effective evidence without a posterior are answered `true` before
//! any row is read; no row holds them.
//!
//! Both kinds of rows live in one store, `Rows`: 64-row chunks (2 KiB),
//! each allocated when a lookup first reaches it, read and settled
//! without a lock: every bound of a row holds a verdict's coordinate, so
//! a racing reader sees only settled facts. Count rows are indexed by
//! exact `n` below `COUNT_ROWS` = 2¹⁶, so a table's count rows hold at
//! most 2 MiB (plus 16 KiB of chunk slots); a larger `n`, like effective
//! evidence past `MAX_EFFECTIVE_K`, is asked of the predicate directly.
//! The SRS lookahead probes sparsely and not far: 100 SRS-aHPD campaigns
//! at α = ε = 0.05 on NELL ask 71 count rows up to `n = 188` (3 chunks);
//! at ε = 0.005 their probes reach `n = 3,788` on NELL (47 chunks) and
//! 13,920 on DBpedia (112).
//!
//! [`Boundary::shared`] hands out the process-wide table of a
//! configuration from a registry keyed by the exact bits of
//! `(prior, α, width)`, so every session and engine with that
//! configuration, SRS or cluster, reads and fills one table. Like the
//! critical value `z`, a verdict depends on nothing else. The registry
//! counts the bytes of its tables and of their chunks as each is
//! allocated, at most `CAPACITY`; an allocation past it drops the tables
//! no handle outside the registry holds, and a table in use keeps all
//! its rows. Nothing here is serialized.
//!
//! Debug builds audit the inferences: wherever a settled row answers the
//! evidence asked, that answer is checked against the predicate it
//! stands in for when the evidence falls in a fixed pseudo-random
//! quarter (`audited`), so every debug test that reaches a table checks
//! the properties on the evidence it visits. Auditing every answer added
//! about a third to the debug test run; a quarter adds a few percent.

use crate::hpd::hpd_width_achievable;
use crate::prior::BetaPrior;
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Registry cap, in bytes of tables and chunks: a campaign mix uses a
/// few tables of a few chunks, so this guards against cycling tenants.
const CAPACITY: usize = 16 << 20;

/// Rows a chunk of `Rows` holds.
const CHUNK_ROWS: usize = 64;

/// Count rows, one per `n` below it; a larger `n` goes to the predicate.
const COUNT_ROWS: usize = 1 << 16;

/// Effective rows an octave of `n_eff`. Up to `n_eff = ROWS_PER_OCTAVE`
/// there is a row per integer `k = ⌈n_eff⌉`; for `⌈n_eff⌉` in
/// `(2^m, 2^(m+1)]` the rows sit on the multiples of
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

/// The effective row answering `n_eff ≥ 0`: its grid point `k ≥ n_eff`
/// and its index, or `None` past `MAX_EFFECTIVE_K`.
fn effective_key(n_eff: f64) -> Option<(f64, usize)> {
    let c = n_eff.ceil() as u64;
    if c <= ROWS_PER_OCTAVE {
        return Some((c as f64, c as usize));
    }
    if c > MAX_EFFECTIVE_K {
        return None;
    }
    // `c` lies in `(2^m, 2^(m+1)]`, octave `m − 5` past 64, whose rows sit
    // on the multiples of `2^(m−6)` and follow row `64·(m − 5)`, the row
    // of `k = 2^m`.
    let octave = u64::from((c - 1).ilog2() + 1 - ROWS_PER_OCTAVE.ilog2());
    let span = 1 << (octave - 1);
    let k = c.div_ceil(span) * span;
    let index = ROWS_PER_OCTAVE * octave + k / span - ROWS_PER_OCTAVE;
    Some((k as f64, index as usize))
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

/// A chunk of rows.
type Chunk = [Row; CHUNK_ROWS];

/// The row store both kinds of rows share: rows by index in chunks of
/// `CHUNK_ROWS`, each allocated on first reach and read without a lock.
#[derive(Debug)]
struct Rows(Box<[OnceLock<Box<Chunk>>]>);

impl Rows {
    /// Room for `rows` rows, none allocated.
    fn new(rows: usize) -> Rows {
        let chunks = rows.div_ceil(CHUNK_ROWS);
        Rows((0..chunks).map(|_| OnceLock::new()).collect())
    }

    /// The row at `index`, allocating its chunk on first reach (and
    /// counting it toward the registry's cap); `None` past the last chunk.
    fn row(&self, index: usize) -> Option<&Row> {
        let mut fresh = false;
        let chunk = self.0.get(index / CHUNK_ROWS)?.get_or_init(|| {
            fresh = true;
            Box::new(std::array::from_fn(|_| Row::unsettled()))
        });
        if fresh {
            let mut registry = registry().lock().expect("boundary registry");
            add_bytes(&mut registry, size_of::<Chunk>());
        }
        Some(&chunk[index % CHUNK_ROWS])
    }

    /// Bytes the store holds: its slots and its chunks.
    fn bytes(&self) -> usize {
        let chunks = self.0.iter().filter(|slot| slot.get().is_some()).count();
        self.0.len() * size_of::<OnceLock<Box<Chunk>>>() + chunks * size_of::<Chunk>()
    }
}

/// The lazily settled boundary of one `(prior, α, width)`; see the module
/// docs. Obtain it from [`Boundary::shared`].
#[derive(Debug)]
pub struct Boundary {
    prior: BetaPrior,
    alpha: f64,
    width: f64,
    /// Count rows by `n`.
    counts: Rows,
    /// Effective rows by the index of their grid point `k`.
    effective: Rows,
}

/// Whether debug builds re-check a settled answer at evidence `(x, n)`
/// (the bits of `(τ, n)` or `(μ̂, n_eff)`): a fixed quarter, by a
/// multiplicative hash, so a run audits the same evidence whatever order
/// its tables settle in.
fn audited(x: f64, n: f64) -> bool {
    let (x, n) = (x.to_bits(), n.to_bits());
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 62 == 0
}

/// The registry: tables by the bits of `(a, b, α, width)`, and the bytes
/// of those tables and their chunks.
#[derive(Default)]
struct Registry {
    tables: HashMap<[u64; 4], Arc<Boundary>>,
    bytes: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// Counts `added` new bytes. Past `CAPACITY` it drops the tables only
/// the registry holds: a table a caller is reading is held by that
/// caller, and keeps its rows.
fn add_bytes(registry: &mut Registry, added: usize) {
    registry.bytes += added;
    if registry.bytes > CAPACITY {
        registry
            .tables
            .retain(|_, table| Arc::strong_count(table) > 1);
        registry.bytes = registry.tables.values().map(|table| table.bytes()).sum();
    }
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
        add_bytes(&mut registry, table.bytes());
        registry.tables.insert(key, Arc::clone(&table));
        table
    }

    /// An empty table outside the registry.
    fn new(prior: &BetaPrior, alpha: f64, width: f64) -> Boundary {
        Boundary {
            prior: *prior,
            alpha,
            width,
            counts: Rows::new(COUNT_ROWS),
            effective: Rows::new(effective_key(MAX_EFFECTIVE_K as f64).unwrap().1 + 1),
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
        let predicate = || self.predicate(tau, n);
        let Some(row) = usize::try_from(n).ok().and_then(|n| self.counts.row(n)) else {
            return predicate();
        };
        let (x, n) = (tau as f64, n as f64);
        let below_centre = 2.0 * x <= n + self.prior.b - self.prior.a;
        self.answer(row, (x, n), below_centre, predicate, None)
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
        let keyed = effective_key(n_eff).filter(|_| symmetric);
        let Some((k, row)) = keyed.and_then(|(k, index)| Some((k, self.effective.row(index)?)))
        else {
            return self.predicate_effective(mu, n_eff);
        };
        let below_centre = 2.0 * k * mu <= k + self.prior.b - self.prior.a;
        let at_n_eff: &dyn Fn() -> bool = &|| self.predicate_effective(mu, n_eff);
        let at_k = || self.predicate_effective(mu, k);
        self.answer(
            row,
            (mu, n_eff),
            below_centre,
            at_k,
            (k != n_eff).then_some(at_n_eff),
        )
    }

    /// Settles or answers, for both kinds of rows: the verdict of `row` at
    /// `x`, the coordinate of the evidence asked `(x, n)`, read when an
    /// earlier verdict settles it, else `at_row()` (the predicate on the
    /// row's own evidence), which then settles the row; `below_centre`
    /// places a stoppable `x` in its tail. `at_asked` is the predicate on
    /// the evidence asked when the row's differs: a refusal answers, and
    /// a stoppable verdict is followed by it. Debug builds check a read
    /// verdict that answers against the predicate, when `audited(x, n)`.
    fn answer(
        &self,
        row: &Row,
        (x, n): (f64, f64),
        below_centre: bool,
        at_row: impl Fn() -> bool,
        at_asked: Option<&dyn Fn() -> bool>,
    ) -> bool {
        let verdict = match row.verdict(x) {
            Some(verdict) => {
                debug_assert!(
                    (verdict && at_asked.is_some())
                        || !audited(x, n)
                        || verdict == at_asked.map_or_else(&at_row, |at_asked| at_asked()),
                    "boundary table of {:?} at α = {}, width = {}: a settled row \
                     answers ({x}, {n}) against the predicate",
                    self.prior,
                    self.alpha,
                    self.width
                );
                verdict
            }
            None => {
                let verdict = at_row();
                row.settle(x, verdict, below_centre);
                verdict
            }
        };
        verdict && at_asked.is_none_or(|at_asked| at_asked())
    }

    /// Bytes the table holds, itself and its rows.
    fn bytes(&self) -> usize {
        size_of::<Boundary>() + self.counts.bytes() + self.effective.bytes()
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
        let row = table.counts.row(n as usize).unwrap();
        let settled = ((lo - 1) as f64, hi as f64, (lo as f64, (hi - 1) as f64));
        assert_eq!(bounds(row), settled);
        assert!((0..=n).all(|tau| row.verdict(tau as f64) == Some(stop(tau))));
    }

    #[test]
    fn counts_past_the_last_row_ask_the_predicate() {
        // The last count row is n = COUNT_ROWS − 1; past it the predicate
        // answers, and no chunk is allocated.
        let table = Boundary::new(&BetaPrior::KERMAN, 0.05, 0.01);
        assert!(table.counts.row(COUNT_ROWS - 1).is_some());
        let bytes = table.bytes();
        let n = COUNT_ROWS as u64;
        for tau in [0, 1, n / 2, n - 100, n - 50, n] {
            for _ in 0..2 {
                assert_eq!(
                    table.stoppable(tau, n),
                    table.predicate(tau, n),
                    "τ = {tau}"
                );
            }
        }
        assert!(table.counts.row(COUNT_ROWS).is_none());
        assert_eq!(table.bytes(), bytes);
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
                audited(lo as f64, n as f64).then_some((lo, n))
            })
            .unwrap();
        let hi = (lo..=n).find(|&tau| table.predicate(tau, n)).unwrap();
        let mutant = table.counts.row(n as usize).unwrap();
        mutant.settle(lo as f64, true, true);
        mutant.settle(hi as f64, true, false);
        mutant.settle((lo + 1) as f64, false, true);
        mutant.settle((hi - 1) as f64, false, false);
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
                audited(hi, k).then_some((lo, hi, k, index))
            })
            .unwrap();
        let mutant = table.effective.row(index).unwrap();
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
        let table = Boundary::new(&BetaPrior::KERMAN, 0.05, 0.1);
        assert_eq!(k, MAX_EFFECTIVE_K as f64);
        assert_eq!(index / CHUNK_ROWS, table.effective.0.len() - 1);
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
        let (held, idle) = (table(0.1), table(0.2));
        // Chunks of both kinds count toward the cap.
        let _ = held.counts.row(7);
        let _ = held.effective.row(2);
        assert_eq!(held.bytes(), idle.bytes() + 2 * size_of::<Chunk>());
        registry.tables.insert([0; 4], Arc::clone(&held));
        registry.tables.insert([1; 4], idle);
        registry.bytes = CAPACITY;
        add_bytes(&mut registry, 1);
        assert_eq!(registry.tables.len(), 1);
        assert!(Arc::ptr_eq(&registry.tables[&[0; 4]], &held));
        // The table in use keeps its rows.
        assert_eq!(registry.bytes, held.bytes());
        assert!(held.counts.0[0].get().is_some());
    }
}
