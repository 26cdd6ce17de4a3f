//! The SRS stopping boundary: for one `(prior, α, width)`, the counts
//! `(τ, n)` at which some `1-α` window of the count posterior
//! `Beta(a + τ, b + n − τ)` fits within `width`.
//!
//! That certificate, [`hpd_width_achievable`], is a pure function of the
//! counts, and at fixed `n` its stoppable `τ` are two-tailed about the
//! centre `c = (n + b − a)/2` of the posterior's mirror symmetry
//! (`τ ↔ n + b − a − τ`): every stoppable `τ ≤ c` lies below every
//! refused outcome, and every stoppable `τ > c` above it. (Verified, not
//! proven: kgae-core's `tests/certificate_lemmas.rs` pins the property,
//! and this table against the predicate at every `(τ, n ≤ 500)`.) So each
//! verdict the predicate returns settles a run of outcomes at its `n`:
//! a stoppable `τ ≤ c` settles every outcome below it, a stoppable
//! `τ > c` every outcome above it, and two refused outcomes every one
//! between them. A [`Boundary`] keeps, per `n`, what the verdicts asked
//! of it so far have settled, and calls the predicate only for an
//! outcome nothing settles yet. A lookup therefore costs at most the one
//! predicate call it replaces; once the campaigns of a configuration
//! have crossed an `n`, its lookups there cost none.
//!
//! [`Boundary::shared`] hands out the process-wide table of a
//! configuration from a registry keyed by the exact bits of
//! `(prior, α, width)`, so every session and engine with that
//! configuration reads and fills one table. Like the critical value `z`,
//! a verdict depends on nothing else. The registry holds at most
//! `CAPACITY` entries (tables and rows). An insert past it drops the
//! tables no handle outside the registry holds, and if the tables still
//! held fill half of it, their rows too; a table in use stays
//! registered. Nothing here is serialized.
//!
//! Debug builds audit the two-tail inference: a verdict a settled row
//! answers is checked against the predicate it stands in for when
//! `(τ, n)` falls in a fixed pseudo-random quarter of the outcomes
//! (`audited`), so every debug test that reaches a table checks the
//! property on those it visits. Auditing every answer added about a
//! third to the debug test run; a quarter adds a few percent.

use crate::hpd::hpd_width_achievable;
use crate::prior::BetaPrior;
use kgae_stats::hash::BuildIntHasher;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Registry entry cap: tables plus rows, about 16 MB of rows. The
/// working set of a campaign mix is a few tables of a few thousand rows
/// each, so the cap is a safety valve against tenants cycling
/// configurations.
const CAPACITY: usize = 1 << 18;

/// What the verdicts at one `n` have settled: every outcome below
/// `lower` and from `upper` on stops, and every outcome in `refused`
/// (inclusive; empty while its start exceeds its end) does not.
#[derive(Debug, Clone, Copy)]
struct Row {
    lower: u64,
    upper: u64,
    refused: (u64, u64),
}

impl Row {
    const UNSETTLED: Row = Row {
        lower: 0,
        upper: u64::MAX,
        refused: (u64::MAX, 0),
    };

    /// The verdict at `τ`, if settled.
    fn verdict(&self, tau: u64) -> Option<bool> {
        if tau < self.lower || tau >= self.upper {
            Some(true)
        } else if (self.refused.0..=self.refused.1).contains(&tau) {
            Some(false)
        } else {
            None
        }
    }

    /// Records the predicate's verdict at `τ`; `below_centre` tells a
    /// stoppable `τ` in the lower tail from one in the upper tail.
    fn settle(&mut self, tau: u64, stoppable: bool, below_centre: bool) {
        if !stoppable {
            self.refused = (self.refused.0.min(tau), self.refused.1.max(tau));
        } else if below_centre {
            self.lower = self.lower.max(tau + 1);
        } else {
            self.upper = self.upper.min(tau);
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
    rows: RwLock<HashMap<u64, Row, BuildIntHasher>>,
}

/// Whether debug builds re-check a settled verdict at `(τ, n)`: a fixed
/// quarter of the outcomes, by a multiplicative hash, so a run audits
/// the same outcomes whatever order its tables settle in.
#[cfg(debug_assertions)]
fn audited(tau: u64, n: u64) -> bool {
    (tau.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)) >> 62 == 0
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

/// Counts one new entry. Past `CAPACITY` it drops the tables only the
/// registry holds (a table a caller is reading is held by that caller),
/// then, if the rest still fill half the cap, their rows. Lock order: a
/// table's row lock is never held while taking the registry lock.
fn add_entry(registry: &mut Registry) {
    registry.entries += 1;
    if registry.entries <= CAPACITY {
        return;
    }
    registry
        .tables
        .retain(|_, table| Arc::strong_count(table) > 1);
    let rows = |table: &Boundary| table.rows.read().expect("boundary rows").len();
    let mut entries = registry.tables.values().map(|t| 1 + rows(t)).sum();
    if entries > CAPACITY / 2 {
        for table in registry.tables.values() {
            table.rows.write().expect("boundary rows").clear();
        }
        entries = registry.tables.len();
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
        let table = Arc::new(Boundary {
            prior: *prior,
            alpha,
            width,
            rows: RwLock::default(),
        });
        add_entry(&mut registry);
        registry.tables.insert(key, Arc::clone(&table));
        table
    }

    /// The prior whose count posteriors this table judges.
    #[must_use]
    pub fn prior(&self) -> &BetaPrior {
        &self.prior
    }

    /// Whether some `1-α` window at `(τ, n)` fits within the width:
    /// [`hpd_width_achievable`] on the count posterior, read from the
    /// table when an earlier verdict settles it.
    #[must_use]
    pub fn stoppable(&self, tau: u64, n: u64) -> bool {
        let row = self.rows.read().expect("boundary rows").get(&n).copied();
        if let Some(verdict) = row.and_then(|row| row.verdict(tau)) {
            #[cfg(debug_assertions)]
            assert!(
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
        let below_centre = 2.0 * tau as f64 <= n as f64 + self.prior.b - self.prior.a;
        // Racing writers settle the same pure function; the merge only
        // widens what is settled, so its order does not matter.
        let mut fresh = false;
        self.rows
            .write()
            .expect("boundary rows")
            .entry(n)
            .or_insert_with(|| {
                fresh = true;
                Row::UNSETTLED
            })
            .settle(tau, stoppable, below_centre);
        if fresh {
            add_entry(&mut registry().lock().expect("boundary registry"));
        }
        stoppable
    }

    /// The verdict at `(τ, n)` straight from [`hpd_width_achievable`].
    fn predicate(&self, tau: u64, n: u64) -> bool {
        hpd_width_achievable(&self.prior.posterior(tau, n), self.alpha, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let row = table.rows.read().unwrap()[&n];
        assert_eq!((row.lower, row.upper, row.refused), (lo, hi, (lo, hi - 1)));
        assert!((0..=n).all(|tau| row.verdict(tau) == Some(stop(tau))));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a settled row answers")]
    fn audit_trips_on_a_row_that_settles_one_extra_outcome() {
        // A table outside the registry whose row at `n` claims that the
        // first refused outcome of the lower tail stops, at an `n` where
        // that outcome is audited.
        let table = Boundary {
            prior: BetaPrior::KERMAN,
            alpha: 0.05,
            width: 0.09,
            rows: RwLock::default(),
        };
        let (lo, n) = (300..)
            .find_map(|n| {
                let lo = (0..=n).find(|&tau| !table.predicate(tau, n))?;
                audited(lo, n).then_some((lo, n))
            })
            .unwrap();
        let hi = (lo..=n).find(|&tau| table.predicate(tau, n)).unwrap();
        let mutant = Row {
            lower: lo + 1,
            upper: hi,
            refused: (lo + 1, hi - 1),
        };
        table.rows.write().unwrap().insert(n, mutant);
        let _ = table.stoppable(lo, n);
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
        let table = |width: f64| {
            Arc::new(Boundary {
                prior: BetaPrior::KERMAN,
                alpha: 0.05,
                width,
                rows: RwLock::default(),
            })
        };
        let held = table(0.1);
        held.rows.write().unwrap().insert(7, Row::UNSETTLED);
        registry.tables.insert([0; 4], Arc::clone(&held));
        registry.tables.insert([1; 4], table(0.2));
        registry.entries = CAPACITY;
        add_entry(&mut registry);
        assert_eq!(registry.tables.len(), 1);
        assert!(Arc::ptr_eq(&registry.tables[&[0; 4]], &held));
        assert_eq!(registry.entries, 2);
        assert_eq!(held.rows.read().unwrap().len(), 1);
    }
}
