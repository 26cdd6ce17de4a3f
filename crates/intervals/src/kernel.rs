//! Shared posterior-kernel cache: memoized solves of the Beta-posterior
//! interval kernels, keyed by integer annotation counts.
//!
//! Every interval the evaluation engines construct under SRS is a **pure
//! function of integer counts** `(τ, n)` plus a fixed `(prior, α)`
//! configuration: the conjugate posterior is `Beta(a + τ, b + n − τ)`
//! and the solver output depends on nothing else. A multi-tenant server
//! answering thousands of campaigns over the same registry datasets
//! therefore re-solves identical kernels millions of times. This module
//! amortizes them:
//!
//! * [`KernelCache`] is a sharded, lock-striped memo table from
//!   `(op, prior bits, α bits, τ, n)` to the solver's output, stored as
//!   the **bit-exact** `f64`s the solver produced.
//! * [`Kernel`] is the dispatch handle the hot paths call: with a cache
//!   it memoizes, without one it calls the same canonical solve
//!   functions directly — so cached and uncached runs are **bit-identical
//!   by construction**, not by tolerance.
//!
//! Keys are self-describing (the prior and α are part of the key, as raw
//! bits), so one process-wide cache is shared safely across methods,
//! engines, and tenants with different configurations. Tenants choose
//! those bits, so each key is hashed once per lookup with a randomly
//! seeded hasher, and that one hash picks both the shard and the slot in
//! the shard's map. Only `Ok` solver outputs are cached; errors
//! (degenerate inputs like `n = 0`) take the cold path every time and
//! stay exact.
//!
//! The stopping certificates do not come through here: they read the
//! shared stopping-boundary table of [`crate::boundary`], which every
//! engine uses with or without a cache.
//!
//! Bounding: each shard holds at most `cap / SHARDS` entries; an insert
//! into a full shard clears that shard wholesale. Counts are small
//! integers, so the working set of a registry dataset is tiny and the
//! cap exists only as a safety valve against pathological workloads —
//! a whole-shard clear is cheaper than any per-entry recency machinery
//! and keeps the lock hold time flat.
//!
//! Observability: relaxed atomic hit/miss/eviction/insertion counters
//! plus an entry-count gauge, snapshot via [`KernelCache::stats`].
//! Lookups are *derived* as `hits + misses` from one snapshot, so the
//! reconciliation `hits + misses == lookups` holds exactly even under
//! concurrent traffic.

use crate::error::IntervalError;
use crate::et::et_interval;
use crate::frequentist::wilson;
use crate::hpd::hpd_interval_exact;
use crate::prior::BetaPrior;
use crate::types::Interval;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Lock stripes. Shard choice hashes the whole key, so concurrent
/// campaigns at different counts contend only 1/SHARDS of the time.
const SHARDS: usize = 16;

/// Where the shard index sits in a key's hash: clear of the low bits a
/// shard's map indexes its slots by and of the top seven it tags them
/// with.
const SHARD_SHIFT: u32 = 48;

/// Default total entry cap (across all shards). An entry is ~100 bytes
/// including `HashMap` overhead, so the default bounds the cache at a
/// few tens of megabytes — far above the working set of the registry
/// datasets, whose count states number in the tens of thousands.
const DEFAULT_CAPACITY: usize = 1 << 18;

/// Which solver a cache entry memoizes. Part of the key, so the same
/// `(prior, α, τ, n)` coordinate can hold every kernel's output at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    /// [`hpd_interval_exact`] over the count posterior.
    Hpd,
    /// [`et_interval`] over the count posterior.
    Et,
    /// [`wilson`] from the SRS effective sample `(τ/n, n)`.
    Wilson,
}

/// A self-describing memo key: the op, the method configuration as raw
/// `f64` bits (prior shape and α), and the integer counts. Two
/// configurations share an entry iff every bit agrees, which is exactly
/// the condition under which the solver output is reusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    op: Op,
    prior_a: u64,
    prior_b: u64,
    alpha: u64,
    tau: u64,
    n: u64,
}

impl Key {
    fn new(op: Op, prior: &BetaPrior, alpha: f64, tau: u64, n: u64) -> Key {
        Key {
            op,
            prior_a: prior.a.to_bits(),
            prior_b: prior.b.to_bits(),
            alpha: alpha.to_bits(),
            tau,
            n,
        }
    }
}

/// A key stored with its seeded hash, which a shard's map reuses
/// through [`Prehashed`] instead of hashing the key again.
#[derive(Debug, PartialEq, Eq)]
struct HashedKey {
    hash: u64,
    key: Key,
}

impl Hash for HashedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The shard maps' hasher: it passes on the hash a [`HashedKey`] carries.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a HashedKey writes only its hash");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

type Shard = HashMap<HashedKey, Interval, BuildHasherDefault<Prehashed>>;

/// A point-in-time snapshot of the cache counters, taken by
/// [`KernelCache::stats`]. `lookups` is derived as `hits + misses` from
/// the same snapshot, so `hits + misses == lookups` reconciles exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCacheStats {
    /// Lookups answered from the memo table.
    pub hits: u64,
    /// Lookups that fell through to a real solve.
    pub misses: u64,
    /// Entries dropped by shard-clearing evictions.
    pub evictions: u64,
    /// Entries inserted (a re-insert after an eviction counts again).
    pub insertions: u64,
    /// Entries currently resident, summed over shards.
    pub entries: u64,
}

impl KernelCacheStats {
    /// Total lookups: `hits + misses`, by construction.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the table (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The process-wide posterior-kernel memo table. Share one instance per
/// server (`Arc<KernelCache>`) across every engine and tenant; see the
/// module docs for keying, sharding, and eviction.
pub struct KernelCache {
    shards: [Mutex<Shard>; SHARDS],
    /// The seeded key hasher (SipHash under a per-cache random key).
    hasher: RandomState,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    entries: AtomicU64,
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl KernelCache {
    /// A cache bounded at the default capacity (2¹⁸ total entries).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache bounded at `capacity` total entries (clamped so every
    /// shard holds at least one).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        KernelCache {
            shards: std::array::from_fn(|_| Mutex::default()),
            hasher: RandomState::new(),
            shard_cap: (capacity / SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Counter snapshot for metrics exposition.
    #[must_use]
    pub fn stats(&self) -> KernelCacheStats {
        KernelCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }

    /// Looks `key` up; on a miss runs `solve` and memoizes an `Ok`
    /// result. Errors pass through uncached. The solve runs outside the
    /// shard lock, so a slow cold solve never blocks other lookups.
    fn memo(
        &self,
        key: Key,
        solve: impl FnOnce() -> Result<Interval, IntervalError>,
    ) -> Result<Interval, IntervalError> {
        let hash = self.hasher.hash_one(key);
        let key = HashedKey { hash, key };
        let shard = &self.shards[(hash >> SHARD_SHIFT) as usize % SHARDS];
        if let Some(value) = shard.lock().expect("kernel shard").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(*value);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = solve()?;
        let mut guard = shard.lock().expect("kernel shard");
        if guard.len() >= self.shard_cap {
            let dropped = guard.len() as u64;
            guard.clear();
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
            self.entries.fetch_sub(dropped, Ordering::Relaxed);
        }
        // A racing solver may have filled the entry first; both computed
        // the same pure function, so either value is the value.
        if guard.insert(key, value).is_none() {
            self.insertions.fetch_add(1, Ordering::Relaxed);
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------
// Canonical solve functions
// ---------------------------------------------------------------------
//
// These are THE definitions of the count-keyed kernels: the cached path
// memoizes exactly these functions and the uncached path calls them
// directly, which is what makes cache-on and cache-off runs
// bit-identical by construction.

/// The exact `1-α` HPD interval of the count posterior
/// `Beta(a + τ, b + n − τ)`.
///
/// # Errors
///
/// Propagates [`hpd_interval_exact`] failures — notably
/// [`IntervalError::UShapedPosterior`] at `τ = n = 0` under a
/// sub-uniform prior.
pub fn solve_hpd_by_counts(
    prior: &BetaPrior,
    tau: u64,
    n: u64,
    alpha: f64,
) -> Result<Interval, IntervalError> {
    hpd_interval_exact(&prior.posterior(tau, n), alpha)
}

/// The `1-α` equal-tailed interval of the count posterior.
///
/// # Errors
///
/// Propagates quantile failures from [`et_interval`].
pub fn solve_et_by_counts(
    prior: &BetaPrior,
    tau: u64,
    n: u64,
    alpha: f64,
) -> Result<Interval, IntervalError> {
    et_interval(&prior.posterior(tau, n), alpha)
}

/// The Wilson score interval from SRS counts: `μ̂ = τ/n` at effective
/// size `n` — expression-identical to the engines' SRS effective-sample
/// path, so routing through counts changes no bits.
///
/// # Errors
///
/// `n = 0` yields the same invalid-probability error the direct path
/// produces (`τ/n` is NaN).
pub fn solve_wilson_by_counts(tau: u64, n: u64, alpha: f64) -> Result<Interval, IntervalError> {
    Ok(wilson(tau as f64 / n as f64, n as f64, alpha)?)
}

// ---------------------------------------------------------------------
// Dispatch handle
// ---------------------------------------------------------------------

/// The hot paths' view of the kernel: a copyable handle that memoizes
/// through a [`KernelCache`] when one is attached and calls the same
/// canonical solve functions directly when none is.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernel<'a> {
    cache: Option<&'a KernelCache>,
}

impl<'a> Kernel<'a> {
    /// A handle over `cache`; `None` solves directly (identical bits).
    #[must_use]
    pub fn new(cache: Option<&'a KernelCache>) -> Kernel<'a> {
        Kernel { cache }
    }

    fn interval(
        &self,
        key: Key,
        solve: impl FnOnce() -> Result<Interval, IntervalError>,
    ) -> Result<Interval, IntervalError> {
        match self.cache {
            None => solve(),
            Some(cache) => cache.memo(key, solve),
        }
    }

    /// Memoized [`solve_hpd_by_counts`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures (never cached).
    pub fn hpd(
        &self,
        prior: &BetaPrior,
        tau: u64,
        n: u64,
        alpha: f64,
    ) -> Result<Interval, IntervalError> {
        self.interval(Key::new(Op::Hpd, prior, alpha, tau, n), || {
            solve_hpd_by_counts(prior, tau, n, alpha)
        })
    }

    /// Memoized [`solve_et_by_counts`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures (never cached).
    pub fn et(
        &self,
        prior: &BetaPrior,
        tau: u64,
        n: u64,
        alpha: f64,
    ) -> Result<Interval, IntervalError> {
        self.interval(Key::new(Op::Et, prior, alpha, tau, n), || {
            solve_et_by_counts(prior, tau, n, alpha)
        })
    }

    /// Memoized [`solve_wilson_by_counts`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures (never cached).
    pub fn wilson(&self, tau: u64, n: u64, alpha: f64) -> Result<Interval, IntervalError> {
        const NO_PRIOR: BetaPrior = BetaPrior {
            a: 0.0,
            b: 0.0,
            name: "",
        };
        self.interval(Key::new(Op::Wilson, &NO_PRIOR, alpha, tau, n), || {
            solve_wilson_by_counts(tau, n, alpha)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> impl Iterator<Item = (BetaPrior, u64, u64)> {
        BetaPrior::UNINFORMATIVE.into_iter().flat_map(|prior| {
            [(0u64, 1u64), (1, 1), (5, 30), (27, 30), (30, 30), (88, 100)]
                .into_iter()
                .map(move |(tau, n)| (prior, tau, n))
        })
    }

    #[test]
    fn cached_solves_are_bit_identical_to_direct() {
        let cache = KernelCache::new();
        // Two passes: the first fills, the second hits. Both must equal
        // the direct path bit for bit.
        for _ in 0..2 {
            let cached = Kernel::new(Some(&cache));
            let direct = Kernel::new(None);
            for (prior, tau, n) in grid() {
                for alpha in [0.05, 0.1] {
                    let (a, b) = (
                        cached.hpd(&prior, tau, n, alpha).unwrap(),
                        direct.hpd(&prior, tau, n, alpha).unwrap(),
                    );
                    assert!(
                        a.lower().to_bits() == b.lower().to_bits()
                            && a.upper().to_bits() == b.upper().to_bits(),
                        "hpd[{}] τ={tau} n={n} α={alpha}: {a} != {b}",
                        prior.name
                    );
                    let (a, b) = (
                        cached.et(&prior, tau, n, alpha).unwrap(),
                        direct.et(&prior, tau, n, alpha).unwrap(),
                    );
                    assert_eq!(a.lower().to_bits(), b.lower().to_bits());
                    assert_eq!(a.upper().to_bits(), b.upper().to_bits());
                    let (a, b) = (
                        cached.wilson(tau, n, alpha).unwrap(),
                        direct.wilson(tau, n, alpha).unwrap(),
                    );
                    assert_eq!(a.lower().to_bits(), b.lower().to_bits());
                    assert_eq!(a.upper().to_bits(), b.upper().to_bits());
                }
            }
        }
        let stats = cache.stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        assert_eq!(stats.hits + stats.misses, stats.lookups());
    }

    #[test]
    fn keys_separate_configurations() {
        // Same counts under different α / priors / ops must not collide:
        // resolve each and re-check against the direct path.
        let cache = KernelCache::new();
        let kernel = Kernel::new(Some(&cache));
        let kerman = BetaPrior::KERMAN;
        let uniform = BetaPrior::UNIFORM;
        let a = kernel.hpd(&kerman, 27, 30, 0.05).unwrap();
        let b = kernel.hpd(&uniform, 27, 30, 0.05).unwrap();
        let c = kernel.hpd(&kerman, 27, 30, 0.10).unwrap();
        assert_ne!(a.lower().to_bits(), b.lower().to_bits());
        assert_ne!(a.width().to_bits(), c.width().to_bits());
        let et = kernel.et(&kerman, 27, 30, 0.05).unwrap();
        assert_ne!(a.lower().to_bits(), et.lower().to_bits());
        for (interval, prior, alpha) in [(a, kerman, 0.05), (b, uniform, 0.05), (c, kerman, 0.10)] {
            let direct = solve_hpd_by_counts(&prior, 27, 30, alpha).unwrap();
            assert_eq!(interval.lower().to_bits(), direct.lower().to_bits());
            assert_eq!(interval.upper().to_bits(), direct.upper().to_bits());
        }
    }

    #[test]
    fn errors_pass_through_uncached() {
        let cache = KernelCache::new();
        let kernel = Kernel::new(Some(&cache));
        // τ = n = 0 under Kerman: U-shaped, no single HPD interval.
        assert!(matches!(
            kernel.hpd(&BetaPrior::KERMAN, 0, 0, 0.05),
            Err(IntervalError::UShapedPosterior { .. })
        ));
        // Wilson at n = 0: invalid μ̂ (NaN), exactly like the direct path.
        assert!(kernel.wilson(0, 0, 0.05).is_err());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 0, "errors must not be cached");
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn eviction_bounds_every_shard_and_counters_reconcile() {
        // Tiny cap: 32 entries total → 2 per shard.
        let cache = KernelCache::with_capacity(32);
        let kernel = Kernel::new(Some(&cache));
        for n in 1..=400u64 {
            let _ = kernel.hpd(&BetaPrior::UNIFORM, n / 2, n, 0.05);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "cap never triggered");
        assert_eq!(stats.entries, stats.insertions - stats.evictions);
        assert!(stats.entries <= 32 + SHARDS as u64);
        for shard in &cache.shards {
            assert!(shard.lock().unwrap().len() <= 2);
        }
        // Evicted entries re-solve to the same bits.
        let direct = solve_hpd_by_counts(&BetaPrior::UNIFORM, 1, 2, 0.05).unwrap();
        let again = kernel.hpd(&BetaPrior::UNIFORM, 1, 2, 0.05).unwrap();
        assert_eq!(direct.lower().to_bits(), again.lower().to_bits());
    }

    #[test]
    fn concurrent_access_reconciles_and_matches_direct() {
        let cache = KernelCache::new();
        let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
            (0..8u64)
                .map(|t| {
                    let cache = &cache;
                    scope.spawn(move || {
                        let kernel = Kernel::new(Some(cache));
                        let mut bits = Vec::new();
                        // Overlapping count walks from staggered starts.
                        for i in 0..200u64 {
                            let n = 1 + (t + i) % 120;
                            let tau = n.min(i % (n + 1));
                            let interval = kernel.hpd(&BetaPrior::KERMAN, tau, n, 0.05).unwrap();
                            bits.push(interval.lower().to_bits());
                            bits.push(interval.upper().to_bits());
                        }
                        bits
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        // Every thread must agree with the direct solver.
        let direct = Kernel::new(None);
        for (t, bits) in results.iter().enumerate() {
            let t = t as u64;
            for i in 0..200u64 {
                let n = 1 + (t + i) % 120;
                let tau = n.min(i % (n + 1));
                let interval = direct.hpd(&BetaPrior::KERMAN, tau, n, 0.05).unwrap();
                assert_eq!(bits[2 * i as usize], interval.lower().to_bits());
                assert_eq!(bits[2 * i as usize + 1], interval.upper().to_bits());
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups(), stats.hits + stats.misses);
        assert_eq!(stats.lookups(), 8 * 200);
        let resident: u64 = cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len() as u64)
            .sum();
        assert_eq!(stats.entries, resident, "entry gauge drifted");
    }
}
