//! Sampling `k` distinct integers from `0..n` without replacement.
//!
//! Two complementary algorithms:
//!
//! * [`floyd_sample`] — Robert Floyd's algorithm, O(k) time and memory,
//!   used by TWCS's second stage (`k = min(M_i, m)` with `m ∈ {3, 5}`);
//! * [`IncrementalWithoutReplacement`] — a lazy Fisher–Yates shuffle that
//!   hands out a *stream* of distinct draws, used by SRS where the
//!   iterative framework keeps extending the same sample batch by batch.

use kgae_graph::hash::BuildIntHasher;
use rand::Rng;
use std::collections::HashMap;

/// Floyd's algorithm: `k` distinct values uniformly from `0..n`,
/// appended to `out` as `item(value)`. `item` must be injective: the
/// distinctness check compares items.
///
/// The appended order is randomized (the classic algorithm returns a
/// set; we shuffle-insert to make the order usable directly as a
/// sample). Writing into the caller's buffer lets a cluster draw reuse
/// one allocation for every unit.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn floyd_sample<R: Rng + ?Sized, T: PartialEq>(
    rng: &mut R,
    n: u64,
    k: u64,
    out: &mut Vec<T>,
    item: impl Fn(u64) -> T,
) {
    assert!(k <= n, "cannot draw {k} distinct values from 0..{n}");
    let base = out.len();
    out.reserve(k as usize);
    for j in n - k..n {
        let t = item(rng.gen_range(0..=j));
        let drawn = out.len() - base;
        // Insert j at a random position when t is taken, t otherwise,
        // to keep the order uniform.
        let t = if out[base..].contains(&t) { item(j) } else { t };
        let pos = rng.gen_range(0..=drawn);
        out.insert(base + pos, t);
    }
}

/// Streaming without-replacement sampler over `0..n`: a virtual
/// Fisher–Yates shuffle materializing only the touched entries.
///
/// Memory is O(draws so far); each draw is O(1) expected. This is what
/// lets SRS extend a sample one triple at a time over a 100M-triple KG
/// without ever allocating the permutation.
#[derive(Debug, Clone)]
pub struct IncrementalWithoutReplacement {
    n: u64,
    drawn: u64,
    /// The values at touched positions. A draw takes position `drawn`
    /// and writes back only the position it swapped with: an entry below
    /// `drawn` is never read again.
    displaced: HashMap<u64, u64, BuildIntHasher>,
}

impl IncrementalWithoutReplacement {
    /// Sampler over the population `0..n`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        Self {
            n,
            drawn: 0,
            displaced: HashMap::default(),
        }
    }

    /// Number of draws made so far.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Remaining population size.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.n - self.drawn
    }

    /// Makes room for up to `draws` more draws without regrowing, and
    /// returns how many the population still holds of them.
    pub fn reserve(&mut self, draws: u64) -> u64 {
        let draws = draws.min(self.remaining());
        self.displaced.reserve(draws as usize);
        draws
    }

    /// Draws the next distinct value, or `None` when exhausted.
    pub fn next_draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<u64> {
        if self.drawn >= self.n {
            return None;
        }
        let i = self.drawn;
        let j = rng.gen_range(i..self.n);
        let vi = self.displaced.get(&i).copied().unwrap_or(i);
        // Virtual swap positions i and j, then take position i: only
        // position j stays in play.
        let vj = std::mem::replace(self.displaced.entry(j).or_insert(j), vi);
        self.drawn += 1;
        Some(vj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn floyd_produces_distinct_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &(n, k) in &[(10u64, 10u64), (100, 3), (5, 1), (1, 1), (1000, 999)] {
            let mut s = Vec::new();
            floyd_sample(&mut rng, n, k, &mut s, |v| v);
            assert_eq!(s.len(), k as usize);
            let set: HashSet<u64> = s.iter().copied().collect();
            assert_eq!(set.len(), k as usize, "duplicates for n={n}, k={k}");
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn floyd_zero_draws() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s: Vec<u64> = Vec::new();
        floyd_sample(&mut rng, 10, 0, &mut s, |v| v);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn floyd_rejects_oversample() {
        let mut rng = SmallRng::seed_from_u64(3);
        floyd_sample(&mut rng, 3, 4, &mut Vec::new(), |v| v);
    }

    #[test]
    fn floyd_is_uniform() {
        // Every element of 0..6 should appear in a 3-subset with p = 1/2.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = [0u64; 6];
        let reps = 60_000;
        for _ in 0..reps {
            let mut s = Vec::new();
            floyd_sample(&mut rng, 6, 3, &mut s, |v| v);
            for v in s {
                counts[v as usize] += 1;
            }
        }
        for (v, &c) in counts.iter().enumerate() {
            let f = c as f64 / reps as f64;
            assert!((f - 0.5).abs() < 0.01, "element {v}: freq {f}");
        }
    }

    #[test]
    fn incremental_exhausts_population_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = IncrementalWithoutReplacement::new(500);
        let mut seen = HashSet::new();
        while let Some(v) = s.next_draw(&mut rng) {
            assert!(v < 500);
            assert!(seen.insert(v), "value {v} drawn twice");
        }
        assert_eq!(seen.len(), 500);
        assert_eq!(s.remaining(), 0);
        assert!(s.next_draw(&mut rng).is_none());
    }

    #[test]
    fn incremental_first_draw_is_uniform() {
        let reps = 60_000;
        let mut counts = [0u64; 10];
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = IncrementalWithoutReplacement::new(10);
            counts[s.next_draw(&mut rng).unwrap() as usize] += 1;
        }
        for (v, &c) in counts.iter().enumerate() {
            let f = c as f64 / reps as f64;
            assert!((f - 0.1).abs() < 0.01, "value {v}: freq {f}");
        }
    }

    #[test]
    fn incremental_pairwise_inclusion_is_uniform() {
        // Drawing 2 of 5: each unordered pair should appear w.p. 1/10.
        let reps = 50_000u64;
        let mut pair_counts: HashMap<(u64, u64), u64> = HashMap::new();
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = IncrementalWithoutReplacement::new(5);
            let a = s.next_draw(&mut rng).unwrap();
            let b = s.next_draw(&mut rng).unwrap();
            let key = (a.min(b), a.max(b));
            *pair_counts.entry(key).or_default() += 1;
        }
        assert_eq!(pair_counts.len(), 10);
        for (&pair, &c) in &pair_counts {
            let f = c as f64 / reps as f64;
            assert!((f - 0.1).abs() < 0.01, "pair {pair:?}: freq {f}");
        }
    }

    #[test]
    fn incremental_draw_stream_is_pinned() {
        // The first 64 draws for two seeds, one population nearly
        // exhausted and one NELL-sized: a change to the sampler's
        // bookkeeping must not move a single draw.
        let golden: [(u64, u64, [u64; 64]); 2] = [
            (
                1,
                97,
                [
                    78, 72, 11, 73, 21, 59, 95, 54, 16, 20, 90, 40, 18, 46, 4, 27, 61, 7, 93, 69,
                    2, 81, 33, 53, 41, 68, 39, 6, 70, 0, 19, 3, 64, 1, 94, 55, 42, 14, 91, 79, 66,
                    25, 63, 86, 74, 75, 77, 56, 52, 51, 85, 13, 9, 5, 22, 45, 65, 67, 31, 62, 48,
                    49, 38, 35,
                ],
            ),
            (
                0xC0FE,
                1_860,
                [
                    337, 1359, 435, 1336, 485, 1047, 414, 587, 1810, 175, 1435, 143, 107, 182, 347,
                    1414, 461, 120, 384, 1270, 635, 1439, 1635, 277, 1801, 771, 1425, 1050, 1471,
                    1607, 1010, 1287, 1327, 1124, 817, 1161, 1395, 559, 1816, 1617, 381, 982, 963,
                    389, 1190, 253, 261, 857, 1458, 1670, 600, 1229, 778, 1108, 599, 1687, 1611,
                    1462, 205, 1087, 713, 973, 177, 326,
                ],
            ),
        ];
        for (seed, n, want) in golden {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = IncrementalWithoutReplacement::new(n);
            let got: Vec<u64> = (0..64).map(|_| s.next_draw(&mut rng).unwrap()).collect();
            assert_eq!(got, want, "seed {seed:#x}, population {n}");
        }
    }

    #[test]
    fn incremental_memory_tracks_draws_not_population() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut s = IncrementalWithoutReplacement::new(u64::MAX / 2);
        for _ in 0..100 {
            s.next_draw(&mut rng).unwrap();
        }
        assert!(s.displaced.len() <= 100);
    }
}
