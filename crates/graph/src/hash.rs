//! Deterministic 64-bit mixing used for O(1)-memory ground-truth labels.
//!
//! The SYN 100M dataset assigns each triple a correctness label by sampling
//! `Bernoulli(μ)`. Storing 10⁸ booleans is possible but pointless: a
//! high-quality hash of `(seed, triple index)` compared against
//! `μ · 2⁶⁴` yields i.i.d. labels that are reproducible, memory-free, and
//! identical across runs and threads.

pub use kgae_stats::hash::splitmix64;
/// The unseeded integer hasher of the SRS driver's and cost tracker's maps.
pub use kgae_stats::hash::BuildIntHasher;

/// Combines a seed and an index into one avalanche-mixed word.
#[must_use]
#[inline]
pub fn mix2(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

/// Deterministic Bernoulli draw: true with probability `p`.
#[must_use]
#[inline]
pub fn hash_bernoulli(seed: u64, index: u64, p: f64) -> bool {
    // `p * 2^64` as a threshold on the uniform 64-bit hash. The `p = 1.0`
    // case would overflow the mantissa, so handle the endpoints exactly.
    if p >= 1.0 {
        return true;
    }
    if p <= 0.0 {
        return false;
    }
    (mix2(seed, index) as f64) < p * (u64::MAX as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        for i in 0..100u64 {
            assert_eq!(mix2(42, i), mix2(42, i));
            assert_eq!(hash_bernoulli(7, i, 0.5), hash_bernoulli(7, i, 0.5));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let agree = (0..10_000u64)
            .filter(|&i| hash_bernoulli(1, i, 0.5) == hash_bernoulli(2, i, 0.5))
            .count();
        // Two independent fair coins agree ~50% of the time.
        assert!((4_700..5_300).contains(&agree), "agree = {agree}");
    }

    #[test]
    fn bernoulli_rate_is_calibrated() {
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            let n = 200_000u64;
            let hits = (0..n).filter(|&i| hash_bernoulli(123, i, p)).count() as f64;
            let rate = hits / n as f64;
            let se = (p * (1.0 - p) / n as f64).sqrt();
            assert!(
                (rate - p).abs() < 6.0 * se.max(1e-4),
                "p = {p}: rate = {rate}"
            );
        }
    }

    #[test]
    fn bernoulli_endpoints_exact() {
        for i in 0..100u64 {
            assert!(hash_bernoulli(9, i, 1.0));
            assert!(!hash_bernoulli(9, i, 0.0));
        }
    }
}
