//! Property-based tests for the sampling substrate.

use kgae_graph::{GroundTruth, KnowledgeGraph, TripleId};
use kgae_sampling::distinct::floyd_sample;
use kgae_sampling::{
    cluster_estimate, design_effect, srs_estimate, AliasTable, DesignDriver, SrsDriver, TwcsDriver,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Floyd sampling always yields k distinct in-range values.
    #[test]
    fn floyd_distinct_and_in_range(n in 1u64..5000, k_frac in 0.0f64..=1.0, seed in 0u64..1_000) {
        let k = ((n as f64) * k_frac).floor() as u64;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = Vec::new();
        floyd_sample(&mut rng, n, k, &mut s, |v| v);
        prop_assert_eq!(s.len() as u64, k);
        let set: HashSet<_> = s.iter().collect();
        prop_assert_eq!(set.len() as u64, k);
        prop_assert!(s.iter().all(|&v| v < n));
    }

    /// SRS without replacement enumerates the whole population exactly
    /// once regardless of graph shape.
    #[test]
    fn srs_is_a_permutation(
        clusters in 1u32..50,
        mean_size in 1.0f64..5.0,
        seed in 0u64..500,
    ) {
        let triples = ((f64::from(clusters) * mean_size) as u64).max(u64::from(clusters));
        let kg = kgae_graph::datasets::syn_scaled(triples, clusters, 0.5, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut driver = SrsDriver::new(&kg);
        let mut unit = Vec::new();
        let mut seen = HashSet::new();
        while let Some(cluster) = driver.next_unit(&mut rng, &mut unit) {
            let t = unit[0];
            prop_assert!(seen.insert(t.triple), "duplicate draw {:?}", t.triple);
            prop_assert_eq!(kg.cluster_of(t.triple), cluster);
            prop_assert_eq!(t.cluster, cluster);
        }
        prop_assert_eq!(seen.len() as u64, kg.num_triples());
    }

    /// TWCS second-stage size is always min(cluster size, m) and all
    /// triples come from the drawn cluster.
    #[test]
    fn twcs_draw_invariants(
        m in 1u64..8,
        seed in 0u64..500,
    ) {
        let kg = kgae_graph::datasets::syn_scaled(2_000, 400, 0.8, 11);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut driver = TwcsDriver::new(&kg, m);
        let mut triples = Vec::new();
        for _ in 0..20 {
            let cluster = driver.next_unit(&mut rng, &mut triples).unwrap();
            let size = kg.cluster_size(cluster);
            prop_assert_eq!(triples.len() as u64, size.min(m));
            let distinct: HashSet<_> = triples.iter().map(|t| t.triple).collect();
            prop_assert_eq!(distinct.len(), triples.len());
            for t in &triples {
                prop_assert_eq!(kg.cluster_of(t.triple), cluster);
            }
        }
    }

    /// The SRS estimator reproduces the exact population accuracy when
    /// the sample is the whole population.
    #[test]
    fn srs_estimator_census_consistency(
        clusters in 2u32..40,
        mu in 0.0f64..=1.0,
        seed in 0u64..300,
    ) {
        let triples = u64::from(clusters) * 3;
        let kg = kgae_graph::datasets::syn_scaled(triples, clusters, mu, seed);
        let tau = (0..kg.num_triples())
            .filter(|&t| kg.is_correct(TripleId(t)))
            .count() as u64;
        let est = srs_estimate(tau, kg.num_triples());
        prop_assert!((est.mu - kg.measure_accuracy()).abs() < 1e-12);
    }

    /// Alias tables reproduce weights: chi-square-ish bound on the
    /// empirical frequencies of a small random weight vector.
    #[test]
    fn alias_matches_weights(
        raw in prop::collection::vec(0.0f64..10.0, 2..10),
        seed in 0u64..200,
    ) {
        let total: f64 = raw.iter().sum();
        prop_assume!(total > 1.0);
        let table = AliasTable::new(&raw);
        let mut rng = SmallRng::seed_from_u64(seed);
        let draws = 30_000;
        let mut counts = vec![0u64; raw.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        for (i, (&c, &w)) in counts.iter().zip(&raw).enumerate() {
            let p = w / total;
            let freq = c as f64 / draws as f64;
            let se = (p * (1.0 - p) / draws as f64).sqrt();
            prop_assert!(
                (freq - p).abs() < 6.0 * se + 1e-3,
                "cat {i}: freq {freq} vs p {p}"
            );
        }
    }

    /// Design effect is scale-consistent: doubling the variance doubles
    /// deff; deff of the exact SRS variance is 1.
    #[test]
    fn design_effect_scaling(mu in 0.05f64..0.95, n in 10u64..1000, factor in 0.1f64..10.0) {
        let srs_var = mu * (1.0 - mu) / n as f64;
        let est = kgae_sampling::Estimate { mu, variance: srs_var * factor };
        let deff = design_effect(&est, n);
        prop_assert!((deff - factor.clamp(1e-3, 1e3)).abs() < 1e-9);
    }

    /// Cluster estimator equals the plain mean of per-draw estimates.
    #[test]
    fn cluster_estimator_is_mean(means in prop::collection::vec(0.0f64..=1.0, 2..50)) {
        let est = cluster_estimate(&means);
        let mean: f64 = means.iter().sum::<f64>() / means.len() as f64;
        prop_assert!((est.mu - mean).abs() < 1e-12);
        prop_assert!(est.variance >= 0.0);
    }
}
