//! Two-stage Weighted Cluster Sampling (TWCS), paper §2.4.
//!
//! Stage 1 draws an entity cluster with probability proportional to its
//! size (`π_i = M_i / M`), with replacement across draws. Stage 2 draws
//! `min(M_i, m)` triples from the chosen cluster by SRS without
//! replacement. The per-draw estimate is the cluster sample mean `μ̂_i`,
//! and the TWCS estimator is the mean of those (Eq. 3) — unbiased under
//! PPS because the size-biased inclusion cancels against the
//! within-cluster mean.

use crate::alias::AliasTable;
use crate::distinct::floyd_sample;
use crate::srs::SampledTriple;
use kgae_graph::{ClusterId, KnowledgeGraph, TripleId};
use rand::Rng;
use std::sync::Arc;

/// Builds the PPS-by-size alias table of a KG (`π_i = M_i / M`).
///
/// O(#clusters); build it once per dataset and share it across repeated
/// evaluation runs via [`TwcsSampler::with_table`] — rebuilding it per
/// run would dominate the cost on 5M-cluster graphs.
#[must_use]
pub fn pps_by_size_table<K: KnowledgeGraph + ?Sized>(kg: &K) -> AliasTable {
    let weights: Vec<f64> = (0..kg.num_clusters())
        .map(|c| kg.cluster_size(ClusterId(c)) as f64)
        .collect();
    AliasTable::new(&weights)
}

/// TWCS sampler with a precomputed PPS alias table.
#[derive(Debug)]
pub struct TwcsSampler<'a, K: KnowledgeGraph + ?Sized> {
    kg: &'a K,
    alias: Arc<AliasTable>,
    /// Second-stage sample size `m` (the paper uses 3 for the small KGs
    /// and 5 for SYN 100M, per Gao et al.'s recommendation of 3–5).
    m: u64,
}

impl<'a, K: KnowledgeGraph + ?Sized> TwcsSampler<'a, K> {
    /// Builds the sampler; `m` is the second-stage size.
    ///
    /// Building the alias table is O(#clusters); for repeated runs over
    /// the same KG prefer [`Self::with_table`].
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(kg: &'a K, m: u64) -> Self {
        Self::with_table(kg, m, Arc::new(pps_by_size_table(kg)))
    }

    /// Builds the sampler around a shared, prebuilt PPS table.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the table size disagrees with the KG's
    /// cluster count.
    pub fn with_table(kg: &'a K, m: u64, alias: Arc<AliasTable>) -> Self {
        assert!(m > 0, "second-stage size m must be positive");
        assert_eq!(
            alias.len(),
            kg.num_clusters() as usize,
            "alias table does not match the KG"
        );
        Self { kg, alias, m }
    }

    /// Second-stage size `m`.
    #[must_use]
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Performs one full TWCS draw (stage 1 + stage 2): returns the
    /// cluster and replaces `out`'s contents with its second-stage
    /// triples (distinct within the draw).
    pub fn next_cluster<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut Vec<SampledTriple>,
    ) -> ClusterId {
        out.clear();
        let cluster = ClusterId(self.alias.sample(rng));
        let range = self.kg.cluster_triples(cluster);
        let size = range.end - range.start;
        floyd_sample(rng, size, size.min(self.m), out, |off| SampledTriple {
            triple: TripleId(range.start + off),
            cluster,
        });
        cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::datasets;
    use kgae_graph::GroundTruth;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn stage1_is_size_proportional() {
        let kg = kgae_graph::compact::CompactKg::new(
            &[1, 9, 10, 80],
            kgae_graph::compact::LabelStore::Hashed { seed: 1, rate: 1.0 },
        );
        let mut s = TwcsSampler::new(&kg, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u64; 4];
        let mut triples = Vec::new();
        let reps = 200_000;
        for _ in 0..reps {
            counts[s.next_cluster(&mut rng, &mut triples).index() as usize] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            let want = kg.cluster_size(kgae_graph::ClusterId(c as u32)) as f64 / 100.0;
            let got = n as f64 / reps as f64;
            assert!((got - want).abs() < 0.005, "cluster {c}: {got} vs {want}");
        }
    }

    #[test]
    fn stage2_draws_min_of_size_and_m() {
        let kg = datasets::yago(); // clusters of size 1–3 mostly
        let mut s = TwcsSampler::new(&kg, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut triples = Vec::new();
        for _ in 0..500 {
            let cluster = s.next_cluster(&mut rng, &mut triples);
            let size = kg.cluster_size(cluster);
            assert_eq!(triples.len() as u64, size.min(3));
            // Distinct triples, all from the drawn cluster.
            let set: HashSet<_> = triples.iter().map(|t| t.triple).collect();
            assert_eq!(set.len(), triples.len());
            for t in &triples {
                assert_eq!(kg.cluster_of(t.triple), cluster);
            }
        }
    }

    #[test]
    fn estimator_is_unbiased_under_pps() {
        // Mean of cluster sample means over many draws must equal μ even
        // with heavily correlated labels (NELL's beta-binomial model).
        let kg = datasets::nell();
        let mut s = TwcsSampler::new(&kg, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut total = 0.0;
        let mut triples = Vec::new();
        let reps = 60_000;
        for _ in 0..reps {
            s.next_cluster(&mut rng, &mut triples);
            let correct = triples.iter().filter(|t| kg.is_correct(t.triple)).count() as f64;
            total += correct / triples.len() as f64;
        }
        let mean = total / reps as f64;
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.005,
            "TWCS mean = {mean}, μ = {}",
            kg.true_accuracy()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_m_rejected() {
        let kg = datasets::yago();
        let _ = TwcsSampler::new(&kg, 0);
    }
}
