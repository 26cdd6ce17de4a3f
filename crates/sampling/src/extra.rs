//! Additional cluster-sampling strategies (the paper's online appendix
//! evaluates strategies beyond SRS/TWCS; these are the standard two).
//!
//! * **SCS** — Simple Cluster Sampling: stage 1 draws clusters uniformly
//!   at random (with replacement), and *every* triple of the chosen
//!   cluster is annotated. Estimation uses the Hansen–Hurwitz estimator
//!   scaled by `N/M`.
//! * **WCS** — Weighted Cluster Sampling: stage 1 draws clusters PPS (like
//!   TWCS) but annotates the whole cluster; the estimator is the plain
//!   mean of full-cluster accuracies.
//!
//! Both annotate entire clusters, which is cheap per entity but can burn
//! many annotations on large clusters — the inefficiency TWCS's capped
//! second stage fixes (Gao et al. 2019).

use crate::alias::AliasTable;
use crate::srs::SampledTriple;
use crate::twcs::pps_by_size_table;
use kgae_graph::{ClusterId, KnowledgeGraph, TripleId};
use rand::Rng;
use std::sync::Arc;

/// Simple Cluster Sampling: uniform clusters, full-cluster annotation.
#[derive(Debug)]
pub struct ScsSampler<'a, K: KnowledgeGraph + ?Sized> {
    kg: &'a K,
}

impl<'a, K: KnowledgeGraph + ?Sized> ScsSampler<'a, K> {
    /// Creates the sampler.
    pub fn new(kg: &'a K) -> Self {
        Self { kg }
    }

    /// Draws one cluster uniformly: returns it and replaces `out`'s
    /// contents with all its triples.
    pub fn next_cluster<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut Vec<SampledTriple>,
    ) -> ClusterId {
        let cluster = ClusterId(rng.gen_range(0..self.kg.num_clusters()));
        full_cluster(self.kg, cluster, out)
    }
}

/// Weighted Cluster Sampling: PPS clusters, full-cluster annotation.
#[derive(Debug)]
pub struct WcsSampler<'a, K: KnowledgeGraph + ?Sized> {
    kg: &'a K,
    alias: Arc<AliasTable>,
}

impl<'a, K: KnowledgeGraph + ?Sized> WcsSampler<'a, K> {
    /// Creates the sampler (builds the PPS alias table).
    pub fn new(kg: &'a K) -> Self {
        Self::with_table(kg, Arc::new(pps_by_size_table(kg)))
    }

    /// Creates the sampler around a shared, prebuilt PPS table.
    ///
    /// # Panics
    ///
    /// Panics if the table size disagrees with the KG's cluster count.
    pub fn with_table(kg: &'a K, alias: Arc<AliasTable>) -> Self {
        assert_eq!(
            alias.len(),
            kg.num_clusters() as usize,
            "alias table does not match the KG"
        );
        Self { kg, alias }
    }

    /// Draws one cluster PPS: returns it and replaces `out`'s contents
    /// with all its triples.
    pub fn next_cluster<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut Vec<SampledTriple>,
    ) -> ClusterId {
        let cluster = ClusterId(self.alias.sample(rng));
        full_cluster(self.kg, cluster, out)
    }
}

fn full_cluster<K: KnowledgeGraph + ?Sized>(
    kg: &K,
    cluster: ClusterId,
    out: &mut Vec<SampledTriple>,
) -> ClusterId {
    out.clear();
    out.extend(kg.cluster_triples(cluster).map(|t| SampledTriple {
        triple: TripleId(t),
        cluster,
    }));
    cluster
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::datasets;
    use kgae_graph::GroundTruth;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn scs_annotates_whole_clusters_uniformly() {
        let kg = datasets::yago();
        let mut s = ScsSampler::new(&kg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut triples = Vec::new();
        for _ in 0..200 {
            let cluster = s.next_cluster(&mut rng, &mut triples);
            assert_eq!(triples.len() as u64, kg.cluster_size(cluster));
        }
    }

    #[test]
    fn wcs_mean_of_cluster_accuracies_is_unbiased() {
        let kg = datasets::dbpedia();
        let mut s = WcsSampler::new(&kg);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut total = 0.0;
        let mut triples = Vec::new();
        let reps = 40_000;
        for _ in 0..reps {
            s.next_cluster(&mut rng, &mut triples);
            let correct = triples.iter().filter(|t| kg.is_correct(t.triple)).count() as f64;
            total += correct / triples.len() as f64;
        }
        let mean = total / reps as f64;
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.005,
            "WCS mean = {mean}"
        );
    }

    #[test]
    fn scs_hansen_hurwitz_is_unbiased() {
        // SCS estimator: μ̂ = (N / (n M)) Σ τ_i with uniform clusters.
        let kg = datasets::factbench();
        let mut s = ScsSampler::new(&kg);
        let mut rng = SmallRng::seed_from_u64(3);
        let scale = f64::from(kg.num_clusters()) / kg.num_triples() as f64;
        let mut total = 0.0;
        let mut triples = Vec::new();
        let reps = 40_000;
        for _ in 0..reps {
            s.next_cluster(&mut rng, &mut triples);
            let tau = triples.iter().filter(|t| kg.is_correct(t.triple)).count() as f64;
            total += scale * tau;
        }
        let mean = total / reps as f64;
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.01,
            "SCS HH mean = {mean}, μ = {}",
            kg.true_accuracy()
        );
    }
}
