//! Simple Random Sampling (SRS) over triples (paper §2.4).
//!
//! The iterative evaluation framework draws triples *incrementally* — one
//! more unit whenever the interval is still too wide — so the sampler is a
//! stateful stream of distinct triples rather than a one-shot subset.

use crate::distinct::IncrementalWithoutReplacement;
use kgae_graph::{ClusterId, KnowledgeGraph, TripleId};
use rand::Rng;

/// One sampled triple together with its owning cluster (needed by the
/// annotation cost model, which charges entity identification once per
/// distinct cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledTriple {
    /// The sampled triple.
    pub triple: TripleId,
    /// The entity cluster the triple belongs to.
    pub cluster: ClusterId,
}

/// Incremental SRS-without-replacement over a KG's triples.
#[derive(Debug)]
pub struct SrsSampler<'a, K: KnowledgeGraph + ?Sized> {
    kg: &'a K,
    stream: IncrementalWithoutReplacement,
}

impl<'a, K: KnowledgeGraph + ?Sized> SrsSampler<'a, K> {
    /// Creates a sampler over all triples of `kg`.
    pub fn new(kg: &'a K) -> Self {
        Self {
            kg,
            stream: IncrementalWithoutReplacement::new(kg.num_triples()),
        }
    }

    /// Draws the next triple, or `None` once the KG is exhausted (at which
    /// point the estimate equals the true accuracy and the MoE is zero).
    pub fn next_triple<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<SampledTriple> {
        let t = self.stream.next_draw(rng)?;
        let triple = TripleId(t);
        Some(SampledTriple {
            triple,
            cluster: self.kg.cluster_of(triple),
        })
    }

    /// Makes room for up to `draws` more draws without regrowing, and
    /// returns how many the KG still holds of them.
    pub fn reserve(&mut self, draws: u64) -> u64 {
        self.stream.reserve(draws)
    }

    /// Number of triples drawn so far.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.stream.drawn()
    }

    /// Triples not yet drawn.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.stream.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::compact::{CompactKg, LabelStore};
    use kgae_graph::GroundTruth;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn small_kg() -> CompactKg {
        CompactKg::new(&[3, 1, 4, 2], LabelStore::Hashed { seed: 5, rate: 0.7 })
    }

    #[test]
    fn draws_are_distinct_and_complete() {
        let kg = small_kg();
        let mut s = SrsSampler::new(&kg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        while let Some(st) = s.next_triple(&mut rng) {
            assert!(seen.insert(st.triple));
            assert_eq!(kg.cluster_of(st.triple), st.cluster);
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn sample_mean_is_unbiased() {
        // Average the 5-triple sample proportion over many repetitions;
        // it must match the true accuracy (estimator unbiasedness, Eq. 2).
        let kg = kgae_graph::datasets::nell();
        let mut total = 0.0;
        let reps = 3_000;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = SrsSampler::new(&kg);
            let mut correct = 0u32;
            for _ in 0..5 {
                let st = s.next_triple(&mut rng).unwrap();
                if kg.is_correct(st.triple) {
                    correct += 1;
                }
            }
            total += f64::from(correct) / 5.0;
        }
        let mean = total / reps as f64;
        let se = (0.91 * 0.09 / (5.0 * reps as f64)).sqrt();
        assert!(
            (mean - kg.true_accuracy()).abs() < 5.0 * se,
            "mean = {mean}, true = {}",
            kg.true_accuracy()
        );
    }

    #[test]
    fn per_triple_inclusion_is_uniform() {
        let kg = small_kg();
        let mut counts = vec![0u64; kg.num_triples() as usize];
        let reps = 40_000u64;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut s = SrsSampler::new(&kg);
            for _ in 0..3 {
                counts[s.next_triple(&mut rng).unwrap().triple.index() as usize] += 1;
            }
        }
        for (t, &c) in counts.iter().enumerate() {
            let f = c as f64 / reps as f64;
            assert!((f - 0.3).abs() < 0.015, "triple {t}: inclusion {f}");
        }
    }
}
