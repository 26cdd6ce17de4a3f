//! The knowledge-graph abstraction the evaluation framework samples from.
//!
//! Following the paper's formalization (§2.1), a KG `G = (V, R, T, η)` is
//! reduced — for accuracy-estimation purposes — to its ternary relation
//! `T` partitioned into entity clusters `C_e = {(s,p,o) ∈ T | s = e}`.
//! Sampling strategies only ever need:
//!
//! * the total number of triples `M = |T|`,
//! * the cluster partition (sizes + triple membership), and
//! * an annotation oracle for ground-truth correctness labels.
//!
//! Triples are stored *grouped by cluster*: cluster `c` owns the contiguous
//! id range `[offsets[c], offsets[c+1])`. This makes `cluster → triples` a
//! range, `triple → cluster` a binary search, and keeps the 100M-triple
//! dataset representable with one `Vec<u64>` of cluster offsets.

use crate::ids::{ClusterId, TripleId};
use std::ops::Range;

/// Structural view of a KG: triple count and entity-cluster partition.
///
/// **Object safety is part of this trait's contract**: the evaluation
/// engine (`kgae-core`'s `EvaluationSession`) and the sampling drivers
/// hold backends as `&dyn KnowledgeGraph`, so any backend — in-memory,
/// compact, mmap'd, remote — plugs in behind one pointer. Do not add
/// generic methods here; a compile-time assertion below enforces this.
pub trait KnowledgeGraph: Send + Sync {
    /// Total number of triples `M`.
    fn num_triples(&self) -> u64;

    /// Number of entity clusters `N`.
    fn num_clusters(&self) -> u32;

    /// Size `M_i` of cluster `i`.
    fn cluster_size(&self, c: ClusterId) -> u64;

    /// The contiguous triple-id range owned by cluster `c`.
    fn cluster_triples(&self, c: ClusterId) -> Range<u64>;

    /// The cluster owning triple `t`.
    fn cluster_of(&self, t: TripleId) -> ClusterId;

    /// Mean cluster size `M / N`.
    fn avg_cluster_size(&self) -> f64 {
        self.num_triples() as f64 / self.num_clusters() as f64
    }
}

/// Ground-truth correctness oracle.
///
/// In the paper this is the human annotation; here it reads the simulated
/// gold labels. Kept separate from [`KnowledgeGraph`] so annotator models
/// (oracle, noisy) can wrap it without touching the structure.
pub trait GroundTruth: Send + Sync {
    /// Gold label of triple `t` (`true` = correct fact).
    fn is_correct(&self, t: TripleId) -> bool;

    /// The true accuracy `μ` (Eq. 1). For generated datasets this is the
    /// exact proportion of correct triples; evaluation code may use it
    /// only for reporting, never for estimation.
    fn true_accuracy(&self) -> f64;
}

// Compile-time guard: both traits must stay usable as trait objects —
// the session engine and the design drivers depend on it. Adding a
// generic method to either trait fails here, at the source, instead of
// deep inside kgae-core.
const _: fn(&dyn KnowledgeGraph, &dyn GroundTruth) = |_, _| {};

/// Cluster partition stored as prefix offsets.
///
/// `offsets.len() == num_clusters + 1`, `offsets[0] == 0`, and
/// `offsets[c+1] - offsets[c]` is the size of cluster `c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterIndex {
    offsets: Vec<u64>,
}

impl ClusterIndex {
    /// Builds the index from per-cluster sizes.
    ///
    /// # Panics
    ///
    /// Panics if any cluster is empty (the paper's clusters are nonempty by
    /// construction: a cluster exists because its subject has triples) or
    /// if there are more than `u32::MAX` clusters.
    #[must_use]
    pub fn from_sizes(sizes: &[u64]) -> Self {
        assert!(
            u32::try_from(sizes.len()).is_ok(),
            "too many clusters for ClusterId"
        );
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for (i, &s) in sizes.iter().enumerate() {
            assert!(s > 0, "cluster {i} is empty");
            acc += s;
            offsets.push(acc);
        }
        Self { offsets }
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Total number of triples.
    #[must_use]
    pub fn num_triples(&self) -> u64 {
        *self.offsets.last().expect("offsets always nonempty")
    }

    /// Size of cluster `c`.
    #[must_use]
    #[inline]
    pub fn size(&self, c: ClusterId) -> u64 {
        let i = c.index() as usize;
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Triple-id range of cluster `c`.
    #[must_use]
    #[inline]
    pub fn range(&self, c: ClusterId) -> Range<u64> {
        let i = c.index() as usize;
        self.offsets[i]..self.offsets[i + 1]
    }

    /// Cluster owning triple `t` (binary search over the offsets).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn cluster_of(&self, t: TripleId) -> ClusterId {
        let idx = t.index();
        assert!(idx < self.num_triples(), "triple {t} out of range");
        // partition_point returns the count of offsets <= idx, so the
        // owning cluster is that count minus one.
        let c = self.offsets.partition_point(|&o| o <= idx) - 1;
        ClusterId(c as u32)
    }

    /// Heap memory used, in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sizes_basic_layout() {
        let ix = ClusterIndex::from_sizes(&[2, 1, 3]);
        assert_eq!(ix.num_clusters(), 3);
        assert_eq!(ix.num_triples(), 6);
        assert_eq!(ix.size(ClusterId(0)), 2);
        assert_eq!(ix.size(ClusterId(1)), 1);
        assert_eq!(ix.size(ClusterId(2)), 3);
        assert_eq!(ix.range(ClusterId(0)), 0..2);
        assert_eq!(ix.range(ClusterId(1)), 2..3);
        assert_eq!(ix.range(ClusterId(2)), 3..6);
    }

    #[test]
    fn cluster_of_covers_every_triple() {
        let sizes = [3u64, 1, 5, 2, 7];
        let ix = ClusterIndex::from_sizes(&sizes);
        let mut expect = Vec::new();
        for (c, &s) in sizes.iter().enumerate() {
            for _ in 0..s {
                expect.push(c as u32);
            }
        }
        for t in 0..ix.num_triples() {
            assert_eq!(
                ix.cluster_of(TripleId(t)).index(),
                expect[t as usize],
                "triple {t}"
            );
        }
    }

    #[test]
    fn boundaries_resolve_to_owning_cluster() {
        let ix = ClusterIndex::from_sizes(&[1, 1, 1]);
        assert_eq!(ix.cluster_of(TripleId(0)), ClusterId(0));
        assert_eq!(ix.cluster_of(TripleId(1)), ClusterId(1));
        assert_eq!(ix.cluster_of(TripleId(2)), ClusterId(2));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_cluster_rejected() {
        let _ = ClusterIndex::from_sizes(&[2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_triple_panics() {
        let ix = ClusterIndex::from_sizes(&[2]);
        let _ = ix.cluster_of(TripleId(2));
    }

    #[test]
    fn singleton_graph() {
        let ix = ClusterIndex::from_sizes(&[1]);
        assert_eq!(ix.num_clusters(), 1);
        assert_eq!(ix.num_triples(), 1);
        assert_eq!(ix.cluster_of(TripleId(0)), ClusterId(0));
    }
}
