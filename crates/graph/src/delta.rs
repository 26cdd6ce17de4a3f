//! A mutable delta overlay over a frozen base KG.
//!
//! Continuous monitoring (paper §8) needs a KG that
//! *changes* between annotation campaigns: production graphs gain and
//! lose triples while an accuracy monitor watches. The base backends
//! ([`crate::InMemoryKg`], [`crate::CompactKg`]) are deliberately
//! immutable, so [`DeltaKg`] layers an overlay on top of any
//! [`KnowledgeGraph`]: a sorted set of *removed* base triple ids plus a
//! tail of *added* triples, each added triple its own singleton entity
//! cluster.
//!
//! ## Id spaces
//!
//! Three id spaces are in play and must never be confused:
//!
//! * **base ids** — positions in the base KG, `0..base.num_triples()`.
//!   Frozen forever.
//! * **current ids** — positions in the overlay view,
//!   `0..self.num_triples()`. Surviving base triples come first in base
//!   order (rank-compacted over the removals), added triples follow in
//!   insertion order. Current ids *shift* whenever a delta is applied.
//! * **[`StableId`]s — the permanent coordinate system.** A surviving
//!   base triple is `Base(base_id)`; an added triple is `Added(serial)`
//!   where serials are handed out once and never reused. A label ledger
//!   keyed by `StableId` never needs remapping across deltas: an entry
//!   simply stops resolving ([`DeltaKg::current_of`] returns `None`)
//!   when its triple is removed.
//!
//! [`DeltaKg::resolve`] and [`DeltaKg::current_of`] convert between the
//! current and stable spaces in `O(log removed)`.
//!
//! The overlay answers every [`KnowledgeGraph`] query arithmetically
//! from the base answer (a base cluster's surviving triples stay
//! contiguous under rank compaction), so applying a delta is
//! `O(batch × log)` and never rebuilds an index. Ground truth for
//! *added* triples is supplied by the caller at insertion time — it is
//! simulation metadata for oracles in benches and tests; the estimation
//! engines never read it.

use std::fmt;
use std::ops::Range;

use crate::ids::{ClusterId, TripleId};
use crate::kg::{GroundTruth, KnowledgeGraph};

/// A delta-proof triple coordinate: stable across any sequence of
/// [`DeltaKg::apply`] calls. Ordered `Base(_) < Added(_)`, matching the
/// current-id layout (survivors first, additions after).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StableId {
    /// A triple of the base KG, by its immutable base id.
    Base(u64),
    /// An added triple, by its never-reused insertion serial.
    Added(u64),
}

/// A rejected delta batch. The overlay validates the whole batch before
/// mutating anything, so an `Err` leaves the view untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// A remove named a current id at or past `num_triples()`.
    RemoveOutOfRange {
        /// The offending current id.
        id: u64,
        /// The view's triple count at validation time.
        len: u64,
    },
    /// The same current id appeared twice in one batch's removes.
    DuplicateRemove {
        /// The repeated current id.
        id: u64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::RemoveOutOfRange { id, len } => {
                write!(f, "remove id {id} out of range for a {len}-triple view")
            }
            DeltaError::DuplicateRemove { id } => {
                write!(f, "current id {id} removed twice in one batch")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// What one [`DeltaKg::apply`] call did, in stable coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedDelta {
    /// Stable ids of the removed triples, in the order the batch named
    /// them (before any shift).
    pub removed: Vec<StableId>,
    /// Serials assigned to the added triples, in batch order.
    pub added_serials: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AddedTriple {
    serial: u64,
    correct: bool,
}

/// A mutable view over a frozen base KG: base triples minus a removal
/// set, plus appended singleton-cluster triples. See the module docs
/// for the id-space contract.
pub struct DeltaKg<'a> {
    base: &'a dyn KnowledgeGraph,
    base_truth: Option<&'a dyn GroundTruth>,
    /// Removed base ids, strictly ascending.
    removed: Vec<u64>,
    /// Added triples, strictly ascending by serial (append-only).
    added: Vec<AddedTriple>,
    next_serial: u64,
    /// Correct triples in the full base KG (0 without ground truth).
    base_true: u64,
    /// Correct base triples since removed (0 without ground truth).
    removed_true: u64,
    /// Correct triples among the current additions.
    added_true: u64,
}

impl fmt::Debug for DeltaKg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaKg")
            .field("base_triples", &self.base.num_triples())
            .field("removed", &self.removed.len())
            .field("added", &self.added.len())
            .field("next_serial", &self.next_serial)
            .finish_non_exhaustive()
    }
}

impl<'a> DeltaKg<'a> {
    /// An empty overlay (a transparent view of `base`) without ground
    /// truth. [`GroundTruth`] queries on base triples panic; use
    /// [`DeltaKg::with_truth`] when oracles must label the view.
    #[must_use]
    pub fn new(base: &'a dyn KnowledgeGraph) -> Self {
        Self {
            base,
            base_truth: None,
            removed: Vec::new(),
            added: Vec::new(),
            next_serial: 0,
            base_true: 0,
            removed_true: 0,
            added_true: 0,
        }
    }

    /// An empty overlay that forwards [`GroundTruth`] queries on
    /// surviving base triples to `truth`. `base` and `truth` are
    /// usually the same object presented through both traits.
    #[must_use]
    pub fn with_truth(base: &'a dyn KnowledgeGraph, truth: &'a dyn GroundTruth) -> Self {
        let n = base.num_triples();
        // Recovers the exact correct-triple count when the base stores
        // accuracy as count/n (every backend in this workspace does).
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let base_true = (truth.true_accuracy() * n as f64).round() as u64;
        Self {
            base_truth: Some(truth),
            base_true,
            ..Self::new(base)
        }
    }

    /// The frozen base KG this view overlays.
    #[must_use]
    pub fn base(&self) -> &'a dyn KnowledgeGraph {
        self.base
    }

    /// Surviving base triples — also the current id where additions
    /// start.
    #[must_use]
    pub fn survivors(&self) -> u64 {
        self.base.num_triples() - self.removed.len() as u64
    }

    /// The additions as `(serial, correct)` pairs, strictly ascending
    /// by serial.
    pub fn added_entries(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.added.iter().map(|a| (a.serial, a.correct))
    }

    /// The serial the next addition will receive.
    #[must_use]
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }

    /// Removed base ids `< base_id`.
    fn removed_before(&self, base_id: u64) -> u64 {
        self.removed.partition_point(|&x| x < base_id) as u64
    }

    /// Base id of the survivor with the given current rank.
    /// `removed[i] - i` is non-decreasing over the strictly ascending
    /// removal set, so the smallest `k` with `removed[k] - k > rank`
    /// is a binary search; the survivor is then `rank + k`.
    fn unrank(&self, rank: u64) -> u64 {
        let (mut lo, mut hi) = (0usize, self.removed.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.removed[mid] - mid as u64 <= rank {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        rank + lo as u64
    }

    /// The stable id behind a current id.
    ///
    /// # Panics
    /// If `current >= self.num_triples()`.
    #[must_use]
    pub fn resolve(&self, current: u64) -> StableId {
        let s = self.survivors();
        if current < s {
            StableId::Base(self.unrank(current))
        } else {
            let j = usize::try_from(current - s).expect("current id fits usize");
            StableId::Added(self.added.get(j).expect("current id in range").serial)
        }
    }

    /// The current id of a stable triple, or `None` if it has been
    /// removed (or never existed in this view).
    #[must_use]
    pub fn current_of(&self, id: StableId) -> Option<u64> {
        match id {
            StableId::Base(b) => {
                if b >= self.base.num_triples() {
                    return None;
                }
                let k = self.removed_before(b);
                if self.removed.get(usize::try_from(k).ok()?) == Some(&b) {
                    None
                } else {
                    Some(b - k)
                }
            }
            StableId::Added(serial) => self
                .added
                .binary_search_by_key(&serial, |a| a.serial)
                .ok()
                .map(|j| self.survivors() + j as u64),
        }
    }

    /// Whether [`DeltaKg::apply`] would accept `removes` against the
    /// current view: no id named twice, none out of range. Adds are
    /// always valid, so this is the whole of `apply`'s validation.
    pub fn check_removes(&self, removes: &[u64]) -> Result<(), DeltaError> {
        let n = self.num_triples();
        let mut seen = removes.to_vec();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateRemove { id: w[0] });
        }
        if let Some(&id) = seen.last().filter(|&&id| id >= n) {
            return Err(DeltaError::RemoveOutOfRange { id, len: n });
        }
        Ok(())
    }

    /// Applies one delta batch: `removes` are **current** ids (resolved
    /// against the pre-batch view, so a batch may freely name ids that
    /// a same-batch remove would shift); `adds` are ground-truth
    /// correctness flags for brand-new singleton-cluster triples.
    /// Validates everything ([`DeltaKg::check_removes`]) before
    /// mutating; an `Err` changes nothing.
    pub fn apply(&mut self, removes: &[u64], adds: &[bool]) -> Result<AppliedDelta, DeltaError> {
        self.check_removes(removes)?;
        let stable: Vec<StableId> = removes.iter().map(|&r| self.resolve(r)).collect();
        let mut ordered = stable.clone();
        ordered.sort_unstable();
        for id in ordered {
            match id {
                StableId::Base(b) => {
                    let k = usize::try_from(self.removed_before(b)).expect("fits usize");
                    self.removed.insert(k, b);
                    if let Some(t) = self.base_truth {
                        if t.is_correct(TripleId(b)) {
                            self.removed_true += 1;
                        }
                    }
                }
                StableId::Added(serial) => {
                    let j = self
                        .added
                        .binary_search_by_key(&serial, |a| a.serial)
                        .expect("resolved addition exists");
                    if self.added.remove(j).correct {
                        self.added_true -= 1;
                    }
                }
            }
        }
        let mut added_serials = Vec::with_capacity(adds.len());
        for &correct in adds {
            let serial = self.next_serial;
            self.next_serial += 1;
            self.added.push(AddedTriple { serial, correct });
            self.added_true += u64::from(correct);
            added_serials.push(serial);
        }
        Ok(AppliedDelta {
            removed: stable,
            added_serials,
        })
    }
}

impl KnowledgeGraph for DeltaKg<'_> {
    fn num_triples(&self) -> u64 {
        self.survivors() + self.added.len() as u64
    }

    fn num_clusters(&self) -> u32 {
        self.base.num_clusters() + u32::try_from(self.added.len()).expect("additions fit u32")
    }

    fn cluster_size(&self, cluster: ClusterId) -> u64 {
        let r = self.cluster_triples(cluster);
        r.end - r.start
    }

    fn cluster_triples(&self, cluster: ClusterId) -> Range<u64> {
        let base_clusters = self.base.num_clusters();
        if cluster.index() < base_clusters {
            // Survivors of a contiguous base range stay contiguous
            // under rank compaction (possibly empty).
            let r = self.base.cluster_triples(cluster);
            (r.start - self.removed_before(r.start))..(r.end - self.removed_before(r.end))
        } else {
            let j = u64::from(cluster.index() - base_clusters);
            let start = self.survivors() + j;
            start..start + 1
        }
    }

    fn cluster_of(&self, triple: TripleId) -> ClusterId {
        let s = self.survivors();
        if triple.index() < s {
            self.base.cluster_of(TripleId(self.unrank(triple.index())))
        } else {
            let j = u32::try_from(triple.index() - s).expect("additions fit u32");
            ClusterId(self.base.num_clusters() + j)
        }
    }
}

impl GroundTruth for DeltaKg<'_> {
    /// # Panics
    /// For surviving base triples when the overlay was built without
    /// ground truth ([`DeltaKg::new`]).
    fn is_correct(&self, triple: TripleId) -> bool {
        let s = self.survivors();
        if triple.index() < s {
            self.base_truth
                .expect("DeltaKg built without ground truth; use with_truth")
                .is_correct(TripleId(self.unrank(triple.index())))
        } else {
            let j = usize::try_from(triple.index() - s).expect("fits usize");
            self.added[j].correct
        }
    }

    fn true_accuracy(&self) -> f64 {
        let n = self.num_triples();
        if n == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            ((self.base_true - self.removed_true + self.added_true) as f64) / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryKgBuilder;
    use crate::InMemoryKg;

    fn tiny() -> InMemoryKg {
        // Clusters: a = {0,1,2}, b = {3}, c = {4,5}. Correct: 0,2,3,5.
        let mut b = InMemoryKgBuilder::new();
        for (s, o, correct) in [
            ("a", "x", true),
            ("a", "y", false),
            ("a", "z", true),
            ("b", "x", true),
            ("c", "x", false),
            ("c", "y", true),
        ] {
            b.add_fact(s, "p", o, correct);
        }
        b.build()
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let base = tiny();
        let kg = DeltaKg::with_truth(&base, &base);
        assert_eq!(kg.num_triples(), base.num_triples());
        assert_eq!(kg.num_clusters(), base.num_clusters());
        for t in 0..base.num_triples() {
            assert_eq!(kg.cluster_of(TripleId(t)), base.cluster_of(TripleId(t)));
            assert_eq!(kg.is_correct(TripleId(t)), base.is_correct(TripleId(t)));
            assert_eq!(kg.resolve(t), StableId::Base(t));
            assert_eq!(kg.current_of(StableId::Base(t)), Some(t));
        }
        for c in 0..base.num_clusters() {
            assert_eq!(
                kg.cluster_triples(ClusterId(c)),
                base.cluster_triples(ClusterId(c))
            );
        }
        assert!((kg.true_accuracy() - base.true_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn removals_compact_ranks_and_retire_stable_ids() {
        let base = tiny();
        let mut kg = DeltaKg::with_truth(&base, &base);
        // Remove current ids 1 and 4 (base 1 and 4).
        let applied = kg.apply(&[1, 4], &[]).unwrap();
        assert_eq!(applied.removed, vec![StableId::Base(1), StableId::Base(4)]);
        assert_eq!(kg.num_triples(), 4);
        // Survivor order: base 0, 2, 3, 5 at current 0..4.
        for (cur, b) in [(0u64, 0u64), (1, 2), (2, 3), (3, 5)] {
            assert_eq!(kg.resolve(cur), StableId::Base(b));
            assert_eq!(kg.current_of(StableId::Base(b)), Some(cur));
            assert_eq!(kg.is_correct(TripleId(cur)), base.is_correct(TripleId(b)));
        }
        assert_eq!(kg.current_of(StableId::Base(1)), None);
        assert_eq!(kg.current_of(StableId::Base(4)), None);
        // Cluster a = {0,1}, b = {2}, c = {3}; contiguous, sizes sum.
        assert_eq!(kg.cluster_triples(ClusterId(0)), 0..2);
        assert_eq!(kg.cluster_triples(ClusterId(1)), 2..3);
        assert_eq!(kg.cluster_triples(ClusterId(2)), 3..4);
        assert_eq!(kg.cluster_of(TripleId(3)), ClusterId(2));
        // Removed base 1 (incorrect) and 4 (incorrect): 4 of 4 correct.
        assert!((kg.true_accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn additions_are_singleton_tail_clusters() {
        let base = tiny();
        let mut kg = DeltaKg::with_truth(&base, &base);
        let applied = kg.apply(&[], &[true, false]).unwrap();
        assert_eq!(applied.added_serials, vec![0, 1]);
        assert_eq!(kg.num_triples(), 8);
        assert_eq!(kg.num_clusters(), 5);
        assert_eq!(kg.resolve(6), StableId::Added(0));
        assert_eq!(kg.cluster_of(TripleId(7)), ClusterId(4));
        assert_eq!(kg.cluster_triples(ClusterId(4)), 7..8);
        assert_eq!(kg.cluster_size(ClusterId(3)), 1);
        assert!(kg.is_correct(TripleId(6)));
        assert!(!kg.is_correct(TripleId(7)));
        assert!((kg.true_accuracy() - 5.0 / 8.0).abs() < 1e-12);

        // Removing an added triple retires its serial forever.
        kg.apply(&[6], &[]).unwrap();
        assert_eq!(kg.current_of(StableId::Added(0)), None);
        assert_eq!(kg.current_of(StableId::Added(1)), Some(6));
        let again = kg.apply(&[], &[true]).unwrap();
        assert_eq!(again.added_serials, vec![2]);
    }

    #[test]
    fn batch_validation_rejects_without_mutating() {
        let base = tiny();
        let mut kg = DeltaKg::with_truth(&base, &base);
        assert_eq!(
            kg.apply(&[2, 2], &[true]),
            Err(DeltaError::DuplicateRemove { id: 2 })
        );
        assert_eq!(
            kg.apply(&[6], &[]),
            Err(DeltaError::RemoveOutOfRange { id: 6, len: 6 })
        );
        assert_eq!(kg.num_triples(), 6);
        assert_eq!(kg.next_serial(), 0);
    }

    #[test]
    fn heavy_churn_keeps_id_maps_inverse() {
        let base = crate::datasets::yago();
        let mut kg = DeltaKg::new(&base);
        let mut serial_expect = 0u64;
        for round in 0u64..5 {
            let n = kg.num_triples();
            let removes: Vec<u64> = (0..n).filter(|t| t % 7 == round % 7).take(40).collect();
            let adds = vec![true; 10];
            let applied = kg.apply(&removes, &adds).unwrap();
            assert_eq!(applied.removed.len(), removes.len());
            serial_expect += 10;
            assert_eq!(kg.next_serial(), serial_expect);
            for t in (0..kg.num_triples()).step_by(13) {
                assert_eq!(kg.current_of(kg.resolve(t)), Some(t));
            }
            // Cluster ranges partition 0..n exactly.
            let mut cursor = 0u64;
            for c in 0..kg.num_clusters() {
                let r = kg.cluster_triples(ClusterId(c));
                assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            assert_eq!(cursor, kg.num_triples());
        }
    }
}
