//! The annotation cost model (paper Eq. 12).
//!
//! `cost(G_S) = |E_S| · c1 + |T_S| · c2` — entity identification is paid
//! once per *distinct* entity (cluster), fact verification once per
//! distinct triple. With the paper's constants `c1 = 45 s`, `c2 = 25 s`,
//! this is what makes cluster sampling cheaper per annotation than SRS:
//! TWCS amortizes the 45-second entity identification across up to `m`
//! triples.

use kgae_graph::{ClusterId, TripleId};
use kgae_stats::hash::BuildIntHasher;
use std::collections::HashSet;

/// Cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds to identify one entity (`c1`).
    pub entity_seconds: f64,
    /// Seconds to verify one fact (`c2`).
    pub triple_seconds: f64,
    /// Judgments collected per recorded label (majority-vote panels
    /// multiply the verification effort; entity identification is shared
    /// knowledge and stays per-entity).
    pub judgments_per_label: u64,
}

impl CostModel {
    /// The paper's constants: `c1 = 45 s`, `c2 = 25 s`, one annotator.
    pub const PAPER: CostModel = CostModel {
        entity_seconds: 45.0,
        triple_seconds: 25.0,
        judgments_per_label: 1,
    };
}

/// Incremental tracker of distinct entities/triples and their cost.
#[derive(Debug, Clone)]
pub struct CostTracker {
    model: CostModel,
    entities: HashSet<ClusterId, BuildIntHasher>,
    triples: HashSet<TripleId, BuildIntHasher>,
}

impl CostTracker {
    /// Empty tracker under the given model.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self {
            model,
            entities: HashSet::default(),
            triples: HashSet::default(),
        }
    }

    /// Makes room for `triples` more distinct triples (and as many
    /// entities) without regrowing.
    pub fn reserve(&mut self, triples: u64) {
        self.entities.reserve(triples as usize);
        self.triples.reserve(triples as usize);
    }

    /// Records the annotation of `triple` belonging to `cluster`.
    /// Returns `true` if the triple was new (re-draws of the same triple
    /// under with-replacement cluster sampling cost nothing extra).
    pub fn record(&mut self, triple: TripleId, cluster: ClusterId) -> bool {
        self.entities.insert(cluster);
        self.triples.insert(triple)
    }

    /// Distinct entities identified so far (`|E_S|`).
    #[must_use]
    pub fn entities(&self) -> u64 {
        self.entities.len() as u64
    }

    /// Distinct triples verified so far (`|T_S|`).
    #[must_use]
    pub fn triples(&self) -> u64 {
        self.triples.len() as u64
    }

    /// The cost constants in force.
    #[must_use]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Total cost in seconds (Eq. 12).
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.entities() as f64 * self.model.entity_seconds
            + self.triples() as f64
                * self.model.triple_seconds
                * self.model.judgments_per_label as f64
    }

    /// Total cost in hours (the unit of Tables 3–4 and Figure 4).
    #[must_use]
    pub fn hours(&self) -> f64 {
        self.seconds() / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(CostModel::PAPER.entity_seconds, 45.0);
        assert_eq!(CostModel::PAPER.triple_seconds, 25.0);
    }

    #[test]
    fn eq_12_accounting() {
        let mut t = CostTracker::new(CostModel::PAPER);
        // 3 triples across 2 entities: cost = 2·45 + 3·25 = 165 s.
        assert!(t.record(TripleId(0), ClusterId(0)));
        assert!(t.record(TripleId(1), ClusterId(0)));
        assert!(t.record(TripleId(5), ClusterId(3)));
        assert_eq!(t.entities(), 2);
        assert_eq!(t.triples(), 3);
        assert!((t.seconds() - 165.0).abs() < 1e-12);
        assert!((t.hours() - 165.0 / 3600.0).abs() < 1e-15);
    }

    #[test]
    fn redraws_are_free() {
        let mut t = CostTracker::new(CostModel::PAPER);
        assert!(t.record(TripleId(0), ClusterId(0)));
        assert!(!t.record(TripleId(0), ClusterId(0)));
        assert_eq!(t.triples(), 1);
        assert!((t.seconds() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn entity_amortization_favors_clustering() {
        // 30 triples from 30 entities vs 30 triples from 10 entities.
        let mut srs_like = CostTracker::new(CostModel::PAPER);
        for i in 0..30u64 {
            srs_like.record(TripleId(i), ClusterId(i as u32));
        }
        let mut twcs_like = CostTracker::new(CostModel::PAPER);
        for i in 0..30u64 {
            twcs_like.record(TripleId(i), ClusterId((i / 3) as u32));
        }
        assert!(twcs_like.seconds() < srs_like.seconds());
        assert!((srs_like.seconds() - (30.0 * 45.0 + 30.0 * 25.0)).abs() < 1e-9);
        assert!((twcs_like.seconds() - (10.0 * 45.0 + 30.0 * 25.0)).abs() < 1e-9);
    }

    #[test]
    fn panel_multiplies_verification_only() {
        let mut t = CostTracker::new(CostModel {
            judgments_per_label: 3,
            ..CostModel::PAPER
        });
        t.record(TripleId(0), ClusterId(0));
        t.record(TripleId(1), ClusterId(0));
        // 1 entity · 45 + 2 triples · 25 · 3 = 195.
        assert!((t.seconds() - 195.0).abs() < 1e-12);
    }
}
