//! Dataset presets matching Table 1 of the paper.
//!
//! | dataset   | facts       | clusters  | avg size | μ    | label model |
//! |-----------|-------------|-----------|----------|------|-------------|
//! | YAGO      | 1,386       | 822       | 1.69     | 0.99 | beta-binomial (φ=10) |
//! | NELL      | 1,860       | 817       | 2.28     | 0.91 | beta-binomial (φ=4)  |
//! | DBPEDIA   | 9,344       | 2,936     | 3.18     | 0.85 | beta-binomial (φ=4)  |
//! | FACTBENCH | 2,800       | 1,157     | 2.42     | 0.54 | balanced (negative ρ)|
//! | SYN 100M  | 101,415,011 | 5,000,000 | 20.28    | par. | i.i.d. hashed        |
//!
//! The label models are the substitution documented in `DESIGN.md` §4: the
//! real datasets are crowd-annotated samples we cannot redistribute, so we
//! generate graphs with identical published statistics and intra-cluster
//! label correlation chosen to reproduce each dataset's observed
//! SRS-vs-TWCS behaviour (errors clump inside entities for extracted KGs;
//! FACTBENCH mixes correct and corrupted facts inside each entity).

use crate::bitvec::BitVec;
use crate::compact::{CompactKg, LabelStore};
use crate::hash::mix2;
use crate::ids::ClusterId;
use crate::kg::KnowledgeGraph;
use crate::stratify::Stratification;
use crate::synthetic::{ClusterSizeModel, LabelModel, SyntheticSpec};

/// Beta-binomial concentration used for YAGO (`ρ = 1/(1+φ) ≈ 0.09`).
pub const YAGO_CONCENTRATION: f64 = 10.0;
/// Beta-binomial concentration used for NELL (`ρ = 0.2`).
pub const NELL_CONCENTRATION: f64 = 4.0;
/// Beta-binomial concentration used for DBPEDIA (`ρ = 0.2`).
pub const DBPEDIA_CONCENTRATION: f64 = 4.0;

/// Default generation seed; presets are fully deterministic.
pub const DEFAULT_SEED: u64 = 0x0190_2025;

/// The YAGO sample of Ojha & Talukdar (2017): people/organizations/
/// countries/movies facts, crowd-annotated, `μ = 0.99`.
#[must_use]
pub fn yago() -> CompactKg {
    yago_seeded(DEFAULT_SEED)
}

/// YAGO twin with an explicit seed.
#[must_use]
pub fn yago_seeded(seed: u64) -> CompactKg {
    SyntheticSpec {
        num_triples: 1_386,
        num_clusters: 822,
        size_model: ClusterSizeModel::Geometric {
            mean: 1_386.0 / 822.0,
            max: 30,
        },
        label_model: LabelModel::BetaBinomial {
            accuracy: 0.99,
            concentration: YAGO_CONCENTRATION,
        },
        seed,
        exact_accuracy: true,
    }
    .generate()
}

/// The NELL sports-facts sample of Ojha & Talukdar (2017), `μ = 0.91`.
#[must_use]
pub fn nell() -> CompactKg {
    nell_seeded(DEFAULT_SEED)
}

/// NELL twin with an explicit seed.
#[must_use]
pub fn nell_seeded(seed: u64) -> CompactKg {
    SyntheticSpec {
        num_triples: 1_860,
        num_clusters: 817,
        size_model: ClusterSizeModel::Geometric {
            mean: 1_860.0 / 817.0,
            max: 40,
        },
        label_model: LabelModel::BetaBinomial {
            accuracy: 0.91,
            concentration: NELL_CONCENTRATION,
        },
        seed,
        exact_accuracy: true,
    }
    .generate()
}

/// The DBPEDIA sample of Marchesin et al. (2024): broad-topic facts with
/// quality-weighted majority-vote labels, `μ = 0.85`.
#[must_use]
pub fn dbpedia() -> CompactKg {
    dbpedia_seeded(DEFAULT_SEED)
}

/// DBPEDIA twin with an explicit seed.
#[must_use]
pub fn dbpedia_seeded(seed: u64) -> CompactKg {
    SyntheticSpec {
        num_triples: 9_344,
        num_clusters: 2_936,
        size_model: ClusterSizeModel::Geometric {
            mean: 9_344.0 / 2_936.0,
            max: 60,
        },
        label_model: LabelModel::BetaBinomial {
            accuracy: 0.85,
            concentration: DBPEDIA_CONCENTRATION,
        },
        seed,
        exact_accuracy: true,
    }
    .generate()
}

/// The FACTBENCH benchmark of Gerber et al. (2015): correct facts from
/// DBpedia/Freebase plus per-entity synthesized negatives, `μ = 0.54`
/// (the "quasi-symmetric" controlled scenario).
#[must_use]
pub fn factbench() -> CompactKg {
    factbench_seeded(DEFAULT_SEED)
}

/// FACTBENCH twin with an explicit seed.
#[must_use]
pub fn factbench_seeded(seed: u64) -> CompactKg {
    SyntheticSpec {
        num_triples: 2_800,
        num_clusters: 1_157,
        size_model: ClusterSizeModel::Geometric {
            mean: 2_800.0 / 1_157.0,
            max: 40,
        },
        label_model: LabelModel::Balanced { accuracy: 0.54 },
        seed,
        exact_accuracy: true,
    }
    .generate()
}

/// The simulated predicate table of [`nell_by_predicate`]: NELL sports
/// relations with their triple share and per-predicate accuracy.
///
/// KGEval (Ojha & Talukdar 2017) reports strongly heterogeneous
/// per-relation quality on exactly this slice of NELL; the shares and
/// accuracies here reproduce that shape (popular relations are clean,
/// tail relations rot) at an overall accuracy ≈ 0.89.
pub const NELL_PREDICATES: [(&str, f64, f64); 8] = [
    ("athleteplaysforteam", 0.30, 0.99),
    ("teamplaysincity", 0.20, 0.97),
    ("athleteplayssport", 0.15, 0.95),
    ("coachesteam", 0.10, 0.90),
    ("stadiumlocatedincity", 0.08, 0.85),
    ("athletewonaward", 0.07, 0.70),
    ("teamhomestadium", 0.06, 0.55),
    ("athleteledsportsteam", 0.04, 0.45),
];

/// A NELL-shaped twin with *predicate structure*: the same cluster
/// partition as [`nell`] (817 entities, 1,860 triples), but each triple
/// carries one of the eight [`NELL_PREDICATES`] (share-weighted,
/// deterministic) and its correctness is drawn at that predicate's
/// accuracy. The returned [`Stratification`] is the per-predicate
/// partition — the canonical input for a stratified audit, and the
/// dataset behind the `stratified` benchmark row.
///
/// Unlike [`nell`] (single rate 0.91), per-predicate accuracies span
/// 0.45–0.99, so per-stratum variances differ by an order of magnitude
/// and width-greedy budget allocation visibly beats proportional.
#[must_use]
pub fn nell_by_predicate() -> (CompactKg, Stratification) {
    nell_by_predicate_seeded(DEFAULT_SEED)
}

/// [`nell_by_predicate`] with an explicit seed.
#[must_use]
pub fn nell_by_predicate_seeded(seed: u64) -> (CompactKg, Stratification) {
    let base = nell_seeded(seed);
    let sizes: Vec<u64> = (0..base.num_clusters())
        .map(|c| base.cluster_size(ClusterId(c)))
        .collect();
    let n = base.num_triples();
    let k = NELL_PREDICATES.len();
    let pick_seed = seed ^ 0x5712_A717_F1ED_0001;
    let label_seed = seed ^ 0x5712_A717_F1ED_0002;
    let mut assignment = Vec::with_capacity(n as usize);
    let mut bits = BitVec::zeros(n);
    for t in 0..n {
        let h = if t < k as u64 {
            // Pigeonhole pin: every predicate owns at least one triple,
            // so the stratification is valid for any share table.
            t as usize
        } else {
            // Share-weighted pick from one uniform hash draw.
            let u = (mix2(pick_seed, t) >> 11) as f64 / (1u64 << 53) as f64;
            let mut acc = 0.0;
            let mut chosen = k - 1;
            for (i, (_, share, _)) in NELL_PREDICATES.iter().enumerate() {
                acc += share;
                if u < acc {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        assignment.push(h as u32);
        if crate::hash::hash_bernoulli(label_seed, t, NELL_PREDICATES[h].2) {
            bits.set(t, true);
        }
    }
    let kg = CompactKg::new(&sizes, LabelStore::from_bits(bits));
    let names = NELL_PREDICATES
        .iter()
        .map(|(name, _, _)| (*name).to_string())
        .collect();
    let strat =
        Stratification::from_assignment(names, assignment).expect("pinned strata are nonempty");
    (kg, strat)
}

/// A SYN-style dataset at arbitrary scale (for tests and CI-speed runs).
#[must_use]
pub fn syn_scaled(num_triples: u64, num_clusters: u32, mu: f64, seed: u64) -> CompactKg {
    SyntheticSpec {
        num_triples,
        num_clusters,
        size_model: ClusterSizeModel::LogNormal {
            mean: num_triples as f64 / f64::from(num_clusters),
            sigma: 1.0,
            max: 10_000,
        },
        label_model: LabelModel::Iid { accuracy: mu },
        seed,
        exact_accuracy: false,
    }
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kg::{GroundTruth, KnowledgeGraph};

    #[test]
    fn table1_statistics_match_exactly() {
        let cases: [(&str, CompactKg, u64, u32, f64, f64); 4] = [
            ("YAGO", yago(), 1_386, 822, 1.69, 0.99),
            ("NELL", nell(), 1_860, 817, 2.28, 0.91),
            ("DBPEDIA", dbpedia(), 9_344, 2_936, 3.18, 0.85),
            ("FACTBENCH", factbench(), 2_800, 1_157, 2.42, 0.54),
        ];
        for (name, kg, facts, clusters, avg, mu) in cases {
            assert_eq!(kg.num_triples(), facts, "{name} facts");
            assert_eq!(kg.num_clusters(), clusters, "{name} clusters");
            assert!(
                (kg.avg_cluster_size() - avg).abs() < 0.005,
                "{name} avg cluster size: {}",
                kg.avg_cluster_size()
            );
            assert!(
                (kg.true_accuracy() - mu).abs() < 0.0005,
                "{name} accuracy: {}",
                kg.true_accuracy()
            );
        }
    }

    #[test]
    fn presets_are_reproducible() {
        use crate::ids::TripleId;
        let (a, b) = (nell(), nell());
        for t in (0..a.num_triples()).step_by(11) {
            assert_eq!(a.is_correct(TripleId(t)), b.is_correct(TripleId(t)));
        }
    }

    #[test]
    fn syn_scaled_matches_requested_shape() {
        let kg = syn_scaled(101_415, 5_000, 0.9, 7);
        assert_eq!(kg.num_triples(), 101_415);
        assert_eq!(kg.num_clusters(), 5_000);
        assert!((kg.avg_cluster_size() - 20.283).abs() < 0.001);
        assert_eq!(kg.true_accuracy(), 0.9);
        let measured = kg.measure_accuracy();
        assert!((measured - 0.9).abs() < 0.005, "measured = {measured}");
    }

    #[test]
    fn nell_by_predicate_matches_shape_and_per_stratum_rates() {
        let (kg, strat) = nell_by_predicate();
        assert_eq!(kg.num_triples(), 1_860);
        assert_eq!(kg.num_clusters(), 817);
        assert_eq!(strat.num_triples(), kg.num_triples());
        assert_eq!(strat.num_strata(), 8);
        // Deterministic.
        let (kg2, strat2) = nell_by_predicate();
        assert_eq!(strat.fingerprint(), strat2.fingerprint());
        for t in (0..kg.num_triples()).step_by(13) {
            assert_eq!(
                kg.is_correct(crate::ids::TripleId(t)),
                kg2.is_correct(crate::ids::TripleId(t))
            );
        }
        // Per-stratum realized accuracy tracks the predicate table and
        // the overall accuracy lands near the weighted mean (~0.89).
        for (h, (name, share, rate)) in NELL_PREDICATES.iter().enumerate() {
            let h = h as u32;
            assert_eq!(strat.name(h), *name);
            let members = strat.members(h);
            let correct = members
                .iter()
                .filter(|&&t| kg.is_correct(crate::ids::TripleId(t)))
                .count() as f64;
            let realized = correct / members.len() as f64;
            let se = (rate * (1.0 - rate) / members.len() as f64).sqrt();
            assert!(
                (realized - rate).abs() < 5.0 * se + 0.02,
                "{name}: realized {realized:.3} vs nominal {rate}"
            );
            let realized_share = members.len() as f64 / 1_860.0;
            assert!(
                (realized_share - share).abs() < 0.04,
                "{name}: share {realized_share:.3} vs nominal {share}"
            );
        }
        let expected: f64 = NELL_PREDICATES.iter().map(|(_, s, r)| s * r).sum();
        assert!(
            (kg.true_accuracy() - expected).abs() < 0.03,
            "overall accuracy {} vs expected {expected:.3}",
            kg.true_accuracy()
        );
    }
}
