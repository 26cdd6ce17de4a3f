//! # kgae-sampling
//!
//! Sampling strategies and estimators for KG accuracy evaluation
//! (paper §2.4).
//!
//! * [`SrsSampler`] — incremental Simple Random Sampling without
//!   replacement over triples, O(1) per draw at any KG scale;
//! * [`TwcsSampler`] — Two-stage Weighted Cluster Sampling: PPS clusters
//!   (Walker alias table) + capped within-cluster SRS;
//! * [`ScsSampler`] / [`WcsSampler`] — whole-cluster strategies from the
//!   broader cluster-sampling family (online-appendix baselines);
//! * [`estimators`] — the unbiased estimators of Eq. 2/3 with their
//!   variance estimators, plus Kish design effects used to adapt Wilson
//!   and credible intervals to complex designs.
//!
//! ```
//! use kgae_sampling::{SrsSampler, estimators::srs_estimate};
//! use kgae_graph::GroundTruth;
//! use rand::SeedableRng;
//!
//! let kg = kgae_graph::datasets::yago();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let mut sampler = SrsSampler::new(&kg);
//! let mut correct = 0;
//! for _ in 0..30 {
//!     let t = sampler.next_triple(&mut rng).unwrap();
//!     if kg.is_correct(t.triple) { correct += 1; }
//! }
//! let est = srs_estimate(correct, 30);
//! assert!(est.mu > 0.8); // YAGO is 99% accurate
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alias;
pub mod distinct;
pub mod driver;
pub mod estimators;
mod extra;
mod srs;
mod twcs;

pub use alias::AliasTable;
pub use driver::{
    AllocationPolicy, ComparePrimary, DesignDriver, ScsDriver, SrsDriver, StratumSrsDriver,
    TwcsDriver, UnitEstimator, WcsDriver,
};
pub use estimators::{
    cluster_estimate, cluster_estimate_from_moments, design_effect, effective_sample_size,
    hansen_hurwitz_estimate, srs_estimate, Estimate,
};
pub use extra::{ScsSampler, WcsSampler};
pub use srs::{SampledTriple, SrsSampler};
pub use twcs::{pps_by_size_table, TwcsSampler};
