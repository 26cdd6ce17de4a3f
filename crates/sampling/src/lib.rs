//! # kgae-sampling
//!
//! Sampling strategies and estimators for KG accuracy evaluation
//! (paper §2.4).
//!
//! * [`driver`] — one [`DesignDriver`] per design, each drawing its own
//!   units: [`SrsDriver`] (incremental SRS without replacement over
//!   triples), [`TwcsDriver`] (PPS clusters + capped within-cluster SRS),
//!   [`WcsDriver`] / [`ScsDriver`] (whole-cluster baselines from the
//!   online appendix) and [`StratumSrsDriver`] (SRS within a stratum);
//! * [`estimators`] — the unbiased estimators of Eq. 2/3 with their
//!   variance estimators, plus Kish design effects used to adapt Wilson
//!   and credible intervals to complex designs.
//!
//! ```
//! use kgae_sampling::{estimators::srs_estimate, DesignDriver, SrsDriver};
//! use kgae_graph::GroundTruth;
//! use rand::SeedableRng;
//!
//! let kg = kgae_graph::datasets::yago();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let mut driver = SrsDriver::new(&kg);
//! let mut unit = Vec::new();
//! let mut correct = 0;
//! for _ in 0..30 {
//!     driver.next_unit(&mut rng, &mut unit).unwrap();
//!     if kg.is_correct(unit[0].triple) { correct += 1; }
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

pub use alias::AliasTable;
pub use driver::{
    pps_by_size_table, AllocationPolicy, ComparePrimary, DesignDriver, SampledTriple, ScsDriver,
    SrsDriver, StratumSrsDriver, TwcsDriver, UnitEstimator, WcsDriver,
};
pub use estimators::{
    cluster_estimate, cluster_estimate_from_moments, design_effect, effective_sample_size,
    srs_estimate, Estimate,
};
