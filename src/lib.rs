//! # kgae — Credible Intervals for Knowledge Graph Accuracy Estimation
//!
//! A production-quality Rust implementation of Marchesin & Silvello,
//! *"Credible Intervals for Knowledge Graph Accuracy Estimation"*
//! (SIGMOD 2025): efficient KG accuracy auditing with statistical
//! guarantees, using Bayesian credible intervals and the adaptive HPD
//! (**aHPD**) algorithm instead of the frequentist confidence intervals
//! of prior work.
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`stats`] — special functions, distributions, t-tests;
//! * [`optim`] — the HPD solver's error type and Brent root finding;
//! * [`graph`] — KG model, compact storage, Table-1 dataset twins;
//! * [`sampling`] — SRS / TWCS / WCS / SCS with unbiased estimators and
//!   Kish design effects;
//! * [`intervals`] — Wald, Wilson, Agresti–Coull, Clopper–Pearson, ET
//!   and HPD intervals with Kerman/Jeffreys/Uniform/informative priors;
//! * [`core`] — the iterative evaluation framework, the cost model, the
//!   aHPD algorithm, stratified (per-predicate) campaign coordination,
//!   comparative multi-method campaigns (one annotation stream racing
//!   every interval method), the object-safe `SessionEngine` trait
//!   with its snapshot record tags, and the repeated-run experiment
//!   harness;
//! * [`service`] — the multi-tenant session server: a sharded
//!   `SessionManager` with snapshot-backed persistence behind a
//!   std-only HTTP/1.1 + JSON API (`kgae-serve` binary; the
//!   `kgae-client` crate speaks the same wire format).
//!
//! Architecture, wire-protocol and snapshot-format documentation live
//! in `docs/ARCHITECTURE.md`, `docs/WIRE.md` and `docs/SNAPSHOT.md`.
//!
//! ## Auditing a KG in six lines
//!
//! ```
//! use kgae::prelude::*;
//!
//! let kg = kgae::graph::datasets::dbpedia(); // or your own KG
//! let report = evaluate(
//!     &kg,
//!     &OracleAnnotator,                     // your annotation interface
//!     SamplingDesign::Twcs { m: 3 },        // paper-recommended design
//!     &IntervalMethod::ahpd_default(),      // aHPD over {K, J, U} priors
//!     &EvalConfig::default(),               // α = 0.05, ε = 0.05
//!     7,                                    // seed: same seed, same audit
//! )
//! .unwrap();
//! assert!(report.converged && report.interval.moe() <= 0.05);
//! println!("accuracy = {:.3} ∈ {}", report.mu_hat, report.interval);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use kgae_core as core;
pub use kgae_graph as graph;
pub use kgae_intervals as intervals;
pub use kgae_optim as optim;
pub use kgae_sampling as sampling;
pub use kgae_service as service;
pub use kgae_stats as stats;

/// One-stop imports for typical auditing applications.
pub mod prelude {
    pub use kgae_core::{
        evaluate, repeat_evaluation, AnnotationRequest, Annotator, EvalConfig, EvalResult,
        EvaluationSession, IntervalMethod, OracleAnnotator, SamplingDesign, SessionStatus,
        StopReason,
    };
    pub use kgae_graph::{GroundTruth, InMemoryKg, KnowledgeGraph, Triple};
    pub use kgae_intervals::{BetaPrior, Interval};
}
