//! # kgae-core
//!
//! The paper's primary contribution, end to end: the iterative KG
//! accuracy-evaluation framework (Figure 1) with Margin-of-Error
//! stopping, the annotation cost model (Eq. 12), the full set of interval
//! methods, and the **adaptive HPD (aHPD)** algorithm (Algorithm 1) that
//! removes prior selection by racing multiple priors and stopping on the
//! first sufficiently narrow HPD interval.
//!
//! ## Quick start
//!
//! ```
//! use kgae_core::prelude::*;
//! use rand::SeedableRng;
//!
//! // Audit a synthetic twin of the NELL sample with aHPD + TWCS —
//! // the paper's recommended configuration.
//! let kg = kgae_graph::datasets::nell();
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let result = evaluate(
//!     &kg,
//!     &OracleAnnotator,
//!     SamplingDesign::Twcs { m: 3 },
//!     &IntervalMethod::ahpd_default(),
//!     &EvalConfig::default(),
//!     &mut rng,
//! )
//! .unwrap();
//! assert!(result.converged);
//! assert!(result.interval.moe() <= 0.05);
//! assert!((result.mu_hat - 0.91).abs() < 0.15);
//! ```
//!
//! ## Module map
//!
//! | module | paper element |
//! |--------|---------------|
//! | [`session`] | the Figure 1 loop inverted into a poll-based engine |
//! | [`framework`] | the legacy closed-loop facade + stopping rule |
//! | [`ahpd`] | Algorithm 1 (lines 10–24) |
//! | [`method`] | Wald / Wilson / ET / HPD / aHPD dispatch |
//! | [`state`] | sufficient statistics + design-effect adjustment |
//! | [`cost`] | Eq. 12 cost model (c1 = 45 s, c2 = 25 s) |
//! | [`annotator`] | oracle / noisy / majority-vote panels (§6.5) |
//! | [`runner`] | 1000-repetition parallel harness + t-tests |
//! | [`coverage`] | exact fixed-n coverage probabilities (§3.3 ablation) |
//! | [`dynamic`] | carryover-prior kernel (§8); one-shot driver deprecated for [`monitor`] |
//! | [`monitor`] | continuous monitoring engine over KG delta batches |
//! | [`report`] | table rendering for the experiment binaries |

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ahpd;
pub mod annotator;
pub mod comparative;
pub mod cost;
pub mod coverage;
pub mod dynamic;
pub mod engine;
pub mod framework;
pub mod method;
pub mod monitor;
pub mod report;
pub mod runner;
pub mod session;
mod snapshot;
pub mod state;
pub mod stratified;

pub use ahpd::{ahpd_select, AHpdSelection};
pub use annotator::{Annotator, MajorityVoteAnnotator, NoisyAnnotator, OracleAnnotator};
pub use comparative::{
    compared_methods, peek_comparative_header, ComparativeResult, ComparativeSession,
    ComparativeSnapshotHeader, ComparativeStatus, MethodReport,
};
pub use cost::{CostModel, CostTracker};
pub use engine::{
    peek_any_header, peek_record_tag, snapshot_engine_kind, AnyHeader, EngineKind, EngineOutcome,
    EngineRequest, EngineSpec, SessionEngine, SessionStatusView,
};
pub use framework::{
    evaluate, evaluate_prepared, EvalConfig, EvalResult, PreparedDesign, SamplingDesign,
    StoppingPolicy,
};
pub use method::{IntervalMethod, MethodParseError, MethodState};
pub use monitor::{
    peek_monitor_header, DeltaBatch, DeltaOutcome, DriftReport, MonitorReport, MonitorSession,
    MonitorSnapshotHeader,
};
pub use runner::{cost_t_test, repeat_evaluation, triples_t_test, RepeatedRuns};
pub use session::{
    AnnotationRequest, EvaluationSession, SessionError, SessionStatus, SnapshotHeader, SnapshotRng,
    StopReason,
};
pub use state::{DesignKind, EffectiveSample, SampleState};
pub use stratified::{
    StratifiedConfig, StratifiedRequest, StratifiedResult, StratifiedSession,
    StratifiedSnapshotHeader, StratifiedStatus, StratumReport,
};

/// Common imports for applications.
pub mod prelude {
    pub use crate::annotator::OracleAnnotator;
    pub use crate::framework::{evaluate, EvalConfig, EvalResult, SamplingDesign};
    pub use crate::method::IntervalMethod;
    pub use crate::runner::repeat_evaluation;
    pub use kgae_intervals::BetaPrior;
}
