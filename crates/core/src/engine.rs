//! The object-safe engine abstraction: one protocol surface for every
//! session kind, and the snapshot **record tag** that lets hosts
//! dispatch on stored bytes instead of caller-chosen entry points.
//!
//! Four engines implement the poll → submit → status → snapshot
//! lifecycle today — the single-design [`EvaluationSession`], the
//! [`StratifiedSession`] coordinator, the multi-method
//! [`ComparativeSession`] and the long-lived
//! [`MonitorSession`] — and session
//! hosts (the `kgae-service` manager, benches, tests) should not care
//! which one they are driving.
//! [`SessionEngine`] captures exactly the surface a host needs, object
//! safely, so a host stores `Box<dyn SessionEngine>` and writes every
//! lifecycle path once:
//!
//! ```
//! use kgae_core::engine::{EngineSpec, SessionEngine};
//! use kgae_core::{EvalConfig, IntervalMethod, PreparedDesign, SamplingDesign};
//! use kgae_graph::GroundTruth;
//!
//! let kg = kgae_graph::datasets::yago();
//! let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
//! let method = IntervalMethod::Wilson;
//! let cfg = EvalConfig::default();
//! let spec = EngineSpec::Plain {
//!     kg: &kg,
//!     prepared: &prepared,
//!     method: &method,
//!     config: &cfg,
//!     seed: 7,
//! };
//! let mut engine: Box<dyn SessionEngine + '_> = spec.build();
//! while let Some(polled) = engine.next_request(16).unwrap() {
//!     let labels: Vec<bool> = polled
//!         .request
//!         .triples
//!         .iter()
//!         .map(|st| kg.is_correct(st.triple))
//!         .collect();
//!     engine.submit(&labels).unwrap();
//! }
//! assert!(engine.status().primary.stopped.is_some());
//! ```
//!
//! ## Snapshot record tags
//!
//! Every suspended engine serializes into the shared `KGAESNAP`
//! container, whose header carries a **record tag**: tags 0–3 are the
//! four single-session designs, tag 4 the stratified coordinator, tag 5
//! the comparative session, tag 6 the continuous accuracy monitor.
//! [`snapshot_engine_kind`] names the engine kind of any record after
//! checking its identity prefix, so a host never guesses an entry
//! point — and [`EngineSpec::resume`] checks the stored kind against
//! the engine the spec denotes *before* any kind-specific parsing,
//! turning a mismatched resume into a clean
//! [`SessionError::SnapshotMismatch`].

use crate::comparative::{ComparativeSession, MethodReport};
use crate::framework::{EvalConfig, EvalResult, PreparedDesign};
use crate::method::IntervalMethod;
use crate::monitor::{DeltaBatch, DeltaOutcome, MonitorReport, MonitorSession};
use crate::session::{
    design_from_tag, read_record_prefix, AnnotationRequest, EvaluationSession, SessionError,
    SessionStatus, StopReason, COMPARATIVE_SNAPSHOT_TAG, MONITOR_SNAPSHOT_TAG,
    STRATIFIED_SNAPSHOT_TAG,
};
use crate::snapshot::{ReadResult, Reader};
use crate::stratified::{StratifiedConfig, StratifiedSession, StratumReport};
use kgae_graph::stratify::Stratification;
use kgae_graph::KnowledgeGraph;
use kgae_intervals::KernelCache;
use kgae_sampling::ComparePrimary;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which engine implementation is behind a [`SessionEngine`] object or
/// a snapshot record tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// A single-design [`EvaluationSession`].
    Plain,
    /// The [`StratifiedSession`] coordinator.
    Stratified,
    /// The multi-method [`ComparativeSession`].
    Comparative,
    /// The long-lived continuous-accuracy
    /// [`MonitorSession`].
    Monitor,
}

impl EngineKind {
    /// Human-readable name (`"plain"`, `"stratified"`,
    /// `"comparative"`, `"monitor"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Plain => "plain",
            EngineKind::Stratified => "stratified",
            EngineKind::Comparative => "comparative",
            EngineKind::Monitor => "monitor",
        }
    }
}

/// A polled annotation batch, with the addressing a host forwards to
/// annotators: stratified engines say which stratum the batch samples.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// The batch itself; labels are owed in this order.
    pub request: AnnotationRequest,
    /// The stratum the batch belongs to (`(index, name)`; stratified
    /// engines only).
    pub stratum: Option<(u32, String)>,
}

/// The unified point-in-time view every engine reports — the
/// session-shaped primary status plus whichever per-row breakdowns the
/// engine kind carries.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatusView {
    /// The engine's headline status: the session status for plain
    /// engines, the pooled view for stratified ones, the primary
    /// method's view for comparative ones.
    pub primary: SessionStatus,
    /// Per-stratum rows (stratified engines only).
    pub strata: Option<Vec<StratumReport>>,
    /// Per-method rows (comparative engines only).
    pub methods: Option<Vec<MethodReport>>,
    /// Monitoring rows — epoch, drift alarms, retirement counters
    /// (monitor engines only).
    pub monitor: Option<MonitorReport>,
}

/// A stopped engine's final outcome, in the same unified shape as
/// [`SessionStatusView`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// Why the engine stopped.
    pub reason: StopReason,
    /// The headline result (pooled for stratified engines, the primary
    /// method's for comparative ones).
    pub result: EvalResult,
    /// Final per-stratum rows (stratified engines only).
    pub strata: Option<Vec<StratumReport>>,
    /// Final per-method rows (comparative engines only).
    pub methods: Option<Vec<MethodReport>>,
}

/// The object-safe protocol surface of an evaluation engine: exactly
/// what a session host needs to drive any campaign kind through its
/// whole lifecycle — poll, submit, observe, suspend, finalize.
///
/// `Send` is a supertrait because the defining use case is a
/// multi-tenant host whose engines hop between worker threads.
pub trait SessionEngine: Send {
    /// Which engine implementation this is.
    fn kind(&self) -> EngineKind;

    /// Whether labels are owed on an outstanding request (a pending
    /// engine cannot snapshot).
    fn has_pending_request(&self) -> bool;

    /// Polls for the next annotation batch (at most `max_units` stage-1
    /// units; engines may serve fewer). `Ok(None)` once the engine has
    /// stopped — [`SessionEngine::status`] carries the reason.
    ///
    /// # Errors
    ///
    /// [`SessionError::RequestPending`] while labels are owed; solver
    /// or stream failures.
    fn next_request(&mut self, max_units: u64) -> Result<Option<EngineRequest>, SessionError>;

    /// Submits labels for the outstanding request, in request order,
    /// advancing the engine and its stopping rule.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`],
    /// [`SessionError::LabelCountMismatch`], or solver failures.
    fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError>;

    /// The unified point-in-time view.
    fn status(&self) -> SessionStatusView;

    /// Withdraws the outstanding request, returning the engine to its
    /// exact pre-draw state by re-drawing its absorbed units from the
    /// starting RNG state: afterwards the engine snapshots cleanly and
    /// a re-poll regenerates the bit-identical batch. This is what lets
    /// a draining server suspend mid-batch sessions to disk without
    /// perturbing their evaluation trajectories.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`] without an outstanding
    /// request.
    fn cancel_request(&mut self) -> Result<(), SessionError>;

    /// The headline status alone — what poll/submit hot paths report —
    /// without materializing per-stratum or per-method rows (every row
    /// costs an interval construction). Identical to
    /// [`SessionEngine::status`]'s `primary` field; engines whose rows
    /// are expensive override the default.
    fn headline(&self) -> SessionStatus {
        self.status().primary
    }

    /// Why the engine stopped, or `None` while it runs.
    fn stop_reason(&self) -> Option<StopReason>;

    /// Serializes the engine into a canonical `KGAESNAP` snapshot from
    /// which [`EngineSpec::resume`] rebuilds its exact state (the record
    /// tag identifies the engine kind; see [`snapshot_engine_kind`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed or
    /// after the engine stopped.
    fn snapshot(&self) -> Result<Vec<u8>, SessionError>;

    /// Consumes a stopped engine into its final outcome (`None` if it
    /// has not stopped).
    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome>;

    /// Applies a KG delta batch — monitor engines only; every other
    /// kind evaluates a frozen KG.
    ///
    /// # Errors
    ///
    /// [`SessionError::DeltasUnsupported`] unless overridden;
    /// [`SessionError::RequestPending`] while labels are owed;
    /// [`SessionError::DeltaRejected`] on an invalid batch.
    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, SessionError> {
        let _ = batch;
        Err(SessionError::DeltasUnsupported)
    }

    /// Attaches the host's shared posterior-kernel cache; subsequent
    /// SRS interval constructions memoize through it. Purely a cost lever — every engine's outputs
    /// (stopping decisions, intervals, snapshot bytes) are bit-identical
    /// with or without a cache attached, so hosts may inject it
    /// unconditionally after `build`/`resume`. Deliberately without a
    /// default body: a new engine kind must decide how the cache reaches
    /// its inner sessions.
    fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>);
}

impl<'a> SessionEngine for EvaluationSession<'a, SmallRng> {
    fn kind(&self) -> EngineKind {
        EngineKind::Plain
    }

    fn has_pending_request(&self) -> bool {
        EvaluationSession::has_pending_request(self)
    }

    fn next_request(&mut self, max_units: u64) -> Result<Option<EngineRequest>, SessionError> {
        Ok(
            EvaluationSession::next_request(self, max_units)?.map(|request| EngineRequest {
                request,
                stratum: None,
            }),
        )
    }

    fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        EvaluationSession::submit(self, labels)
    }

    fn cancel_request(&mut self) -> Result<(), SessionError> {
        EvaluationSession::cancel_request(self)
    }

    fn status(&self) -> SessionStatusView {
        SessionStatusView {
            primary: EvaluationSession::status(self),
            strata: None,
            methods: None,
            monitor: None,
        }
    }

    fn stop_reason(&self) -> Option<StopReason> {
        EvaluationSession::stop_reason(self)
    }

    fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        EvaluationSession::snapshot(self)
    }

    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome> {
        let reason = EvaluationSession::stop_reason(&self)?;
        let result = self.into_result()?;
        Some(EngineOutcome {
            reason,
            result,
            strata: None,
            methods: None,
        })
    }

    fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>) {
        EvaluationSession::set_kernel_cache(self, kernel);
    }
}

// ---------------------------------------------------------------------
// Snapshot record kinds
// ---------------------------------------------------------------------

/// The engine kind a snapshot record belongs to, read from its record
/// tag after checking its identity prefix: the container (magic,
/// version, tag) and the fields each kind leads with — the design and
/// KG shape of a plain record (tags 0–3); the stratum count, KG shape
/// and partition fingerprint of a stratified one (4); the shared-stream
/// design, KG shape, primary and roster size of a comparative one (5);
/// the base KG shape of a monitor (6). A store can
/// thus index and sanity-check dormant records without resuming them;
/// resume still re-validates every fingerprint.
///
/// # Errors
///
/// [`SessionError::SnapshotMismatch`] on an unsupported container
/// version; [`SessionError::CorruptSnapshot`] on bad magic, an unknown
/// record or design tag, or a record cut inside its identity prefix.
pub fn snapshot_engine_kind(bytes: &[u8]) -> Result<EngineKind, SessionError> {
    let mut r = Reader::new(bytes);
    let tag = read_record_prefix(&mut r)?;
    identity_prefix(&mut r, tag).map_err(SessionError::CorruptSnapshot)
}

/// Reads the identity fields that follow record tag `tag`.
fn identity_prefix(r: &mut Reader<'_>, tag: u8) -> ReadResult<EngineKind> {
    let design = |r: &mut Reader<'_>, tag: u8| -> ReadResult<()> {
        let m = r.u64()?;
        design_from_tag(tag, m)
            .map(drop)
            .ok_or("unknown design tag")
    };
    Ok(match tag {
        0..=3 => {
            design(r, tag)?;
            r.u64()?;
            r.u32()?;
            EngineKind::Plain
        }
        STRATIFIED_SNAPSHOT_TAG => {
            r.u64()?;
            r.u64()?;
            r.u32()?;
            r.u64()?;
            EngineKind::Stratified
        }
        COMPARATIVE_SNAPSHOT_TAG => {
            let design_tag = r.u8()?;
            design(r, design_tag)?;
            r.u64()?;
            r.u32()?;
            r.u8()?;
            r.u8()?;
            EngineKind::Comparative
        }
        MONITOR_SNAPSHOT_TAG => {
            r.u64()?;
            r.u32()?;
            EngineKind::Monitor
        }
        _ => return Err("unknown snapshot record tag"),
    })
}

// ---------------------------------------------------------------------
// Engine construction and kind-checked resume
// ---------------------------------------------------------------------

/// Everything needed to construct one engine — fresh or from a
/// snapshot. A host derives the spec from its wire-level session
/// description once and gets a single `build`/`resume` pair instead of
/// per-kind code paths; `resume` checks the snapshot's engine kind
/// ([`snapshot_engine_kind`]) against the spec's before any
/// kind-specific parsing.
///
/// `'k` is the KG borrow the engine keeps; the other references only
/// need to outlive the call.
pub enum EngineSpec<'k, 'r> {
    /// A single-design evaluation session.
    Plain {
        /// The KG under evaluation.
        kg: &'k dyn KnowledgeGraph,
        /// Prebuilt design resources (PPS table shared via `Arc`).
        prepared: &'r PreparedDesign,
        /// The interval method.
        method: &'r IntervalMethod,
        /// The evaluation configuration.
        config: &'r EvalConfig,
        /// RNG seed of the sampling stream.
        seed: u64,
    },
    /// A stratified campaign coordinator.
    Stratified {
        /// The KG under evaluation.
        kg: &'k dyn KnowledgeGraph,
        /// The triple → stratum partition.
        stratification: &'r Stratification,
        /// The interval method of every stratum engine.
        method: &'r IntervalMethod,
        /// The campaign configuration.
        config: &'r StratifiedConfig,
        /// Seed of the per-stratum RNG streams.
        seed: u64,
    },
    /// A comparative multi-method session.
    Comparative {
        /// The KG under evaluation.
        kg: &'k dyn KnowledgeGraph,
        /// Prebuilt resources of the shared-stream design.
        prepared: &'r PreparedDesign,
        /// The method whose convergence stops the shared stream.
        primary: ComparePrimary,
        /// The shared evaluation configuration.
        config: &'r EvalConfig,
        /// RNG seed of the shared sampling stream.
        seed: u64,
    },
    /// A long-lived continuous accuracy monitor (SRS campaigns over a
    /// delta-applying view of the base KG).
    Monitor {
        /// The **base** KG the monitor overlays with deltas.
        kg: &'k dyn KnowledgeGraph,
        /// The interval method of the initial campaign.
        method: &'r IntervalMethod,
        /// The per-campaign evaluation configuration.
        config: &'r EvalConfig,
        /// Cap on the pseudo-observations carried between campaigns.
        carry_weight: f64,
        /// RNG seed the per-epoch sampling streams derive from.
        seed: u64,
    },
}

impl<'k> EngineSpec<'k, '_> {
    /// The engine kind this spec denotes.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        match self {
            EngineSpec::Plain { .. } => EngineKind::Plain,
            EngineSpec::Stratified { .. } => EngineKind::Stratified,
            EngineSpec::Comparative { .. } => EngineKind::Comparative,
            EngineSpec::Monitor { .. } => EngineKind::Monitor,
        }
    }

    /// Constructs a fresh engine.
    #[must_use]
    pub fn build(&self) -> Box<dyn SessionEngine + 'k> {
        match *self {
            EngineSpec::Plain {
                kg,
                prepared,
                method,
                config,
                seed,
            } => Box::new(EvaluationSession::from_prepared(
                kg,
                prepared,
                method,
                config,
                SmallRng::seed_from_u64(seed),
            )),
            EngineSpec::Stratified {
                kg,
                stratification,
                method,
                config,
                seed,
            } => Box::new(StratifiedSession::new(
                kg,
                stratification,
                method,
                config,
                seed,
            )),
            EngineSpec::Comparative {
                kg,
                prepared,
                primary,
                config,
                seed,
            } => Box::new(ComparativeSession::new(kg, prepared, primary, config, seed)),
            EngineSpec::Monitor {
                kg,
                method,
                config,
                carry_weight,
                seed,
            } => Box::new(MonitorSession::new(kg, method, config, carry_weight, seed)),
        }
    }

    /// Reconstructs a suspended engine from a snapshot. The record's
    /// engine kind ([`snapshot_engine_kind`]) is checked against this
    /// spec's kind first, so bytes from a different engine kind fail
    /// with a clean mismatch instead of a parse error deep inside the
    /// wrong decoder; the kind-specific resume then re-validates every
    /// fingerprint (design, KG shape, config, method, partition or
    /// roster).
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotMismatch`] on a kind or fingerprint
    /// mismatch; [`SessionError::CorruptSnapshot`] on malformed bytes.
    pub fn resume(&self, bytes: &[u8]) -> Result<Box<dyn SessionEngine + 'k>, SessionError> {
        self.resume_with_kernel(bytes, None)
    }

    /// [`EngineSpec::resume`] with a host's shared posterior-kernel
    /// cache attached before the engine replays its log, so a monitor's
    /// replayed stopping checks memoize through it (plain, stratified
    /// and comparative replays run no stopping check).
    ///
    /// # Errors
    ///
    /// As [`EngineSpec::resume`].
    pub fn resume_with_kernel(
        &self,
        bytes: &[u8],
        kernel: Option<Arc<KernelCache>>,
    ) -> Result<Box<dyn SessionEngine + 'k>, SessionError> {
        let stored = snapshot_engine_kind(bytes)?;
        if stored != self.kind() {
            return Err(SessionError::SnapshotMismatch(
                "snapshot record tag denotes a different engine kind",
            ));
        }
        let mut engine: Box<dyn SessionEngine + 'k> = match *self {
            EngineSpec::Plain {
                kg,
                prepared,
                method,
                config,
                ..
            } => Box::new(EvaluationSession::resume(
                kg,
                prepared,
                method,
                config,
                SmallRng::seed_from_u64(0),
                bytes,
            )?),
            EngineSpec::Stratified {
                kg,
                stratification,
                method,
                config,
                ..
            } => Box::new(StratifiedSession::resume(
                kg,
                stratification,
                method,
                config,
                bytes,
            )?),
            EngineSpec::Comparative {
                kg,
                prepared,
                primary,
                config,
                ..
            } => Box::new(ComparativeSession::resume(
                kg, prepared, primary, config, bytes,
            )?),
            EngineSpec::Monitor {
                kg,
                method,
                config,
                carry_weight,
                seed,
            } => Box::new(MonitorSession::resume(
                kg,
                method,
                config,
                carry_weight,
                seed,
                kernel.clone(),
                bytes,
            )?),
        };
        if let Some(kernel) = kernel {
            engine.set_kernel_cache(kernel);
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::SamplingDesign;
    use kgae_graph::GroundTruth;

    fn drive_batches(
        kg: &(impl KnowledgeGraph + GroundTruth),
        engine: &mut dyn SessionEngine,
        batches: u64,
        batch: u64,
    ) {
        let mut labels = Vec::new();
        for _ in 0..batches {
            let Some(polled) = engine.next_request(batch).unwrap() else {
                return;
            };
            labels.clear();
            labels.extend(
                polled
                    .request
                    .triples
                    .iter()
                    .map(|st| kg.is_correct(st.triple)),
            );
            engine.submit(&labels).unwrap();
        }
    }

    #[test]
    fn every_engine_kind_round_trips_through_its_record_tag() {
        let kg = kgae_graph::datasets::nell();
        let (pred_kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
        let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let method = IntervalMethod::ahpd_default();
        // ε = 0.01: no engine can converge within the few driven
        // batches, so every one is still snapshottable.
        let cfg = EvalConfig {
            epsilon: 0.01,
            ..EvalConfig::default()
        };
        let strat_cfg = StratifiedConfig {
            epsilon: 0.01,
            ..StratifiedConfig::default()
        };

        let specs: Vec<(EngineSpec<'_, '_>, EngineKind)> = vec![
            (
                EngineSpec::Plain {
                    kg: &kg,
                    prepared: &prepared,
                    method: &method,
                    config: &cfg,
                    seed: 9,
                },
                EngineKind::Plain,
            ),
            (
                EngineSpec::Stratified {
                    kg: &pred_kg,
                    stratification: &strat,
                    method: &method,
                    config: &strat_cfg,
                    seed: 9,
                },
                EngineKind::Stratified,
            ),
            (
                EngineSpec::Comparative {
                    kg: &kg,
                    prepared: &srs,
                    primary: ComparePrimary::AHpd,
                    config: &cfg,
                    seed: 9,
                },
                EngineKind::Comparative,
            ),
            (
                EngineSpec::Monitor {
                    kg: &kg,
                    method: &method,
                    config: &cfg,
                    carry_weight: 50.0,
                    seed: 9,
                },
                EngineKind::Monitor,
            ),
        ];
        for (spec, kind) in &specs {
            assert_eq!(spec.kind(), *kind);
            let mut engine = spec.build();
            assert_eq!(engine.kind(), *kind);
            let driver_kg: &dyn GroundTruthKg = if *kind == EngineKind::Stratified {
                &pred_kg
            } else {
                &kg
            };
            drive_some(driver_kg, engine.as_mut(), 5);
            let snap = engine.snapshot().unwrap();
            // The record tag identifies the bytes without an entry point.
            assert_eq!(snapshot_engine_kind(&snap).unwrap(), *kind);
            // Kind-checked resume reproduces the bytes.
            let resumed = spec.resume(&snap).unwrap();
            assert_eq!(resumed.snapshot().unwrap(), snap);
        }

        // Cross-kind resumes fail on the tag, not deep in a decoder.
        let plain_snap = {
            let spec = &specs[0].0;
            let mut engine = spec.build();
            drive_some(&kg, engine.as_mut(), 3);
            engine.snapshot().unwrap()
        };
        assert!(matches!(
            specs[1].0.resume(&plain_snap),
            Err(SessionError::SnapshotMismatch(
                "snapshot record tag denotes a different engine kind"
            ))
        ));
        assert!(matches!(
            specs[2].0.resume(&plain_snap),
            Err(SessionError::SnapshotMismatch(_))
        ));
        assert!(matches!(
            specs[3].0.resume(&plain_snap),
            Err(SessionError::SnapshotMismatch(_))
        ));

        // Unknown tags are rejected before any resume.
        let mut bad = plain_snap;
        bad[10] = 200;
        assert!(matches!(
            snapshot_engine_kind(&bad),
            Err(SessionError::CorruptSnapshot("unknown snapshot record tag"))
        ));
    }

    /// Object-safe oracle-labeling over any KG: the test drives
    /// `dyn SessionEngine` with `dyn`-compatible KG access too.
    trait GroundTruthKg {
        fn label(&self, triple: kgae_graph::TripleId) -> bool;
    }

    impl<K: KnowledgeGraph + GroundTruth> GroundTruthKg for K {
        fn label(&self, triple: kgae_graph::TripleId) -> bool {
            self.is_correct(triple)
        }
    }

    fn drive_some(kg: &dyn GroundTruthKg, engine: &mut dyn SessionEngine, batches: u64) {
        let mut labels = Vec::new();
        for _ in 0..batches {
            let Some(polled) = engine.next_request(4).unwrap() else {
                return;
            };
            labels.clear();
            labels.extend(polled.request.triples.iter().map(|st| kg.label(st.triple)));
            engine.submit(&labels).unwrap();
        }
    }

    #[test]
    fn headline_matches_the_full_status_for_every_engine_kind() {
        // The hot-path headline must be field-for-field identical to
        // the full view's primary half — cheaper, never different.
        let kg = kgae_graph::datasets::nell();
        let (pred_kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig {
            epsilon: 0.01,
            ..EvalConfig::default()
        };
        let strat_cfg = StratifiedConfig {
            epsilon: 0.01,
            ..StratifiedConfig::default()
        };
        let specs: Vec<EngineSpec<'_, '_>> = vec![
            EngineSpec::Plain {
                kg: &kg,
                prepared: &srs,
                method: &method,
                config: &cfg,
                seed: 4,
            },
            EngineSpec::Stratified {
                kg: &pred_kg,
                stratification: &strat,
                method: &method,
                config: &strat_cfg,
                seed: 4,
            },
            EngineSpec::Comparative {
                kg: &kg,
                prepared: &srs,
                primary: ComparePrimary::AHpd,
                config: &cfg,
                seed: 4,
            },
            EngineSpec::Monitor {
                kg: &kg,
                method: &method,
                config: &cfg,
                carry_weight: 50.0,
                seed: 4,
            },
        ];
        for spec in &specs {
            let mut engine = spec.build();
            let driver_kg: &dyn GroundTruthKg = if spec.kind() == EngineKind::Stratified {
                &pred_kg
            } else {
                &kg
            };
            for _ in 0..4 {
                drive_some(driver_kg, engine.as_mut(), 3);
                assert_eq!(
                    engine.headline(),
                    engine.status().primary,
                    "{} headline diverged from the full status",
                    spec.kind().name()
                );
            }
        }
    }

    #[test]
    fn unified_status_view_carries_the_kind_specific_rows() {
        let kg = kgae_graph::datasets::nell();
        let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let method = IntervalMethod::Wilson;
        let cfg = EvalConfig::default();

        let spec = EngineSpec::Plain {
            kg: &kg,
            prepared: &srs,
            method: &method,
            config: &cfg,
            seed: 1,
        };
        let mut engine = spec.build();
        drive_batches(&kg, engine.as_mut(), 3, 8);
        let view = engine.status();
        assert!(view.strata.is_none() && view.methods.is_none() && view.monitor.is_none());
        assert!(view.primary.observations > 0);
        // Non-monitor engines refuse deltas with a typed error.
        assert!(matches!(
            engine.apply_deltas(&DeltaBatch::default()),
            Err(SessionError::DeltasUnsupported)
        ));

        let spec = EngineSpec::Monitor {
            kg: &kg,
            method: &method,
            config: &cfg,
            carry_weight: 50.0,
            seed: 1,
        };
        let mut engine = spec.build();
        drive_batches(&kg, engine.as_mut(), 3, 8);
        let view = engine.status();
        let report = view.monitor.expect("monitor engines carry monitor rows");
        assert_eq!(report.epoch, 0);
        assert!(view.strata.is_none() && view.methods.is_none());

        let spec = EngineSpec::Comparative {
            kg: &kg,
            prepared: &srs,
            primary: ComparePrimary::Wilson,
            config: &cfg,
            seed: 1,
        };
        let mut engine = spec.build();
        drive_batches(&kg, engine.as_mut(), 3, 8);
        let view = engine.status();
        assert_eq!(view.methods.as_ref().unwrap().len(), 4);
        assert!(view.strata.is_none());

        // Driving a stopped engine through the trait yields its outcome.
        let mut engine = EngineSpec::Plain {
            kg: &kg,
            prepared: &srs,
            method: &method,
            config: &cfg,
            seed: 2,
        }
        .build();
        let mut labels = Vec::new();
        while let Some(polled) = engine.next_request(16).unwrap() {
            labels.clear();
            labels.extend(
                polled
                    .request
                    .triples
                    .iter()
                    .map(|st| kg.is_correct(st.triple)),
            );
            engine.submit(&labels).unwrap();
        }
        let reason = engine.stop_reason().unwrap();
        let outcome = engine.into_outcome().unwrap();
        assert_eq!(outcome.reason, reason);
        assert!(outcome.result.converged);
    }
}
