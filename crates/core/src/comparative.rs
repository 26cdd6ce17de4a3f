//! Comparative multi-method evaluation: one annotation stream, every
//! interval method, live counterfactuals.
//!
//! The paper's central experiment is a head-to-head comparison of
//! interval estimators (aHPD vs. Wald/Wilson/ET) under shared sampling
//! designs — but running one campaign per method pays for the scarce
//! resource, human annotation, once *per method*. A
//! [`ComparativeSession`] feeds **one** unit stream to the full method
//! roster concurrently: the designated *primary* method owns the
//! sampling loop (its stopping rule ends the stream), while every
//! rival method maintains an independent solver over the same shared
//! sample and records the exact point at which *it* would have stopped
//! — the paper's comparison table, reproduced live at the label cost of
//! a single campaign.
//!
//! ```
//! use kgae_core::comparative::ComparativeSession;
//! use kgae_core::{EvalConfig, PreparedDesign, SamplingDesign, SessionEngine};
//! use kgae_graph::GroundTruth;
//! use kgae_sampling::ComparePrimary;
//!
//! let kg = kgae_graph::datasets::nell();
//! let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
//! let mut session = ComparativeSession::new(
//!     &kg,
//!     &prepared,
//!     ComparePrimary::AHpd,
//!     &EvalConfig::default(),
//!     7,
//! );
//! while let Some(polled) = session.next_request(16).unwrap() {
//!     let labels: Vec<bool> = polled
//!         .request
//!         .triples
//!         .iter()
//!         .map(|st| kg.is_correct(st.triple))
//!         .collect();
//!     session.submit(&labels).unwrap();
//! }
//! let outcome = Box::new(session).into_outcome().unwrap();
//! assert!(outcome.result.converged); // the primary method's result
//! assert_eq!(outcome.methods.unwrap().len(), 4); // wald, wilson, et, ahpd
//! ```
//!
//! **Bit-identity.** The primary method runs inside an unmodified
//! [`EvaluationSession`], so its interval and stopping point are
//! bit-identical to a standalone session with the same seed, design and
//! config (property-tested). Each rival runs the session's own per-unit
//! stopping step — the code the primary's engine runs, with the same
//! readiness gate, certified stopping checks and solvers — against
//! the shared [`crate::SampleState`], whose trajectory is
//! method-independent. A rival that converges before the primary
//! therefore reports the same stopping observation count and interval
//! a standalone campaign of that method would have.
//!
//! **Batching.** The shared stream is unit-granular: rival stopping
//! rules are consulted after every stage-1 unit, exactly like a
//! standalone engine, so each poll serves one unit regardless of the
//! requested batch size (the request's `units` field says so). The
//! final results are batch-independent by construction.
//!
//! **Suspend/resume.** [`SessionEngine::snapshot`] reuses the
//! `KGAESNAP` container with its own record tag (5): the shared-stream
//! design and KG fingerprints, the roster's method fingerprints, one
//! embedded primary-session snapshot and each rival's frozen stop, if
//! it has one. A resumed rival checks its next unit afresh, as session
//! replay does: its lookahead only skips units where no stop is
//! possible, so its countdown is not stored. Resume validates
//! everything and the re-snapshot is byte-identical.

use crate::engine::{EngineKind, EngineOutcome, EngineRequest, SessionEngine, SessionStatusView};
use crate::framework::{EvalConfig, PreparedDesign, SamplingDesign};
use crate::method::IntervalMethod;
use crate::session::{
    design_from_tag, design_tag, method_fingerprint_matches, read_record_prefix,
    write_method_fingerprint, EvaluationSession, SessionError, SessionStatus, StepOutcome,
    StopReason, StoppingStep, COMPARATIVE_SNAPSHOT_TAG,
};
use crate::snapshot::{Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use kgae_graph::KnowledgeGraph;
use kgae_intervals::{BetaPrior, Interval, KernelCache};
use kgae_sampling::ComparePrimary;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The fixed interval-method roster a comparative session races, in
/// [`ComparePrimary::ALL`] order: Wald, Wilson, ET (Jeffreys prior) and
/// aHPD — the paper's four-way comparison.
#[must_use]
pub fn compared_methods() -> [IntervalMethod; 4] {
    [
        IntervalMethod::Wald,
        IntervalMethod::Wilson,
        IntervalMethod::Et(BetaPrior::JEFFREYS),
        IntervalMethod::ahpd_default(),
    ]
}

/// One method's row in a comparative status or result: where this
/// method stands on the shared annotation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Canonical method name (`"wald"`, `"et[jeffreys]"`, ...).
    pub method: String,
    /// Whether this is the primary method (the one whose stopping rule
    /// ends the shared stream).
    pub primary: bool,
    /// Whether this method's own `MoE ≤ ε` rule fired within the shared
    /// stream.
    pub converged: bool,
    /// Where this method stopped. For a rival: the observation count at
    /// which its own `MoE ≤ ε` fired (its counterfactual stopping
    /// point), `None` while it has not. For the primary: the campaign's
    /// stopping point once it ends, *whatever* the reason — check
    /// `converged` to distinguish an MoE stop from a budget/stream one.
    pub stopped_at: Option<u64>,
    /// The method's point estimate: frozen at its stopping point once
    /// converged, the current shared estimate otherwise.
    pub estimate: Option<f64>,
    /// The method's `1-α` interval: frozen at its stopping point once
    /// converged, constructed from the current shared sample otherwise.
    pub interval: Option<Interval>,
}

/// A rival method's frozen stopping record.
#[derive(Debug, Clone, Copy)]
struct RivalStop {
    observations: u64,
    estimate: f64,
    interval: Interval,
}

/// A rival method's tracker: its own stopping step (solver and SRS
/// lookahead countdown) run over the shared sample.
struct Rival {
    /// Index into the roster ([`ComparePrimary::ALL`] order).
    index: usize,
    step: StoppingStep,
    stopped: Option<RivalStop>,
}

/// One shared annotation stream raced by the full interval-method
/// roster. See the module docs for the protocol and guarantees.
pub struct ComparativeSession<'a> {
    primary: EvaluationSession<'a, SmallRng>,
    primary_index: usize,
    rivals: Vec<Rival>,
    outcome: Option<EngineOutcome>,
}

impl<'a> ComparativeSession<'a> {
    /// Creates a comparative campaign over `kg`: the full roster of
    /// [`compared_methods`] racing one shared unit stream under
    /// `prepared`'s design, stopping when `primary` converges. The
    /// whole campaign is reproducible from
    /// `(kg, design, primary, cfg, seed)`.
    #[must_use]
    pub fn new(
        kg: &'a dyn KnowledgeGraph,
        prepared: &PreparedDesign,
        primary: ComparePrimary,
        cfg: &EvalConfig,
        seed: u64,
    ) -> Self {
        let roster = compared_methods();
        let primary_index = primary.roster_index();
        let session = EvaluationSession::from_prepared(
            kg,
            prepared,
            &roster[primary_index],
            cfg,
            SmallRng::seed_from_u64(seed),
        );
        let kind = session.sample_state().kind();
        let rivals = roster
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != primary_index)
            .map(|(index, method)| Rival {
                index,
                step: StoppingStep::new(method, cfg, kind),
                stopped: None,
            })
            .collect();
        Self {
            primary: session,
            primary_index,
            rivals,
            outcome: None,
        }
    }

    /// The primary's roster index.
    #[must_use]
    pub fn primary_index(&self) -> usize {
        self.primary_index
    }

    /// The shared stream's sampling design.
    #[must_use]
    pub fn design(&self) -> SamplingDesign {
        self.primary.design()
    }

    /// The shared evaluation configuration (α, ε, floors, budget).
    #[must_use]
    pub fn config(&self) -> &EvalConfig {
        self.primary.config()
    }

    /// Runs the session's stopping step for every live rival against
    /// the shared sample the just-processed unit updated.
    fn observe_unit(&mut self) -> Result<(), SessionError> {
        for rival in &mut self.rivals {
            if rival.stopped.is_some() {
                continue;
            }
            if let StepOutcome::Stop(interval) = self.primary.run_stopping_step(&mut rival.step)? {
                let state = self.primary.sample_state();
                rival.stopped = Some(RivalStop {
                    observations: state.n(),
                    estimate: state.effective().mu,
                    interval,
                });
            }
        }
        Ok(())
    }

    fn primary_row(&self) -> MethodReport {
        let status = self.primary.status();
        let (converged, stopped_at) = match self.primary.result() {
            Some(result) => (result.converged, Some(result.observations)),
            None => (false, None),
        };
        MethodReport {
            method: self.primary.method().canonical_name(),
            primary: true,
            converged,
            stopped_at,
            estimate: status.estimate,
            interval: status.interval,
        }
    }

    fn rival_row(&self, rival: &Rival) -> MethodReport {
        let method = rival.step.method.canonical_name();
        match &rival.stopped {
            Some(stop) => MethodReport {
                method,
                primary: false,
                converged: true,
                stopped_at: Some(stop.observations),
                estimate: Some(stop.estimate),
                interval: Some(stop.interval),
            },
            None => {
                let state = self.primary.sample_state();
                let has_data = state.n() > 0;
                let interval = has_data
                    .then(|| rival.step.interval(state, self.primary.config().alpha).ok())
                    .flatten();
                MethodReport {
                    method,
                    primary: false,
                    converged: false,
                    stopped_at: None,
                    estimate: has_data.then(|| state.effective().mu),
                    interval,
                }
            }
        }
    }

    /// Per-method rows in roster order.
    fn method_rows(&self) -> Vec<MethodReport> {
        let mut rows = Vec::with_capacity(self.rivals.len() + 1);
        let mut rivals = self.rivals.iter().peekable();
        for index in 0..=self.rivals.len() {
            if index == self.primary_index {
                rows.push(self.primary_row());
            } else {
                let rival = rivals.next().expect("roster index has a rival");
                debug_assert_eq!(rival.index, index);
                rows.push(self.rival_row(rival));
            }
        }
        rows
    }

    /// Freezes the final per-method rows once the primary has stopped.
    fn finalize(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        let methods = self.method_rows();
        let result = self
            .primary
            .result()
            .expect("finalize requires a stopped primary");
        self.outcome = Some(EngineOutcome {
            reason: self.primary.stop_reason().expect("a result has a reason"),
            result: result.clone(),
            strata: None,
            methods: Some(methods),
        });
    }

    /// Reconstructs a suspended campaign from a snapshot, validating
    /// the record tag, shared-stream design, KG shape, primary
    /// designation and full roster fingerprint before the embedded
    /// primary session resumes (which re-validates config and method).
    /// The resumed campaign continues the exact sampling and per-method
    /// stopping trajectory — and re-snapshotting yields identical
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes;
    /// [`SessionError::SnapshotMismatch`] when the snapshot belongs to
    /// a different design, KG, primary, roster, config or method.
    pub fn resume(
        kg: &'a dyn KnowledgeGraph,
        prepared: &PreparedDesign,
        primary: ComparePrimary,
        cfg: &EvalConfig,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        let corrupt = SessionError::CorruptSnapshot;
        let mut r = Reader::new(bytes);
        if read_record_prefix(&mut r)? != COMPARATIVE_SNAPSHOT_TAG {
            return Err(SessionError::SnapshotMismatch(
                "not a comparative session snapshot",
            ));
        }
        let tag = r.u8().map_err(corrupt)?;
        let m = r.u64().map_err(corrupt)?;
        let design =
            design_from_tag(tag, m).ok_or(SessionError::CorruptSnapshot("unknown design tag"))?;
        if design != prepared.design() {
            return Err(SessionError::SnapshotMismatch("sampling design differs"));
        }
        if r.u64().map_err(corrupt)? != kg.num_triples()
            || r.u32().map_err(corrupt)? != kg.num_clusters()
        {
            return Err(SessionError::SnapshotMismatch("KG shape differs"));
        }
        let primary_index = primary.roster_index();
        if r.u8().map_err(corrupt)? as usize != primary_index {
            return Err(SessionError::SnapshotMismatch("primary method differs"));
        }
        let roster = compared_methods();
        if r.u8().map_err(corrupt)? as usize != roster.len() {
            return Err(SessionError::SnapshotMismatch("method roster differs"));
        }
        for method in &roster {
            if !method_fingerprint_matches(&mut r, method).map_err(corrupt)? {
                return Err(SessionError::SnapshotMismatch("method roster differs"));
            }
        }
        let child_len = r.len_capped(bytes.len() as u64).map_err(corrupt)?;
        let child = r.bytes(child_len).map_err(corrupt)?;
        let session = EvaluationSession::resume(
            kg,
            prepared,
            &roster[primary_index],
            cfg,
            SmallRng::seed_from_u64(0),
            child,
        )?;
        let mut rivals = Vec::with_capacity(roster.len() - 1);
        for (index, method) in roster.into_iter().enumerate() {
            if index == primary_index {
                continue;
            }
            let stopped = if r.bool().map_err(corrupt)? {
                let observations = r.u64().map_err(corrupt)?;
                let estimate = r.f64().map_err(corrupt)?;
                let lo = r.f64().map_err(corrupt)?;
                let hi = r.f64().map_err(corrupt)?;
                if lo.is_nan() || hi.is_nan() || lo > hi {
                    return Err(SessionError::CorruptSnapshot(
                        "interval bounds out of order",
                    ));
                }
                Some(RivalStop {
                    observations,
                    estimate,
                    interval: Interval::new(lo, hi),
                })
            } else {
                None
            };
            rivals.push(Rival {
                index,
                step: StoppingStep::new(method, cfg, session.sample_state().kind()),
                stopped,
            });
        }
        r.finish().map_err(corrupt)?;
        Ok(Self {
            primary: session,
            primary_index,
            rivals,
            outcome: None,
        })
    }
}

impl SessionEngine for ComparativeSession<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Comparative
    }

    fn has_pending_request(&self) -> bool {
        self.primary.has_pending_request()
    }

    /// Polls for the next shared-stream annotation batch. The stream is
    /// unit-granular (rival stopping rules are consulted after every
    /// unit, like a standalone engine), so each poll serves exactly one
    /// stage-1 unit; `max_units` is accepted for protocol uniformity.
    /// `Ok(None)` once the primary has stopped.
    ///
    /// # Errors
    ///
    /// [`SessionError::RequestPending`] while labels are owed;
    /// stream-exhaustion/solver failures from the primary engine.
    fn next_request(&mut self, max_units: u64) -> Result<Option<EngineRequest>, SessionError> {
        let _ = max_units; // unit-granular by design; see the doc comment
        if self.outcome.is_some() {
            return Ok(None);
        }
        match self.primary.next_request(1)? {
            Some(request) => Ok(Some(EngineRequest {
                request,
                stratum: None,
            })),
            None => {
                // The stream exhausted inside the poll: the primary
                // finished without a new unit, so the rival trackers
                // are already current.
                self.finalize();
                Ok(None)
            }
        }
    }

    /// Submits labels for the outstanding unit, advances the primary
    /// engine, then runs every live rival's stopping step on the
    /// updated shared sample.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`],
    /// [`SessionError::LabelCountMismatch`], or solver failures from
    /// any method's interval construction.
    fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        self.primary.submit(labels)?;
        self.observe_unit()?;
        if self.primary.stop_reason().is_some() {
            self.finalize();
        }
        Ok(())
    }

    /// Point-in-time view: the primary's status plus one row per roster
    /// method.
    fn status(&self) -> SessionStatusView {
        let methods = match &self.outcome {
            Some(outcome) => outcome.methods.clone(),
            None => Some(self.method_rows()),
        };
        SessionStatusView {
            primary: self.primary.status(),
            strata: None,
            methods,
            monitor: None,
        }
    }

    /// Withdraws the outstanding unit by rewinding the primary engine
    /// to its pre-draw state
    /// ([`EvaluationSession::cancel_request`]); the rival trackers only
    /// advance on submit, so they need no rollback. A re-poll after
    /// cancel regenerates the bit-identical unit.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`] without an outstanding
    /// request.
    fn cancel_request(&mut self) -> Result<(), SessionError> {
        self.primary.cancel_request()
    }

    /// The primary's status alone, without materializing the per-method
    /// rows (each non-converged rival row constructs an interval on a
    /// scratch solver).
    fn headline(&self) -> SessionStatus {
        self.primary.status()
    }

    /// The primary's stop reason.
    fn stop_reason(&self) -> Option<StopReason> {
        self.primary.stop_reason()
    }

    /// Serializes the campaign into a canonical binary snapshot: the
    /// `KGAESNAP` container with the comparative record tag (5), the
    /// shared-stream design and KG fingerprints, the roster's method
    /// fingerprints, the embedded primary-session snapshot and every
    /// rival's frozen stop.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed or
    /// after the campaign stopped.
    fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.primary.has_pending_request() {
            return Err(SessionError::SnapshotUnavailable(
                "a request is outstanding; submit its labels first",
            ));
        }
        if self.outcome.is_some() {
            return Err(SessionError::SnapshotUnavailable(
                "campaign already stopped; read its result instead",
            ));
        }
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u8(COMPARATIVE_SNAPSHOT_TAG);
        let (tag, m) = design_tag(self.primary.design());
        w.u8(tag);
        w.u64(m);
        let kg = self.primary.kg();
        w.u64(kg.num_triples());
        w.u32(kg.num_clusters());
        w.u8(self.primary_index as u8);
        // Roster fingerprints (primary's config/method fingerprints are
        // re-validated by the embedded session snapshot).
        let roster = compared_methods();
        w.u8(roster.len() as u8);
        for method in &roster {
            write_method_fingerprint(&mut w, method);
        }
        // Embedded primary-session snapshot (length-prefixed).
        let child = self.primary.snapshot()?;
        w.u64(child.len() as u64);
        w.bytes(&child);
        // Rival trackers, roster order.
        for rival in &self.rivals {
            match &rival.stopped {
                Some(stop) => {
                    w.bool(true);
                    w.u64(stop.observations);
                    w.f64(stop.estimate);
                    w.f64(stop.interval.lower());
                    w.f64(stop.interval.upper());
                }
                None => w.bool(false),
            }
        }
        Ok(w.into_bytes())
    }

    /// The primary method's result — bit-identical to a standalone
    /// session of that method with the same seed/design/config — and
    /// the final per-method rows in roster order. Rivals that converged
    /// carry their counterfactual stopping point and frozen interval;
    /// the rest carry their final (non-converged) interval over the
    /// full shared sample.
    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome> {
        self.outcome
    }

    /// Attaches the cache to the primary session and every rival
    /// solver. The four-method roster re-solves the same `(τ, n)`
    /// kernels against each other, so the comparative engine is the
    /// cache's biggest single-campaign winner.
    fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>) {
        self.primary.set_kernel_cache(Arc::clone(&kernel));
        for rival in &mut self.rivals {
            rival.step.kernel = Some(Arc::clone(&kernel));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::GroundTruth;

    fn drive(kg: &(impl KnowledgeGraph + GroundTruth), session: &mut ComparativeSession<'_>) {
        let mut labels = Vec::new();
        while let Some(polled) = session.next_request(8).unwrap() {
            labels.clear();
            labels.extend(
                polled
                    .request
                    .triples
                    .iter()
                    .map(|st| kg.is_correct(st.triple)),
            );
            session.submit(&labels).unwrap();
        }
    }

    fn outcome(session: ComparativeSession<'_>) -> EngineOutcome {
        Box::new(session).into_outcome().unwrap()
    }

    #[test]
    fn comparative_campaign_reports_every_method() {
        let kg = kgae_graph::datasets::nell();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let mut session = ComparativeSession::new(
            &kg,
            &prepared,
            ComparePrimary::AHpd,
            &EvalConfig::default(),
            3,
        );
        drive(&kg, &mut session);
        assert_eq!(session.stop_reason(), Some(StopReason::MoeSatisfied));
        let outcome = outcome(session);
        let methods = outcome.methods.as_deref().expect("per-method rows");
        assert!(outcome.result.converged);
        assert_eq!(methods.len(), 4);
        // Roster order and the primary flag.
        let names: Vec<&str> = methods.iter().map(|m| m.method.as_str()).collect();
        assert_eq!(names, ["wald", "wilson", "et[jeffreys]", "ahpd"]);
        assert!(methods[3].primary);
        assert!(methods[..3].iter().all(|m| !m.primary));
        // The primary row mirrors the primary result.
        assert_eq!(methods[3].stopped_at, Some(outcome.result.observations));
        assert!(methods[3].converged);
        // Every row carries an interval over the shared sample.
        for row in methods {
            assert!(
                row.interval.is_some(),
                "{} row lost its interval",
                row.method
            );
            assert!(row.estimate.is_some());
        }
    }

    #[test]
    fn protocol_errors_mirror_the_single_session() {
        let kg = kgae_graph::datasets::nell();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let mut session = ComparativeSession::new(
            &kg,
            &prepared,
            ComparePrimary::Wilson,
            &EvalConfig::default(),
            0,
        );
        assert!(matches!(
            session.submit(&[true]),
            Err(SessionError::NoRequestPending)
        ));
        let request = session.next_request(4).unwrap().unwrap().request;
        assert_eq!(request.units, 1, "comparative streams are unit-granular");
        assert!(matches!(
            session.next_request(1),
            Err(SessionError::RequestPending)
        ));
        assert!(matches!(
            session.snapshot(),
            Err(SessionError::SnapshotUnavailable(_))
        ));
        assert!(session.has_pending_request());
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        session.submit(&labels).unwrap();
        assert!(!session.has_pending_request());
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_and_trajectory_preserving() {
        let kg = kgae_graph::datasets::factbench();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let cfg = EvalConfig::default();

        let run = |interrupt_every: Option<u64>| {
            let mut session =
                ComparativeSession::new(&kg, &prepared, ComparePrimary::AHpd, &cfg, 5);
            let mut units = 0u64;
            let mut labels = Vec::new();
            while let Some(polled) = session.next_request(1).unwrap() {
                labels.clear();
                labels.extend(
                    polled
                        .request
                        .triples
                        .iter()
                        .map(|st| kg.is_correct(st.triple)),
                );
                session.submit(&labels).unwrap();
                units += 1;
                if session.stop_reason().is_none() {
                    if let Some(every) = interrupt_every {
                        if units.is_multiple_of(every) {
                            let bytes = session.snapshot().unwrap();
                            let resumed = ComparativeSession::resume(
                                &kg,
                                &prepared,
                                ComparePrimary::AHpd,
                                &cfg,
                                &bytes,
                            )
                            .unwrap();
                            let bytes2 = resumed.snapshot().unwrap();
                            assert_eq!(bytes, bytes2, "re-snapshot diverged at unit {units}");
                            session = resumed;
                        }
                    }
                }
            }
            outcome(session)
        };

        let straight = run(None);
        let interrupted = run(Some(37));
        assert_eq!(
            straight, interrupted,
            "suspend/resume changed the comparative trajectory"
        );
    }

    #[test]
    fn resume_rejects_wrong_setup() {
        let kg = kgae_graph::datasets::nell();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
        let cfg = EvalConfig::default();
        let mut session = ComparativeSession::new(&kg, &prepared, ComparePrimary::AHpd, &cfg, 11);
        let mut labels = Vec::new();
        for _ in 0..12 {
            let request = session.next_request(1).unwrap().unwrap().request;
            labels.clear();
            labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).unwrap();
        }
        let bytes = session.snapshot().unwrap();

        assert_eq!(
            crate::engine::snapshot_engine_kind(&bytes).unwrap(),
            crate::engine::EngineKind::Comparative
        );

        // Wrong primary.
        assert!(matches!(
            ComparativeSession::resume(&kg, &prepared, ComparePrimary::Wald, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong design.
        let twcs = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
        assert!(matches!(
            ComparativeSession::resume(&kg, &twcs, ComparePrimary::AHpd, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong config (validated by the embedded primary snapshot).
        let wrong_cfg = cfg.clone().with_alpha(0.01);
        assert!(matches!(
            ComparativeSession::resume(&kg, &prepared, ComparePrimary::AHpd, &wrong_cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong KG.
        let yago = kgae_graph::datasets::yago();
        let yago_prepared = PreparedDesign::new(&yago, SamplingDesign::Srs);
        assert!(matches!(
            ComparativeSession::resume(&yago, &yago_prepared, ComparePrimary::AHpd, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Truncation.
        assert!(matches!(
            ComparativeSession::resume(
                &kg,
                &prepared,
                ComparePrimary::AHpd,
                &cfg,
                &bytes[..bytes.len() - 2]
            ),
            Err(SessionError::CorruptSnapshot(_))
        ));
    }
}
