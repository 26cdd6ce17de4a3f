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
//! use kgae_core::{EvalConfig, PreparedDesign, SamplingDesign};
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
//! while let Some(request) = session.next_request(16).unwrap() {
//!     let labels: Vec<bool> = request
//!         .triples
//!         .iter()
//!         .map(|st| kg.is_correct(st.triple))
//!         .collect();
//!     session.submit(&labels).unwrap();
//! }
//! let result = session.result().unwrap();
//! assert!(result.primary.converged);
//! assert_eq!(result.methods.len(), 4); // wald, wilson, et, ahpd
//! ```
//!
//! **Bit-identity.** The primary method runs inside an unmodified
//! [`EvaluationSession`], so its interval and stopping point are
//! bit-identical to a standalone session with the same seed, design and
//! config (property-tested). Rival trackers replay the *exact*
//! per-unit stopping sequence of the engine — same readiness gate, same
//! certified-lookahead schedule, same solvers — against
//! the shared [`SampleState`], whose trajectory is method-independent.
//! A rival that converges before the primary therefore reports the
//! same stopping observation count and interval a standalone campaign
//! of that method would have.
//!
//! **Batching.** The shared stream is unit-granular: rival stopping
//! rules are consulted after every stage-1 unit, exactly like a
//! standalone engine, so each poll serves one unit regardless of the
//! requested batch size (the request's `units` field says so). The
//! final results are batch-independent by construction.
//!
//! **Suspend/resume.** [`ComparativeSession::snapshot`] reuses the
//! `KGAESNAP` container with its own record tag (5): the shared-stream
//! design and KG fingerprints, the roster's method fingerprints, one
//! embedded primary-session snapshot and each rival's solver +
//! scheduling state. Resume validates everything and the re-snapshot is
//! byte-identical.

use crate::framework::{EvalConfig, EvalResult, PreparedDesign, SamplingDesign, StoppingPolicy};
use crate::method::{IntervalMethod, MethodState};
use crate::session::{
    design_from_tag, design_tag, method_fingerprint_matches, read_record_prefix, read_solver,
    write_method_fingerprint, write_solver, AnnotationRequest, EvaluationSession, SessionError,
    SessionStatus, StopReason, COMPARATIVE_SNAPSHOT_TAG,
};
use crate::snapshot::{Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::state::{DesignKind, SampleState};
use kgae_graph::KnowledgeGraph;
use kgae_intervals::{BetaPrior, Interval};
use kgae_sampling::ComparePrimary;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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

/// A point-in-time view of a comparative campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparativeStatus {
    /// The primary engine's status — the campaign's stopping authority.
    pub primary: SessionStatus,
    /// One row per roster method, in roster order (the primary's row is
    /// flagged).
    pub methods: Vec<MethodReport>,
}

/// Final outcome of a comparative campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparativeResult {
    /// The primary method's result — bit-identical to a standalone
    /// session of that method with the same seed/design/config.
    pub primary: EvalResult,
    /// Final per-method rows, in roster order. Rivals that converged
    /// carry their counterfactual stopping point and frozen interval;
    /// the rest carry their final (non-converged) interval over the
    /// full shared sample.
    pub methods: Vec<MethodReport>,
}

/// A rival method's frozen stopping record.
#[derive(Debug, Clone, Copy)]
struct RivalStop {
    observations: u64,
    estimate: f64,
    interval: Interval,
}

/// A rival method's tracker: an independent solver plus the engine's
/// per-unit stopping schedule, replayed over the shared sample.
struct Rival {
    /// Index into the roster ([`ComparePrimary::ALL`] order).
    index: usize,
    method: IntervalMethod,
    solver: MethodState,
    /// Annotation units left before the next stopping check (certified
    /// unreachable in between) — the rival's own lookahead schedule.
    skip_left: u64,
    stopped: Option<RivalStop>,
}

/// One shared annotation stream raced by the full interval-method
/// roster. See the module docs for the protocol and guarantees.
pub struct ComparativeSession<'a> {
    primary: EvaluationSession<'a, SmallRng>,
    primary_index: usize,
    rivals: Vec<Rival>,
    kind: DesignKind,
    max_draw_size: u64,
    hansen_hurwitz: bool,
    outcome: Option<ComparativeResult>,
}

fn point_estimate(state: &SampleState, kind: DesignKind) -> f64 {
    match kind {
        DesignKind::Srs => state.mu_hat(),
        DesignKind::Cluster => state.effective().mu,
    }
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
        let design = prepared.design();
        let kind = match design {
            SamplingDesign::Srs => DesignKind::Srs,
            _ => DesignKind::Cluster,
        };
        let rivals = roster
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != primary_index)
            .map(|(index, method)| Rival {
                index,
                solver: method.new_state(),
                method,
                skip_left: 0,
                stopped: None,
            })
            .collect();
        Self {
            primary: session,
            primary_index,
            rivals,
            kind,
            max_draw_size: prepared.max_draw_size(),
            hansen_hurwitz: design == SamplingDesign::Scs,
            outcome: None,
        }
    }

    /// Attaches a shared posterior-kernel cache to the primary session
    /// and every rival solver. The four-method roster re-solves the same
    /// `(τ, n)` kernels against each other, so the comparative engine is
    /// the cache's biggest single-campaign winner. Purely a cost lever:
    /// outputs stay bit-identical.
    pub fn set_kernel_cache(&mut self, kernel: &std::sync::Arc<kgae_intervals::KernelCache>) {
        self.primary.set_kernel_cache(std::sync::Arc::clone(kernel));
        for rival in &mut self.rivals {
            rival.solver.attach_kernel(std::sync::Arc::clone(kernel));
        }
    }

    /// The primary method (the campaign's stopping authority).
    #[must_use]
    pub fn primary_method(&self) -> &IntervalMethod {
        self.primary.method()
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

    /// Whether labels are owed on an outstanding request.
    #[must_use]
    pub fn has_pending_request(&self) -> bool {
        self.primary.has_pending_request()
    }

    /// Why the campaign stopped (the primary's stop reason), or `None`
    /// while it runs.
    #[must_use]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.primary.stop_reason()
    }

    /// The final result once the campaign has stopped.
    #[must_use]
    pub fn result(&self) -> Option<&ComparativeResult> {
        self.outcome.as_ref()
    }

    /// Consumes the campaign, yielding the final result if it stopped.
    #[must_use]
    pub fn into_result(self) -> Option<ComparativeResult> {
        self.outcome
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
    pub fn next_request(
        &mut self,
        max_units: u64,
    ) -> Result<Option<AnnotationRequest>, SessionError> {
        let _ = max_units; // unit-granular by design; see the doc comment
        if self.outcome.is_some() {
            return Ok(None);
        }
        match self.primary.next_request_cancellable(1)? {
            Some(request) => Ok(Some(request)),
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
    /// engine, then replays the unit through every live rival tracker
    /// (posterior updates + the exact per-unit stopping sequence).
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`],
    /// [`SessionError::LabelCountMismatch`], or solver failures from
    /// any method's interval construction.
    pub fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        self.primary.submit(labels)?;
        self.observe_unit(labels)?;
        if self.primary.stop_reason().is_some() {
            self.finalize();
        }
        Ok(())
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
    pub fn cancel_request(&mut self) -> Result<(), SessionError> {
        self.primary.cancel_request()
    }

    /// Replays the just-processed unit through every live rival: SRS
    /// posterior updates per label, then the engine's stopping sequence
    /// (readiness gate → lookahead skip → exact one-step gate →
    /// interval construction → certified skip) against the shared
    /// sample state.
    fn observe_unit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        let state = self.primary.sample_state();
        let cfg = self.primary.config();
        let kind = self.kind;
        for rival in &mut self.rivals {
            if rival.stopped.is_some() {
                continue;
            }
            if kind == DesignKind::Srs {
                // An SRS unit is one fresh triple; cluster designs feed
                // their solvers from the effective sample instead.
                for &label in labels {
                    rival.method.record_observation(&mut rival.solver, label);
                }
            }
            let ready = state.n() >= cfg.min_triples
                && (kind == DesignKind::Srs || state.draws() >= cfg.min_draws);
            if !ready {
                continue;
            }
            if rival.skip_left > 0 {
                rival.skip_left -= 1;
                continue;
            }
            let lookahead = cfg.stopping == StoppingPolicy::CertifiedLookahead;
            let construct = !lookahead
                || rival
                    .method
                    .stop_possible_now(state, cfg.alpha, cfg.epsilon, &rival.solver);
            if construct {
                let interval =
                    rival
                        .method
                        .interval_stateful(state, cfg.alpha, &mut rival.solver)?;
                if interval.moe() <= cfg.epsilon {
                    rival.stopped = Some(RivalStop {
                        observations: state.n(),
                        estimate: point_estimate(state, kind),
                        interval,
                    });
                    continue;
                }
            }
            if lookahead {
                rival.skip_left = match kind {
                    DesignKind::Srs => rival.method.certified_skip_srs(
                        state,
                        cfg.alpha,
                        cfg.epsilon,
                        &mut rival.solver,
                    ),
                    DesignKind::Cluster => rival.method.certified_skip_cluster(
                        state,
                        cfg.alpha,
                        cfg.epsilon,
                        self.max_draw_size,
                        self.hansen_hurwitz,
                    ),
                };
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
        let method = rival.method.canonical_name();
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
                // Scratch solver clone: observing never perturbs the
                // rival's stopping trajectory.
                let interval = has_data
                    .then(|| {
                        let mut scratch = rival.solver.clone();
                        rival
                            .method
                            .interval_stateful(state, self.primary.config().alpha, &mut scratch)
                            .ok()
                    })
                    .flatten();
                MethodReport {
                    method,
                    primary: false,
                    converged: false,
                    stopped_at: None,
                    estimate: has_data.then(|| point_estimate(state, self.kind)),
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

    /// The primary's status alone — **without** materializing the
    /// per-method rows (each non-converged rival row constructs an
    /// interval on a scratch solver). Identical to
    /// [`ComparativeSession::status`]'s `primary` field; session hosts
    /// use it on poll and submit hot paths.
    #[must_use]
    pub fn primary_status(&self) -> SessionStatus {
        self.primary.status()
    }

    /// Point-in-time view: the primary's status plus one row per roster
    /// method.
    #[must_use]
    pub fn status(&self) -> ComparativeStatus {
        if let Some(outcome) = &self.outcome {
            return ComparativeStatus {
                primary: self.primary.status(),
                methods: outcome.methods.clone(),
            };
        }
        ComparativeStatus {
            primary: self.primary.status(),
            methods: self.method_rows(),
        }
    }

    /// Freezes the final per-method rows once the primary has stopped.
    fn finalize(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        let methods = self.method_rows();
        let primary = self
            .primary
            .result()
            .expect("finalize requires a stopped primary")
            .clone();
        self.outcome = Some(ComparativeResult { primary, methods });
    }

    // -----------------------------------------------------------------
    // Suspend / resume
    // -----------------------------------------------------------------

    /// Serializes the campaign into a canonical binary snapshot: the
    /// `KGAESNAP` container with the comparative record tag (5), the
    /// shared-stream design and KG fingerprints, the roster's method
    /// fingerprints, the embedded primary-session snapshot and every
    /// rival's solver + scheduling state.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed or
    /// after the campaign stopped.
    pub fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.has_pending_request() {
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
            write_solver(&mut w, &rival.solver);
            w.u64(rival.skip_left);
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
            let priors = method.priors().map_or(0, <[BetaPrior]>::len);
            let solver = read_solver(&mut r, priors).map_err(corrupt)?;
            let skip_left = r.u64().map_err(corrupt)?;
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
                method,
                solver,
                skip_left,
                stopped,
            });
        }
        r.finish().map_err(corrupt)?;
        let kind = match design {
            SamplingDesign::Srs => DesignKind::Srs,
            _ => DesignKind::Cluster,
        };
        Ok(Self {
            primary: session,
            primary_index,
            rivals,
            kind,
            max_draw_size: prepared.max_draw_size(),
            hansen_hurwitz: design == SamplingDesign::Scs,
            outcome: None,
        })
    }
}

/// Identity prefix of a comparative session snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComparativeSnapshotHeader {
    /// The shared stream's sampling design.
    pub design: SamplingDesign,
    /// `num_triples` of the KG under evaluation.
    pub num_triples: u64,
    /// `num_clusters` of the KG under evaluation.
    pub num_clusters: u32,
    /// Roster index of the primary method.
    pub primary_index: u8,
    /// Number of methods in the roster.
    pub num_methods: u8,
}

/// Parses the identity prefix of a comparative snapshot without
/// reconstructing the campaign.
///
/// # Errors
///
/// [`SessionError::CorruptSnapshot`] on malformed bytes;
/// [`SessionError::SnapshotMismatch`] when the bytes carry a different
/// record tag or an unsupported version.
pub fn peek_comparative_header(bytes: &[u8]) -> Result<ComparativeSnapshotHeader, SessionError> {
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
    Ok(ComparativeSnapshotHeader {
        design,
        num_triples: r.u64().map_err(corrupt)?,
        num_clusters: r.u32().map_err(corrupt)?,
        primary_index: r.u8().map_err(corrupt)?,
        num_methods: r.u8().map_err(corrupt)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::GroundTruth;

    fn drive(
        kg: &(impl KnowledgeGraph + GroundTruth),
        session: &mut ComparativeSession<'_>,
    ) -> ComparativeResult {
        let mut labels = Vec::new();
        while let Some(request) = session.next_request(8).unwrap() {
            labels.clear();
            labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).unwrap();
        }
        session.result().unwrap().clone()
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
        let result = drive(&kg, &mut session);
        assert_eq!(session.stop_reason(), Some(StopReason::MoeSatisfied));
        assert!(result.primary.converged);
        assert_eq!(result.methods.len(), 4);
        // Roster order and the primary flag.
        let names: Vec<&str> = result.methods.iter().map(|m| m.method.as_str()).collect();
        assert_eq!(names, ["wald", "wilson", "et[jeffreys]", "ahpd"]);
        assert!(result.methods[3].primary);
        assert!(result.methods[..3].iter().all(|m| !m.primary));
        // The primary row mirrors the primary result.
        assert_eq!(
            result.methods[3].stopped_at,
            Some(result.primary.observations)
        );
        assert!(result.methods[3].converged);
        // Every row carries an interval over the shared sample.
        for row in &result.methods {
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
        let request = session.next_request(4).unwrap().unwrap();
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
            while let Some(request) = session.next_request(1).unwrap() {
                labels.clear();
                labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
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
            session.into_result().unwrap()
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
            let request = session.next_request(1).unwrap().unwrap();
            labels.clear();
            labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).unwrap();
        }
        let bytes = session.snapshot().unwrap();

        // Header peek reports identity without a resume.
        let header = peek_comparative_header(&bytes).unwrap();
        assert_eq!(header.design, SamplingDesign::Srs);
        assert_eq!(header.num_triples, kg.num_triples());
        assert_eq!(header.primary_index, 3);
        assert_eq!(header.num_methods, 4);

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
        // Kind-specific peeks refuse comparative bytes; the registry
        // identifies them.
        assert!(matches!(
            crate::stratified::peek_stratified_header_impl(&bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        assert!(matches!(
            crate::engine::peek_any_header(&bytes),
            Ok(crate::engine::AnyHeader::Comparative(_))
        ));
    }
}
