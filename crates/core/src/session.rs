//! The poll-based evaluation engine: paper Figure 1 inverted into a
//! state machine.
//!
//! The legacy [`crate::framework::evaluate`] loop is *closed*: it owns
//! the control flow, calls a synchronous in-process [`crate::Annotator`]
//! and only returns once the stopping rule fires. Real annotation —
//! crowdsourcing batches, expert review queues — is asynchronous and
//! external. [`EvaluationSession`] turns the loop inside out:
//!
//! ```
//! use kgae_core::{EvalConfig, EvaluationSession, IntervalMethod, SamplingDesign};
//! use kgae_graph::GroundTruth;
//! use rand::SeedableRng;
//!
//! let kg = kgae_graph::datasets::yago();
//! let mut session = EvaluationSession::new(
//!     &kg,
//!     SamplingDesign::Srs,
//!     &IntervalMethod::Wilson,
//!     &EvalConfig::default(),
//!     rand::rngs::SmallRng::seed_from_u64(7),
//! );
//! while let Some(request) = session.next_request(16).unwrap() {
//!     // Annotate externally, at any pace — here, the oracle labels.
//!     let labels: Vec<bool> = request
//!         .triples
//!         .iter()
//!         .map(|st| kg.is_correct(st.triple))
//!         .collect();
//!     session.submit(&labels).unwrap(); // advance + stop-check
//! }
//! assert!(session.result().unwrap().converged);
//! ```
//!
//! The session is generic over any [`KnowledgeGraph`] backend (held as
//! `&dyn KnowledgeGraph`) and any sampling design through the
//! [`DesignDriver`] trait, which unifies the previously duplicated
//! SRS/cluster control paths. Stopping decisions are **bit-identical**
//! to the legacy loop: units are processed one at a time in submission
//! order with the same state updates, the same certified-lookahead
//! schedule and the same interval constructions — the legacy API is
//! itself rebuilt as a thin driver over a session (batch size 1).
//!
//! Sessions also suspend and resume: [`EvaluationSession::snapshot`]
//! serializes the full dynamic state (counts, Welford accumulators,
//! RNG, sampler stream, label cache, cost sets) into a compact manual
//! binary encoding — no serde — and
//! [`EvaluationSession::resume`] reconstructs a session that continues
//! the exact float-for-float trajectory of the suspended one.

use crate::cost::CostTracker;
use crate::framework::{EvalConfig, EvalResult, PreparedDesign, SamplingDesign, StoppingPolicy};
use crate::method::{IntervalMethod, MethodState};
use crate::snapshot::{Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::state::{DesignKind, SampleState};
use kgae_graph::{KnowledgeGraph, LabelCache};
use kgae_intervals::{Interval, IntervalError, KernelCache};
use kgae_sampling::driver::{build_driver, DesignDriver, UnitEstimator};
use kgae_sampling::SampledTriple;
use kgae_stats::descriptive::OnlineMoments;
use rand::rngs::SmallRng;
use rand::RngCore;
use std::collections::HashSet;
use std::sync::Arc;

/// Why a session stopped handing out annotation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stopping rule fired: `MoE ≤ ε`.
    MoeSatisfied,
    /// Every triple of the KG was annotated (SRS without replacement):
    /// the estimate is the exact population accuracy.
    PopulationExhausted,
    /// The design's unit stream ended before convergence (e.g. a
    /// bounded SCS stream) — the final estimate did not meet the MoE.
    StreamExhausted,
    /// The observation or cost budget was exceeded before convergence.
    BudgetExhausted,
}

/// Protocol and state errors of the poll-based engine.
#[derive(Debug)]
pub enum SessionError {
    /// `next_request` was called while a request is outstanding.
    RequestPending,
    /// `submit` was called with no request outstanding.
    NoRequestPending,
    /// `submit` received the wrong number of labels.
    LabelCountMismatch {
        /// Labels the outstanding request asked for.
        expected: usize,
        /// Labels actually submitted.
        got: usize,
    },
    /// The unit stream ended before a single unit was annotated, so no
    /// estimate exists (e.g. a zero-capacity custom driver).
    StreamEndedBeforeData,
    /// A snapshot cannot be taken in the current state.
    SnapshotUnavailable(&'static str),
    /// The snapshot bytes are malformed.
    CorruptSnapshot(&'static str),
    /// The snapshot is valid but belongs to a different configuration
    /// (design, KG shape, config or method disagree).
    SnapshotMismatch(&'static str),
    /// Interval construction failed (propagated from the solver).
    Interval(IntervalError),
    /// A delta batch was handed to an engine kind with no delta
    /// semantics (only [`crate::monitor::MonitorSession`] accepts
    /// deltas).
    DeltasUnsupported,
    /// A delta batch failed validation against the current KG view;
    /// nothing was applied.
    DeltaRejected(kgae_graph::DeltaError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::RequestPending => {
                write!(f, "a request is already outstanding; submit labels first")
            }
            SessionError::NoRequestPending => {
                write!(f, "no request outstanding; call next_request first")
            }
            SessionError::LabelCountMismatch { expected, got } => {
                write!(f, "expected {expected} labels, got {got}")
            }
            SessionError::StreamEndedBeforeData => {
                write!(f, "unit stream ended before any unit was annotated")
            }
            SessionError::SnapshotUnavailable(why) => write!(f, "snapshot unavailable: {why}"),
            SessionError::CorruptSnapshot(why) => write!(f, "corrupt snapshot: {why}"),
            SessionError::SnapshotMismatch(why) => write!(f, "snapshot mismatch: {why}"),
            SessionError::Interval(e) => write!(f, "interval construction failed: {e}"),
            SessionError::DeltasUnsupported => {
                write!(f, "this engine kind does not accept KG deltas")
            }
            SessionError::DeltaRejected(e) => write!(f, "delta batch rejected: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<IntervalError> for SessionError {
    fn from(e: IntervalError) -> Self {
        SessionError::Interval(e)
    }
}

/// A batch of triples the session needs labels for, in submission
/// order. Reusable: `next_request_into` clears and refills it, keeping
/// the allocation.
#[derive(Debug, Clone, Default)]
pub struct AnnotationRequest {
    /// Triples to annotate (each with its owning cluster, which
    /// annotation UIs need for entity context). Labels must be
    /// submitted in exactly this order.
    pub triples: Vec<SampledTriple>,
    /// Stage-1 units covered by this request. A unit whose triples are
    /// all already labeled (a cluster re-draw) contributes no triples
    /// but still counts here.
    pub units: u64,
}

/// A point-in-time view of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// Current point estimate `μ̂` (`None` before the first annotation).
    pub estimate: Option<f64>,
    /// Current `1-α` interval (`None` before the first annotation or if
    /// construction fails).
    pub interval: Option<Interval>,
    /// Total annotated observations (with re-draw multiplicity).
    pub observations: u64,
    /// Distinct triples annotated.
    pub annotated_triples: u64,
    /// Stage-1 draws processed (0 under SRS).
    pub stage1_draws: u64,
    /// Annotation cost so far in seconds (Eq. 12).
    pub cost_seconds: f64,
    /// Why the session stopped, or `None` while it still wants labels.
    pub stopped: Option<StopReason>,
}

/// An RNG whose full state can be captured and restored, enabling
/// bit-identical suspend/resume of in-flight sessions.
pub trait SnapshotRng: RngCore {
    /// Captures the generator's complete state.
    fn save_state(&self) -> [u64; 4];
    /// Overwrites the generator with a previously captured state.
    fn load_state(&mut self, state: [u64; 4]);
}

impl SnapshotRng for SmallRng {
    fn save_state(&self) -> [u64; 4] {
        self.state()
    }

    fn load_state(&mut self, state: [u64; 4]) {
        *self = SmallRng::from_state(state);
    }
}

impl<R: SnapshotRng> SnapshotRng for &mut R {
    fn save_state(&self) -> [u64; 4] {
        (**self).save_state()
    }

    fn load_state(&mut self, state: [u64; 4]) {
        (**self).load_state(state);
    }
}

/// One stage-1 unit inside the pending batch: a range into the batch
/// triple buffer.
#[derive(Debug, Clone, Copy)]
struct UnitMeta {
    start: usize,
    end: usize,
}

#[derive(Debug, Clone)]
struct SessionOutcome {
    reason: StopReason,
    result: EvalResult,
}

/// Pre-draw sampler state captured by the cancellable poll path:
/// restoring it makes the outstanding batch as if never drawn, so a
/// later re-poll regenerates the bit-identical batch.
#[derive(Debug, Clone)]
struct BatchOrigin {
    rng: [u64; 4],
    driver: Vec<u8>,
}

/// One method's stopping rule over a sample: the method, its solver
/// state and its certified-lookahead countdown. A session runs one for
/// its own method; a comparative campaign runs one per rival method
/// over the primary session's sample.
pub(crate) struct StoppingStep {
    pub(crate) method: IntervalMethod,
    pub(crate) solver: MethodState,
    /// Annotation units left before the next stopping check (certified
    /// unreachable in between).
    pub(crate) skip_left: u64,
}

/// What one [`StoppingStep::run`] found.
pub(crate) enum StepOutcome {
    /// Below the minimum sample: no check was due.
    NotReady,
    /// A check was due and `MoE ≤ ε` did not fire.
    Open,
    /// `MoE ≤ ε` fired with this interval.
    Stop(Interval),
}

impl StoppingStep {
    pub(crate) fn new(method: IntervalMethod) -> Self {
        Self {
            solver: method.new_state(),
            method,
            skip_left: 0,
        }
    }

    /// The method's `1-α` interval over `state`.
    pub(crate) fn interval(
        &self,
        state: &SampleState,
        alpha: f64,
    ) -> Result<Interval, IntervalError> {
        self.method.interval_stateful(state, alpha, &self.solver)
    }

    /// The stopping sequence after one labeled unit: readiness gate
    /// (≥ `min_triples`, and ≥ `min_draws` stage-1 draws under cluster
    /// designs so the variance estimator exists), lookahead countdown,
    /// exact one-step gate, interval construction and MoE check, then
    /// the certified skip. The [`StoppingPolicy::EveryUnit`] reference
    /// path constructs the interval at every check and never skips.
    pub(crate) fn run(
        &mut self,
        state: &SampleState,
        cfg: &EvalConfig,
        driver: &dyn DesignDriver,
    ) -> Result<StepOutcome, SessionError> {
        let srs = state.kind() == DesignKind::Srs;
        if state.n() < cfg.min_triples || (!srs && state.draws() < cfg.min_draws) {
            return Ok(StepOutcome::NotReady);
        }
        if self.skip_left > 0 {
            self.skip_left -= 1;
            return Ok(StepOutcome::Open);
        }
        let lookahead = cfg.stopping == StoppingPolicy::CertifiedLookahead;
        // Exact one-step gate: construct only when the current posterior
        // could actually stop.
        if !lookahead
            || self
                .method
                .stop_possible_now(state, cfg.alpha, cfg.epsilon, &self.solver)
        {
            let interval = self.interval(state, cfg.alpha)?;
            if interval.moe() <= cfg.epsilon {
                return Ok(StepOutcome::Stop(interval));
            }
        }
        if lookahead {
            self.skip_left = if srs {
                self.method
                    .certified_skip_srs(state, cfg.alpha, cfg.epsilon, &mut self.solver)
            } else {
                self.method.certified_skip_cluster(
                    state,
                    cfg.alpha,
                    cfg.epsilon,
                    driver.max_unit_size(),
                    matches!(driver.estimator(), UnitEstimator::HansenHurwitz { .. }),
                )
            };
        }
        Ok(StepOutcome::Open)
    }
}

/// Poll-based evaluation engine over any KG backend, sampling design
/// and interval method. See the module docs for the protocol.
pub struct EvaluationSession<'a, R: RngCore> {
    kg: &'a dyn KnowledgeGraph,
    driver: Box<dyn DesignDriver + Send + 'a>,
    design: SamplingDesign,
    cfg: EvalConfig,
    rng: R,
    state: SampleState,
    stop: StoppingStep,
    cost: CostTracker,
    cache: Option<LabelCache>,
    /// Whether the stopping rule has yet to be consulted (the next
    /// check is the one at the minimum-sample floor).
    first_check: bool,
    // Pending-batch bookkeeping. Buffers are reused across requests.
    pending: bool,
    batch_units: Vec<UnitMeta>,
    batch_triples: Vec<SampledTriple>,
    batch_fresh: Vec<bool>,
    batch_expected: usize,
    batch_requested: HashSet<u64>,
    unit_buf: Vec<SampledTriple>,
    outcome: Option<SessionOutcome>,
    batch_origin: Option<BatchOrigin>,
}

impl<'a, R: RngCore> EvaluationSession<'a, R> {
    /// Creates a session, preparing the design against the KG (builds
    /// the PPS table for PPS designs — O(#clusters); for repeated
    /// sessions over one KG prefer [`EvaluationSession::from_prepared`]).
    pub fn new(
        kg: &'a dyn KnowledgeGraph,
        design: SamplingDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: R,
    ) -> Self {
        Self::from_prepared(kg, &PreparedDesign::new(kg, design), method, cfg, rng)
    }

    /// Creates a session around prebuilt design resources; the PPS
    /// alias table is shared via `Arc`, never copied.
    pub fn from_prepared(
        kg: &'a dyn KnowledgeGraph,
        prepared: &PreparedDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: R,
    ) -> Self {
        let driver = build_driver(
            kg,
            prepared.design().spec(),
            prepared.pps(),
            Some(prepared.max_draw_size()),
        );
        Self::with_driver(kg, driver, prepared.design(), method, cfg, rng)
    }

    /// Creates a session over a caller-supplied driver (custom designs,
    /// bounded streams). `design` labels the session for snapshots and
    /// reporting; the driver's [`DesignDriver::estimator`] decides the
    /// estimation path.
    pub fn with_driver(
        kg: &'a dyn KnowledgeGraph,
        driver: Box<dyn DesignDriver + Send + 'a>,
        design: SamplingDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: R,
    ) -> Self {
        let (state, cache) = match driver.estimator() {
            UnitEstimator::Triple => (SampleState::new_srs(), None),
            // Flat two-bit seen/label cache over the whole KG; the
            // backing zeroed pages only materialize where sampled.
            UnitEstimator::SampleMean | UnitEstimator::HansenHurwitz { .. } => (
                SampleState::new_cluster(),
                Some(LabelCache::new(kg.num_triples())),
            ),
        };
        Self {
            kg,
            design,
            cfg: cfg.clone(),
            rng,
            state,
            stop: StoppingStep::new(method.clone()),
            cost: CostTracker::new(cfg.cost_model),
            cache,
            first_check: true,
            pending: false,
            batch_units: Vec::new(),
            batch_triples: Vec::new(),
            batch_fresh: Vec::new(),
            batch_expected: 0,
            batch_requested: HashSet::new(),
            unit_buf: Vec::new(),
            driver,
            outcome: None,
            batch_origin: None,
        }
    }

    /// Attaches a shared posterior-kernel cache: subsequent SRS interval
    /// constructions and lookahead certificates memoize through it.
    /// Purely a cost lever — outputs are bit-identical with or without
    /// one attached, and the cache is never serialized into snapshots.
    pub fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>) {
        self.stop.solver.attach_kernel(kernel);
    }

    /// The session's sampling design.
    #[must_use]
    pub fn design(&self) -> SamplingDesign {
        self.design
    }

    /// The knowledge graph under evaluation.
    #[must_use]
    pub fn kg(&self) -> &'a dyn KnowledgeGraph {
        self.kg
    }

    /// The session's interval method.
    #[must_use]
    pub fn method(&self) -> &IntervalMethod {
        &self.stop.method
    }

    /// The session's evaluation configuration.
    #[must_use]
    pub fn config(&self) -> &EvalConfig {
        &self.cfg
    }

    /// Whether an annotation request is outstanding (labels owed). A
    /// pending session cannot be snapshotted; session hosts check this
    /// before suspending instead of round-tripping through the error.
    #[must_use]
    pub fn has_pending_request(&self) -> bool {
        self.pending
    }

    /// The accumulated annotation tallies — the sufficient statistics
    /// behind the estimate (n, τ, per-draw moments). Read-only; hosts
    /// that pool several sessions (the stratified coordinator) read
    /// per-session variances from here instead of re-deriving them from
    /// rounded status fields.
    #[must_use]
    pub fn sample_state(&self) -> &SampleState {
        &self.state
    }

    /// Distinct triples annotated so far — the
    /// [`SessionStatus::annotated_triples`] field without paying a full
    /// [`EvaluationSession::status`] (which constructs an interval).
    #[must_use]
    pub fn annotated_triples(&self) -> u64 {
        match &self.outcome {
            Some(o) => o.result.annotated_triples,
            None => self.cost.triples(),
        }
    }

    /// Annotation cost so far in seconds (Eq. 12) — the
    /// [`SessionStatus::cost_seconds`] field without paying a full
    /// [`EvaluationSession::status`].
    #[must_use]
    pub fn cost_seconds(&self) -> f64 {
        match &self.outcome {
            Some(o) => o.result.cost_seconds,
            None => self.cost.seconds(),
        }
    }

    /// Mutable access to the session's RNG, for callers that interleave
    /// their own randomized work (e.g. simulated annotators) with the
    /// session's sampling on one deterministic stream — exactly what
    /// the legacy `evaluate` driver does to preserve its historical
    /// seed-for-seed behavior.
    pub fn rng_mut(&mut self) -> &mut R {
        &mut self.rng
    }

    /// Polls the session for the next annotation request, sampling up
    /// to `max_units` stage-1 units (at least one). Returns `Ok(None)`
    /// once the session has stopped — check [`EvaluationSession::status`]
    /// for the reason.
    ///
    /// Units beyond the eventual stopping unit are discarded at
    /// `submit` time, so the final result is independent of the batch
    /// size (the equivalence test pins this bit-for-bit).
    ///
    /// # Errors
    ///
    /// [`SessionError::RequestPending`] if labels for the previous
    /// request were never submitted; [`SessionError::Interval`] /
    /// [`SessionError::StreamEndedBeforeData`] if the unit stream ends
    /// and the exhaustion report cannot be built.
    pub fn next_request(
        &mut self,
        max_units: u64,
    ) -> Result<Option<AnnotationRequest>, SessionError> {
        let mut out = AnnotationRequest::default();
        Ok(self.next_request_into(max_units, &mut out)?.then_some(out))
    }

    /// Allocation-reusing variant of [`EvaluationSession::next_request`]:
    /// refills `out` and returns whether a request was produced
    /// (`false` = session stopped).
    ///
    /// # Errors
    ///
    /// As [`EvaluationSession::next_request`].
    pub fn next_request_into(
        &mut self,
        max_units: u64,
        out: &mut AnnotationRequest,
    ) -> Result<bool, SessionError> {
        out.triples.clear();
        out.units = 0;
        if self.outcome.is_some() {
            return Ok(false);
        }
        if self.pending {
            return Err(SessionError::RequestPending);
        }
        // Any rollback point belongs to a previous batch; the
        // cancellable wrapper re-records one for this batch.
        self.batch_origin = None;
        let max_units = max_units.max(1);
        self.batch_requested.clear();
        // Within a multi-unit batch, a triple re-drawn by a later unit
        // before its label arrives must not be requested twice; the
        // second occurrence reads the cache at processing time. A
        // single-unit batch has distinct triples, so the set is skipped
        // on the legacy hot path.
        let track_dupes = max_units > 1 && self.cache.is_some();
        while out.units < max_units {
            let Some(_cluster) = self.driver.next_unit(&mut self.rng, &mut self.unit_buf) else {
                break;
            };
            let start = self.batch_triples.len();
            for i in 0..self.unit_buf.len() {
                let st = self.unit_buf[i];
                let fresh = match &self.cache {
                    Some(cache) => {
                        cache.get(st.triple.index()).is_none()
                            && (!track_dupes || self.batch_requested.insert(st.triple.index()))
                    }
                    None => true,
                };
                self.batch_triples.push(st);
                self.batch_fresh.push(fresh);
                if fresh {
                    out.triples.push(st);
                }
            }
            self.batch_units.push(UnitMeta {
                start,
                end: self.batch_triples.len(),
            });
            out.units += 1;
        }
        if out.units == 0 {
            self.finish_exhausted()?;
            return Ok(false);
        }
        self.batch_expected = out.triples.len();
        self.pending = true;
        Ok(true)
    }

    /// Submits labels for the outstanding request, in request order.
    /// Units are processed one at a time with a stopping check after
    /// each; labels beyond the stopping unit are discarded.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`],
    /// [`SessionError::LabelCountMismatch`], or
    /// [`SessionError::Interval`] if an interval construction fails.
    pub fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        if !self.pending {
            return Err(SessionError::NoRequestPending);
        }
        if labels.len() != self.batch_expected {
            return Err(SessionError::LabelCountMismatch {
                expected: self.batch_expected,
                got: labels.len(),
            });
        }
        self.pending = false;
        self.batch_origin = None;
        let mut next_label = 0usize;
        let result = (|| {
            for i in 0..self.batch_units.len() {
                if self.outcome.is_some() {
                    break;
                }
                let unit = self.batch_units[i];
                self.process_unit(unit, labels, &mut next_label)?;
            }
            Ok(())
        })();
        self.batch_units.clear();
        self.batch_triples.clear();
        self.batch_fresh.clear();
        self.batch_expected = 0;
        result
    }

    /// Point-in-time view: estimate, interval, cost and stop state.
    ///
    /// On a running session the interval is constructed from a scratch
    /// copy of the solver state, so observing a session never perturbs
    /// its stopping trajectory.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        if let Some(o) = &self.outcome {
            return SessionStatus {
                estimate: Some(o.result.mu_hat),
                interval: Some(o.result.interval),
                observations: o.result.observations,
                annotated_triples: o.result.annotated_triples,
                stage1_draws: o.result.stage1_draws,
                cost_seconds: o.result.cost_seconds,
                stopped: Some(o.reason),
            };
        }
        let has_data = self.state.n() > 0;
        let estimate = has_data.then(|| self.state.effective().mu);
        let interval = if has_data {
            self.stop.interval(&self.state, self.cfg.alpha).ok()
        } else {
            None
        };
        SessionStatus {
            estimate,
            interval,
            observations: self.state.n(),
            annotated_triples: self.cost.triples(),
            stage1_draws: self.stage1_draws(),
            cost_seconds: self.cost.seconds(),
            stopped: None,
        }
    }

    /// Why the session stopped, or `None` while it is still running.
    #[must_use]
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.outcome.as_ref().map(|o| o.reason)
    }

    /// The final result once the session has stopped.
    #[must_use]
    pub fn result(&self) -> Option<&EvalResult> {
        self.outcome.as_ref().map(|o| &o.result)
    }

    /// Consumes the session, yielding the final result if it stopped.
    #[must_use]
    pub fn into_result(self) -> Option<EvalResult> {
        self.outcome.map(|o| o.result)
    }

    /// Runs a rival method's stopping step over this session's shared
    /// sample and design (the comparative engine's per-unit check).
    pub(crate) fn run_stopping_step(
        &self,
        step: &mut StoppingStep,
    ) -> Result<StepOutcome, SessionError> {
        step.run(&self.state, &self.cfg, &*self.driver)
    }

    fn stage1_draws(&self) -> u64 {
        match self.state.kind() {
            DesignKind::Srs => 0,
            DesignKind::Cluster => self.state.draws() as u64,
        }
    }

    /// Ends the session with the current point estimate `μ̂`.
    fn finish(
        &mut self,
        interval: Interval,
        reason: StopReason,
        converged: bool,
        halted_at_floor: bool,
    ) {
        self.outcome = Some(SessionOutcome {
            reason,
            result: EvalResult {
                mu_hat: self.state.effective().mu,
                interval,
                annotated_triples: self.cost.triples(),
                annotated_entities: self.cost.entities(),
                observations: self.state.n(),
                stage1_draws: self.stage1_draws(),
                cost_seconds: self.cost.seconds(),
                converged,
                halted_at_floor,
            },
        });
    }

    fn finish_exhausted(&mut self) -> Result<(), SessionError> {
        if self.state.n() == 0 {
            return Err(SessionError::StreamEndedBeforeData);
        }
        // "Population exhausted ⇒ exact estimate" only holds when every
        // triple really was annotated; a custom bounded triple-stream
        // driver that ends early must not be mistaken for a census.
        let full_census =
            self.state.kind() == DesignKind::Srs && self.cost.triples() == self.kg.num_triples();
        if full_census {
            // Whole KG annotated: the estimate is the population value
            // and the interval degenerates to a point.
            let mu = self.state.mu_hat();
            self.finish(
                Interval::new(mu, mu),
                StopReason::PopulationExhausted,
                true,
                false,
            );
        } else {
            let interval = self.stop.interval(&self.state, self.cfg.alpha)?;
            self.finish(interval, StopReason::StreamExhausted, false, false);
        }
        Ok(())
    }

    /// Advances the engine by one labeled unit — the exact state-update
    /// and stopping sequence of the legacy loop, shared by every
    /// design.
    fn process_unit(
        &mut self,
        unit: UnitMeta,
        labels: &[bool],
        next_label: &mut usize,
    ) -> Result<(), SessionError> {
        match self.state.kind() {
            DesignKind::Srs => {
                for i in unit.start..unit.end {
                    let st = self.batch_triples[i];
                    let label = labels[*next_label];
                    *next_label += 1;
                    self.state.record_triple(label);
                    self.cost.record(st.triple, st.cluster);
                }
            }
            DesignKind::Cluster => {
                let mut correct = 0u64;
                let size = (unit.end - unit.start) as u64;
                for i in unit.start..unit.end {
                    let st = self.batch_triples[i];
                    let t = st.triple.index();
                    let label = if self.batch_fresh[i] {
                        let l = labels[*next_label];
                        *next_label += 1;
                        self.cache
                            .as_mut()
                            .expect("cluster session has a cache")
                            .insert(t, l);
                        l
                    } else {
                        self.cache
                            .as_ref()
                            .expect("cluster session has a cache")
                            .get(t)
                            .expect("non-fresh triple is cached")
                    };
                    if label {
                        correct += 1;
                    }
                    self.cost.record(st.triple, st.cluster);
                }
                let per_draw = match self.driver.estimator() {
                    UnitEstimator::SampleMean => correct as f64 / size as f64,
                    UnitEstimator::HansenHurwitz { scale } => correct as f64 * scale,
                    UnitEstimator::Triple => unreachable!("cluster kind with triple estimator"),
                };
                self.state.record_cluster_draw(per_draw, correct, size);
            }
        }

        let step = self.stop.run(&self.state, &self.cfg, &*self.driver)?;
        if !matches!(step, StepOutcome::NotReady) {
            let at_floor = std::mem::replace(&mut self.first_check, false);
            if let StepOutcome::Stop(interval) = step {
                self.finish(interval, StopReason::MoeSatisfied, true, at_floor);
                return Ok(());
            }
        }
        let budget_spent = self
            .cfg
            .max_observations
            .is_some_and(|cap| self.state.n() >= cap)
            || self
                .cfg
                .max_cost_seconds
                .is_some_and(|cap| self.cost.seconds() >= cap);
        if budget_spent {
            let interval = self.stop.interval(&self.state, self.cfg.alpha)?;
            self.finish(interval, StopReason::BudgetExhausted, false, false);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Snapshot encode/decode (manual binary, serde-free).
// ---------------------------------------------------------------------

pub(crate) fn design_tag(design: SamplingDesign) -> (u8, u64) {
    match design {
        SamplingDesign::Srs => (0, 0),
        SamplingDesign::Twcs { m } => (1, m),
        SamplingDesign::Wcs => (2, 0),
        SamplingDesign::Scs => (3, 0),
    }
}

/// Inverse of [`design_tag`]: `None` for an unknown tag byte or an
/// invalid TWCS `m`.
pub(crate) fn design_from_tag(tag: u8, m: u64) -> Option<SamplingDesign> {
    match (tag, m) {
        (0, _) => Some(SamplingDesign::Srs),
        (1, m) if m > 0 => Some(SamplingDesign::Twcs { m }),
        (2, _) => Some(SamplingDesign::Wcs),
        (3, _) => Some(SamplingDesign::Scs),
        _ => None,
    }
}

/// Snapshot record-tag value marking a *stratified coordinator*
/// snapshot (`crate::stratified`), distinguishing it from the four
/// single-session design tags 0–3 in the shared `KGAESNAP` header.
pub(crate) const STRATIFIED_SNAPSHOT_TAG: u8 = 4;

/// Snapshot record-tag value marking a *comparative multi-method*
/// snapshot (`crate::comparative`).
pub(crate) const COMPARATIVE_SNAPSHOT_TAG: u8 = 5;

/// Snapshot record-tag value marking a *continuous monitor* snapshot
/// (`crate::monitor`).
pub(crate) const MONITOR_SNAPSHOT_TAG: u8 = 6;

pub(crate) fn method_tag(method: &IntervalMethod) -> u8 {
    match method {
        IntervalMethod::Wald => 0,
        IntervalMethod::Wilson => 1,
        IntervalMethod::Et(_) => 2,
        IntervalMethod::Hpd(_) => 3,
        IntervalMethod::AHpd(_) => 4,
    }
}

fn stopping_tag(policy: StoppingPolicy) -> u8 {
    match policy {
        StoppingPolicy::EveryUnit => 0,
        StoppingPolicy::CertifiedLookahead => 1,
    }
}

/// Consumes the shared `KGAESNAP` container prefix (magic + version)
/// and returns the record tag, leaving the reader positioned after it
/// — the single prefix parser behind every record type's peek/resume
/// and the engine registry.
pub(crate) fn read_record_prefix(r: &mut Reader<'_>) -> Result<u8, SessionError> {
    let corrupt = SessionError::CorruptSnapshot;
    if r.bytes(8).map_err(corrupt)? != SNAPSHOT_MAGIC {
        return Err(SessionError::CorruptSnapshot("bad magic"));
    }
    if r.u16().map_err(corrupt)? != SNAPSHOT_VERSION {
        return Err(SessionError::SnapshotMismatch("unsupported version"));
    }
    r.u8().map_err(corrupt)
}

/// Encodes an interval method's fingerprint (tag byte + prior
/// parameters) — the shape shared by every snapshot record type.
pub(crate) fn write_method_fingerprint(w: &mut Writer, method: &IntervalMethod) {
    w.u8(method_tag(method));
    let priors = method.priors().unwrap_or(&[]);
    w.u32(priors.len() as u32);
    for p in priors {
        w.f64(p.a);
        w.f64(p.b);
    }
}

/// Consumes a method fingerprint from the reader and reports whether it
/// matches `method` bit for bit.
pub(crate) fn method_fingerprint_matches(
    r: &mut Reader<'_>,
    method: &IntervalMethod,
) -> Result<bool, &'static str> {
    let priors = method.priors().unwrap_or(&[]);
    let mut matches = r.u8()? == method_tag(method) && r.u32()? as usize == priors.len();
    if matches {
        for p in priors {
            matches &= r.f64()?.to_bits() == p.a.to_bits() && r.f64()?.to_bits() == p.b.to_bits();
        }
    }
    Ok(matches)
}

/// Encodes an evaluation config's fingerprint — the shape shared by
/// plain-session and monitor records.
pub(crate) fn write_config_fingerprint(w: &mut Writer, cfg: &EvalConfig) {
    w.f64(cfg.alpha);
    w.f64(cfg.epsilon);
    w.u64(cfg.min_triples);
    w.u64(cfg.min_draws as u64);
    w.opt_u64(cfg.max_observations);
    w.opt_f64(cfg.max_cost_seconds);
    w.f64(cfg.cost_model.entity_seconds);
    w.f64(cfg.cost_model.triple_seconds);
    w.u64(cfg.cost_model.judgments_per_label);
    w.u8(stopping_tag(cfg.stopping));
}

/// Consumes a config fingerprint from the reader and reports whether it
/// matches `cfg` bit for bit (reading stops at the first mismatch).
pub(crate) fn config_fingerprint_matches(
    r: &mut Reader<'_>,
    cfg: &EvalConfig,
) -> Result<bool, &'static str> {
    Ok(r.f64()?.to_bits() == cfg.alpha.to_bits()
        && r.f64()?.to_bits() == cfg.epsilon.to_bits()
        && r.u64()? == cfg.min_triples
        && r.u64()? == cfg.min_draws as u64
        && r.opt_u64()? == cfg.max_observations
        && r.opt_f64()?.map(f64::to_bits) == cfg.max_cost_seconds.map(f64::to_bits)
        && r.f64()?.to_bits() == cfg.cost_model.entity_seconds.to_bits()
        && r.f64()?.to_bits() == cfg.cost_model.triple_seconds.to_bits()
        && r.u64()? == cfg.cost_model.judgments_per_label
        && r.u8()? == stopping_tag(cfg.stopping))
}

/// The identity prefix of a session snapshot: which design produced it
/// and the shape of the KG it belongs to. Enough for a snapshot store
/// to index and sanity-check dormant sessions without paying a full
/// [`EvaluationSession::resume`] (which still re-validates everything,
/// including config and method, on rehydration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The sampling design the suspended session was running.
    pub design: SamplingDesign,
    /// `num_triples` of the KG the session was evaluating.
    pub num_triples: u64,
    /// `num_clusters` of the KG the session was evaluating.
    pub num_clusters: u32,
}

/// Header parser behind the plain (tags 0–3) rows of the snapshot tag
/// registry.
pub(crate) fn peek_plain_header(bytes: &[u8]) -> Result<SnapshotHeader, SessionError> {
    let corrupt = SessionError::CorruptSnapshot;
    let mut r = Reader::new(bytes);
    let tag = read_record_prefix(&mut r)?;
    if tag == STRATIFIED_SNAPSHOT_TAG
        || tag == COMPARATIVE_SNAPSHOT_TAG
        || tag == MONITOR_SNAPSHOT_TAG
    {
        return Err(SessionError::SnapshotMismatch(
            "not a single-session snapshot; identify it with engine::peek_any_header",
        ));
    }
    let m = r.u64().map_err(corrupt)?;
    let design =
        design_from_tag(tag, m).ok_or(SessionError::CorruptSnapshot("unknown design tag"))?;
    Ok(SnapshotHeader {
        design,
        num_triples: r.u64().map_err(corrupt)?,
        num_clusters: r.u32().map_err(corrupt)?,
    })
}

impl<'a, R: SnapshotRng> EvaluationSession<'a, R> {
    /// Like [`EvaluationSession::next_request`], but first records a
    /// rollback point (RNG state + design-driver state), so the
    /// outstanding request can be withdrawn with
    /// [`EvaluationSession::cancel_request`]. The rollback point makes
    /// cancellation *exact*: a re-poll after cancel regenerates the
    /// bit-identical batch, which is what lets a server drain mid-batch
    /// sessions to disk without perturbing their trajectories.
    ///
    /// The capture costs one driver-state serialization per batch —
    /// negligible against network polling, which is why the network
    /// engines use this path while the in-process benchmark loops keep
    /// the plain one.
    ///
    /// # Errors
    ///
    /// As [`EvaluationSession::next_request`].
    pub fn next_request_cancellable(
        &mut self,
        max_units: u64,
    ) -> Result<Option<AnnotationRequest>, SessionError> {
        if self.outcome.is_some() {
            return Ok(None);
        }
        if self.pending {
            return Err(SessionError::RequestPending);
        }
        let rng = self.rng.save_state();
        let mut driver = Vec::new();
        self.driver.save_state(&mut driver);
        let request = self.next_request(max_units)?;
        if request.is_some() {
            self.batch_origin = Some(BatchOrigin { rng, driver });
        }
        Ok(request)
    }

    /// Withdraws the outstanding request by rewinding the RNG and
    /// design driver to their pre-draw states and discarding the batch
    /// buffers — afterwards the session snapshots cleanly, and the next
    /// poll regenerates the bit-identical batch.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`] without an outstanding
    /// request; [`SessionError::SnapshotUnavailable`] when the request
    /// was polled through the plain (non-cancellable) path and no
    /// rollback point exists.
    pub fn cancel_request(&mut self) -> Result<(), SessionError> {
        if !self.pending {
            return Err(SessionError::NoRequestPending);
        }
        let Some(origin) = self.batch_origin.take() else {
            return Err(SessionError::SnapshotUnavailable(
                "request was not polled through the cancellable path",
            ));
        };
        self.rng.load_state(origin.rng);
        self.driver
            .restore_state(&origin.driver)
            .map_err(|_| SessionError::CorruptSnapshot("cancel rollback driver state"))?;
        self.pending = false;
        self.batch_units.clear();
        self.batch_triples.clear();
        self.batch_fresh.clear();
        self.batch_expected = 0;
        Ok(())
    }

    /// Serializes the session's complete dynamic state into a compact
    /// binary snapshot. The encoding is canonical: identical logical
    /// state yields identical bytes.
    ///
    /// The snapshot embeds fingerprints of the design, KG shape,
    /// configuration and method; [`EvaluationSession::resume`]
    /// validates them, so a snapshot cannot silently resume against the
    /// wrong setup. See the README for the byte layout.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while a request is
    /// outstanding (submit its labels first) or after the session has
    /// stopped (read [`EvaluationSession::result`] instead).
    pub fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.pending {
            return Err(SessionError::SnapshotUnavailable(
                "a request is outstanding; submit its labels first",
            ));
        }
        if self.outcome.is_some() {
            return Err(SessionError::SnapshotUnavailable(
                "session already stopped; read its result instead",
            ));
        }
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        // Design + KG fingerprint.
        let (tag, m) = design_tag(self.design);
        w.u8(tag);
        w.u64(m);
        w.u64(self.kg.num_triples());
        w.u32(self.kg.num_clusters());
        write_config_fingerprint(&mut w, &self.cfg);
        write_method_fingerprint(&mut w, &self.stop.method);
        // RNG.
        for word in self.rng.save_state() {
            w.u64(word);
        }
        // Loop scheduling state.
        w.u64(self.stop.skip_left);
        w.bool(self.first_check);
        // Sample state.
        w.u64(self.state.n());
        w.u64(self.state.tau());
        let (mn, mmean, mm2) = self.state.moments().raw_parts();
        w.u64(mn);
        w.f64(mmean);
        w.f64(mm2);
        // Cost sets (sorted ⇒ canonical bytes).
        let entities = self.cost.entity_ids_sorted();
        w.u32(entities.len() as u32);
        for e in entities {
            w.u32(e);
        }
        let triples = self.cost.triple_ids_sorted();
        w.u64(triples.len() as u64);
        // Labels ride along with the triple ids (cluster designs only;
        // SRS aggregates labels into (τ, n) and never re-reads them).
        w.bool(self.cache.is_some());
        for t in &triples {
            w.u64(*t);
            if let Some(cache) = &self.cache {
                w.bool(cache.get(*t).expect("annotated triple has a cached label"));
            }
        }
        // Driver stream state (length-prefixed, driver-defined).
        let mut driver_state = Vec::new();
        self.driver.save_state(&mut driver_state);
        w.u64(driver_state.len() as u64);
        w.bytes(&driver_state);
        Ok(w.into_bytes())
    }

    /// Reconstructs a suspended session from a snapshot, validating it
    /// against the supplied KG, prepared design, method and config. The
    /// passed `rng`'s state is overwritten from the snapshot; the
    /// resumed session continues the exact stream — and hence the exact
    /// evaluation trajectory — of the suspended one.
    ///
    /// Standard drivers are rebuilt from `prepared`. Custom driver
    /// configuration (e.g. [`kgae_sampling::driver::ScsDriver::limit_draws`])
    /// is not part of
    /// the snapshot — resume such sessions through
    /// [`EvaluationSession::resume_with_driver`] with an identically
    /// configured driver.
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes;
    /// [`SessionError::SnapshotMismatch`] when the snapshot belongs to
    /// a different design, KG shape, config or method.
    pub fn resume(
        kg: &'a dyn KnowledgeGraph,
        prepared: &PreparedDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: R,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        Self::from_prepared(kg, prepared, method, cfg, rng).apply_snapshot(bytes)
    }

    /// [`EvaluationSession::resume`] for sessions created through
    /// [`EvaluationSession::with_driver`]: the caller rebuilds the
    /// driver with its full configuration (e.g. a draw limit) and the
    /// snapshot restores the driver's dynamic state on top. The
    /// `design` label must match the one the session was created with —
    /// it is fingerprint-checked against the snapshot.
    ///
    /// # Errors
    ///
    /// As [`EvaluationSession::resume`].
    pub fn resume_with_driver(
        kg: &'a dyn KnowledgeGraph,
        driver: Box<dyn DesignDriver + Send + 'a>,
        design: SamplingDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: R,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        Self::with_driver(kg, driver, design, method, cfg, rng).apply_snapshot(bytes)
    }

    /// Parses and validates `bytes` against this freshly constructed
    /// session's own design/KG/config/method, then overwrites the
    /// session's dynamic state with the snapshot's.
    fn apply_snapshot(mut self, bytes: &[u8]) -> Result<Self, SessionError> {
        let (kg, cfg, method) = (self.kg, &self.cfg, &self.stop.method);
        let corrupt = SessionError::CorruptSnapshot;
        let mut r = Reader::new(bytes);
        let tag = read_record_prefix(&mut r)?;
        let (want_tag, want_m) = design_tag(self.design);
        if tag != want_tag || r.u64().map_err(corrupt)? != want_m {
            return Err(SessionError::SnapshotMismatch("sampling design differs"));
        }
        if r.u64().map_err(corrupt)? != kg.num_triples()
            || r.u32().map_err(corrupt)? != kg.num_clusters()
        {
            return Err(SessionError::SnapshotMismatch("KG shape differs"));
        }
        if !config_fingerprint_matches(&mut r, cfg).map_err(corrupt)? {
            return Err(SessionError::SnapshotMismatch("evaluation config differs"));
        }
        if !method_fingerprint_matches(&mut r, method).map_err(corrupt)? {
            return Err(SessionError::SnapshotMismatch("interval method differs"));
        }

        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64().map_err(corrupt)?;
        }
        let skip_left = r.u64().map_err(corrupt)?;
        let first_check = r.bool().map_err(corrupt)?;
        let n = r.u64().map_err(corrupt)?;
        let tau = r.u64().map_err(corrupt)?;
        if tau > n {
            return Err(SessionError::CorruptSnapshot("tau exceeds n"));
        }
        let mn = r.u64().map_err(corrupt)?;
        let mmean = r.f64().map_err(corrupt)?;
        let mm2 = r.f64().map_err(corrupt)?;
        let ent_len = r.u32().map_err(corrupt)? as usize;
        if ent_len as u64 > u64::from(kg.num_clusters()) {
            return Err(SessionError::CorruptSnapshot("too many entities"));
        }
        let mut entities = Vec::with_capacity(ent_len);
        for _ in 0..ent_len {
            let e = r.u32().map_err(corrupt)?;
            if e >= kg.num_clusters() {
                return Err(SessionError::CorruptSnapshot("entity id out of range"));
            }
            entities.push(e);
        }
        let tri_len = r.len_capped(kg.num_triples()).map_err(corrupt)?;
        let has_labels = r.bool().map_err(corrupt)?;
        let mut triples = Vec::with_capacity(tri_len);
        let mut labels = Vec::with_capacity(if has_labels { tri_len } else { 0 });
        for _ in 0..tri_len {
            let t = r.u64().map_err(corrupt)?;
            if t >= kg.num_triples() {
                return Err(SessionError::CorruptSnapshot("triple id out of range"));
            }
            triples.push(t);
            if has_labels {
                labels.push(r.bool().map_err(corrupt)?);
            }
        }
        let driver_len = r.len_capped(bytes.len() as u64).map_err(corrupt)?;
        let driver_state = r.bytes(driver_len).map_err(corrupt)?.to_vec();
        r.finish().map_err(corrupt)?;

        if has_labels != self.cache.is_some() {
            return Err(SessionError::CorruptSnapshot(
                "label presence disagrees with the design",
            ));
        }
        self.rng.load_state(rng_state);
        self.stop.skip_left = skip_left;
        self.first_check = first_check;
        self.state = SampleState::from_parts(
            self.state.kind(),
            n,
            tau,
            OnlineMoments::from_raw_parts(mn, mmean, mm2),
        );
        self.cost = CostTracker::from_saved(self.cfg.cost_model, &entities, &triples);
        if let Some(cache) = &mut self.cache {
            for (t, label) in triples.iter().zip(&labels) {
                cache.insert(*t, *label);
            }
        }
        self.driver
            .restore_state(&driver_state)
            .map_err(|e| SessionError::CorruptSnapshot(e.0))?;
        Ok(self)
    }
}

// Sessions are sent across threads by multi-tenant session hosts (one
// thread creates, another submits); the driver box carries `Send` so
// the whole engine is `Send` whenever its RNG is.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EvaluationSession<'_, SmallRng>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::{Annotator, OracleAnnotator};
    use kgae_graph::GroundTruth;
    use kgae_sampling::driver::ScsDriver;
    use rand::SeedableRng;

    fn drive_to_completion(
        kg: &(impl KnowledgeGraph + GroundTruth),
        session: &mut EvaluationSession<'_, SmallRng>,
        batch: u64,
    ) -> EvalResult {
        let mut req = AnnotationRequest::default();
        let mut labels = Vec::new();
        while session.next_request_into(batch, &mut req).unwrap() {
            labels.clear();
            labels.extend(req.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).unwrap();
        }
        session.result().unwrap().clone()
    }

    #[test]
    fn session_protocol_errors() {
        let kg = kgae_graph::datasets::nell();
        let mut s = EvaluationSession::new(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            SmallRng::seed_from_u64(1),
        );
        assert!(matches!(
            s.submit(&[true]),
            Err(SessionError::NoRequestPending)
        ));
        let req = s.next_request(4).unwrap().unwrap();
        assert_eq!(req.units, 4);
        assert_eq!(req.triples.len(), 4);
        assert!(matches!(
            s.next_request(1),
            Err(SessionError::RequestPending)
        ));
        assert!(matches!(
            s.snapshot(),
            Err(SessionError::SnapshotUnavailable(_))
        ));
        assert!(matches!(
            s.submit(&[true]),
            Err(SessionError::LabelCountMismatch {
                expected: 4,
                got: 1
            })
        ));
        s.submit(&[true, true, false, true]).unwrap();
        let st = s.status();
        assert_eq!(st.observations, 4);
        assert!(st.stopped.is_none());
        assert!((st.estimate.unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn session_runs_to_moe_convergence() {
        let kg = kgae_graph::datasets::nell();
        let mut s = EvaluationSession::new(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            SmallRng::seed_from_u64(7),
        );
        let r = drive_to_completion(&kg, &mut s, 16);
        assert!(r.converged);
        assert!(r.interval.moe() <= 0.05 + 1e-12);
        assert_eq!(s.stop_reason(), Some(StopReason::MoeSatisfied));
        // Stopped sessions politely decline further requests.
        assert!(s.next_request(1).unwrap().is_none());
        let st = s.status();
        assert_eq!(st.stopped, Some(StopReason::MoeSatisfied));
        assert_eq!(st.observations, r.observations);
    }

    #[test]
    fn bounded_scs_stream_reports_exhaustion_not_panic() {
        // The stopping rule can never fire at ε = 0.0005 on FACTBENCH;
        // a 40-draw SCS stream must end in StreamExhausted.
        let kg = kgae_graph::datasets::factbench();
        let cfg = EvalConfig {
            epsilon: 0.000_5,
            ..EvalConfig::default()
        };
        let method = IntervalMethod::Wilson;
        let driver = Box::new(ScsDriver::new(&kg).limit_draws(40));
        let mut s = EvaluationSession::with_driver(
            &kg,
            driver,
            SamplingDesign::Scs,
            &method,
            &cfg,
            SmallRng::seed_from_u64(3),
        );
        let r = drive_to_completion(&kg, &mut s, 8);
        assert!(!r.converged);
        assert_eq!(s.stop_reason(), Some(StopReason::StreamExhausted));
        assert_eq!(r.stage1_draws, 40);
        assert!(r.interval.moe() > 0.000_5);
        // Sticky: polling again still reports the stop.
        assert!(s.next_request(4).unwrap().is_none());
    }

    #[test]
    fn fully_cached_cluster_units_need_no_labels() {
        // A 1-cluster KG: after the first WCS draw annotates the whole
        // cluster, every further draw is fully cached and the request
        // carries units but no triples.
        let kg = kgae_graph::compact::CompactKg::new(
            &[12],
            kgae_graph::compact::LabelStore::Hashed { seed: 2, rate: 0.8 },
        );
        let cfg = EvalConfig {
            max_observations: Some(60),
            ..EvalConfig::default()
        };
        let mut s = EvaluationSession::new(
            &kg,
            SamplingDesign::Wcs,
            &IntervalMethod::Wilson,
            &cfg,
            SmallRng::seed_from_u64(5),
        );
        let req = s.next_request(1).unwrap().unwrap();
        assert_eq!(req.triples.len(), 12);
        let labels: Vec<bool> = req
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        s.submit(&labels).unwrap();
        let req2 = s.next_request(1).unwrap().unwrap();
        assert_eq!(req2.units, 1);
        assert!(req2.triples.is_empty(), "re-draw is fully cached");
        s.submit(&[]).unwrap();
        assert_eq!(s.status().observations, 24);
    }

    #[test]
    fn duplicate_triples_across_batched_units_are_requested_once() {
        // Tiny KG, huge batch: the same cluster is re-drawn many times
        // within one request; each triple must be asked for once.
        let kg = kgae_graph::compact::CompactKg::new(
            &[3, 2],
            kgae_graph::compact::LabelStore::Hashed { seed: 4, rate: 0.6 },
        );
        let cfg = EvalConfig {
            max_observations: Some(500),
            ..EvalConfig::default()
        };
        let mut s = EvaluationSession::new(
            &kg,
            SamplingDesign::Scs,
            &IntervalMethod::Wilson,
            &cfg,
            SmallRng::seed_from_u64(9),
        );
        let req = s.next_request(64).unwrap().unwrap();
        assert_eq!(req.units, 64);
        let mut seen = std::collections::HashSet::new();
        for st in &req.triples {
            assert!(seen.insert(st.triple), "triple requested twice");
        }
        assert!(req.triples.len() <= 5);
        let labels: Vec<bool> = req
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        s.submit(&labels).unwrap();
    }

    #[test]
    fn rng_mut_supports_simulated_annotators() {
        let kg = kgae_graph::datasets::yago();
        let annotator = crate::annotator::NoisyAnnotator::new(0.1);
        let mut s = EvaluationSession::new(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            SmallRng::seed_from_u64(11),
        );
        let mut labels = Vec::new();
        let mut req = AnnotationRequest::default();
        while s.next_request_into(1, &mut req).unwrap() {
            labels.clear();
            for st in &req.triples {
                let truth = kg.is_correct(st.triple);
                labels.push(annotator.annotate(truth, s.rng_mut()));
            }
            s.submit(&labels).unwrap();
        }
        assert!(s.result().unwrap().converged);
    }

    #[test]
    fn snapshot_rejects_wrong_setup_on_resume() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
        let mut s = EvaluationSession::from_prepared(
            &kg,
            &prepared,
            &method,
            &cfg,
            SmallRng::seed_from_u64(13),
        );
        let req = s.next_request(4).unwrap().unwrap();
        let labels: Vec<bool> = req
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        s.submit(&labels).unwrap();
        let snap = s.snapshot().unwrap();

        // Wrong design.
        let wrong_design = PreparedDesign::new(&kg, SamplingDesign::Wcs);
        assert!(matches!(
            EvaluationSession::resume(
                &kg,
                &wrong_design,
                &method,
                &cfg,
                SmallRng::seed_from_u64(0),
                &snap
            ),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong config.
        let wrong_cfg = cfg.clone().with_alpha(0.10);
        assert!(matches!(
            EvaluationSession::resume(
                &kg,
                &prepared,
                &method,
                &wrong_cfg,
                SmallRng::seed_from_u64(0),
                &snap
            ),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong method.
        assert!(matches!(
            EvaluationSession::resume(
                &kg,
                &prepared,
                &IntervalMethod::Wilson,
                &cfg,
                SmallRng::seed_from_u64(0),
                &snap
            ),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong KG shape.
        let other = kgae_graph::datasets::yago();
        let other_prepared = PreparedDesign::new(&other, SamplingDesign::Twcs { m: 3 });
        assert!(matches!(
            EvaluationSession::resume(
                &other,
                &other_prepared,
                &method,
                &cfg,
                SmallRng::seed_from_u64(0),
                &snap
            ),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Truncated bytes.
        assert!(matches!(
            EvaluationSession::resume(
                &kg,
                &prepared,
                &method,
                &cfg,
                SmallRng::seed_from_u64(0),
                &snap[..snap.len() - 3]
            ),
            Err(SessionError::CorruptSnapshot(_))
        ));
        // The original session is unperturbed and still resumable.
        let resumed = EvaluationSession::resume(
            &kg,
            &prepared,
            &method,
            &cfg,
            SmallRng::seed_from_u64(0),
            &snap,
        )
        .unwrap();
        assert_eq!(resumed.status().observations, s.status().observations);
    }

    #[test]
    fn custom_driver_sessions_resume_with_their_configuration_intact() {
        // A bounded SCS stream suspended mid-run and resumed through
        // resume_with_driver keeps its draw limit: the resumed session
        // must exhaust at the same draw count as an uninterrupted one.
        let kg = kgae_graph::datasets::factbench();
        let cfg = EvalConfig {
            epsilon: 0.000_5,
            ..EvalConfig::default()
        };
        let method = IntervalMethod::Wilson;
        let limit = 25u64;

        let run = |interrupt: bool| {
            let mut s = EvaluationSession::with_driver(
                &kg,
                Box::new(ScsDriver::new(&kg).limit_draws(limit)),
                SamplingDesign::Scs,
                &method,
                &cfg,
                SmallRng::seed_from_u64(31),
            );
            let mut req = AnnotationRequest::default();
            let mut labels = Vec::new();
            let mut batches = 0;
            while s.next_request_into(4, &mut req).unwrap() {
                labels.clear();
                labels.extend(req.triples.iter().map(|st| kg.is_correct(st.triple)));
                s.submit(&labels).unwrap();
                batches += 1;
                if interrupt && batches == 3 {
                    let bytes = s.snapshot().unwrap();
                    s = EvaluationSession::resume_with_driver(
                        &kg,
                        Box::new(ScsDriver::new(&kg).limit_draws(limit)),
                        SamplingDesign::Scs,
                        &method,
                        &cfg,
                        SmallRng::seed_from_u64(0),
                        &bytes,
                    )
                    .unwrap();
                }
            }
            (s.stop_reason().unwrap(), s.into_result().unwrap())
        };

        let (straight_reason, straight) = run(false);
        let (resumed_reason, resumed) = run(true);
        assert_eq!(straight_reason, StopReason::StreamExhausted);
        assert_eq!(resumed_reason, StopReason::StreamExhausted);
        assert_eq!(straight.stage1_draws, limit);
        assert_eq!(straight, resumed, "suspend/resume changed the bounded run");
    }

    #[test]
    fn snapshot_header_peek_reports_identity_without_resume() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let design = SamplingDesign::Twcs { m: 3 };
        let mut s = EvaluationSession::new(&kg, design, &method, &cfg, SmallRng::seed_from_u64(2));
        let req = s.next_request(3).unwrap().unwrap();
        let labels: Vec<bool> = req
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        s.submit(&labels).unwrap();
        let snap = s.snapshot().unwrap();
        let header = match crate::engine::peek_any_header(&snap).unwrap() {
            crate::engine::AnyHeader::Plain(h) => h,
            other => panic!("plain snapshot identified as {:?}", other.kind()),
        };
        assert_eq!(header.design, design);
        assert_eq!(header.num_triples, kg.num_triples());
        assert_eq!(header.num_clusters, kg.num_clusters());
        // Corrupt / truncated prefixes fail loudly.
        assert!(matches!(
            crate::engine::peek_any_header(&snap[..9]),
            Err(SessionError::CorruptSnapshot(_))
        ));
        let mut bad_magic = snap.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            crate::engine::peek_any_header(&bad_magic),
            Err(SessionError::CorruptSnapshot(_))
        ));
        let mut bad_tag = snap;
        bad_tag[10] = 200; // design tag byte
        assert!(matches!(
            crate::engine::peek_any_header(&bad_tag),
            Err(SessionError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn legacy_driver_loop_matches_framework_evaluate() {
        // The rebuilt evaluate() is a session in disguise; driving a
        // session by hand with batch 1 and the oracle must agree with
        // it bit for bit.
        let kg = kgae_graph::datasets::dbpedia();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        for seed in [0u64, 3, 17] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let legacy = crate::framework::evaluate(
                &kg,
                &OracleAnnotator,
                SamplingDesign::Twcs { m: 3 },
                &method,
                &cfg,
                &mut rng,
            )
            .unwrap();
            let mut s = EvaluationSession::new(
                &kg,
                SamplingDesign::Twcs { m: 3 },
                &method,
                &cfg,
                SmallRng::seed_from_u64(seed),
            );
            let manual = drive_to_completion(&kg, &mut s, 1);
            assert_eq!(legacy, manual, "seed {seed}");
        }
    }
}
