//! The poll-based evaluation engine: paper Figure 1 inverted into a
//! state machine.
//!
//! The closed-loop [`crate::framework::evaluate`] owns the control flow:
//! it calls a synchronous in-process [`crate::Annotator`] and only
//! returns once the stopping rule fires. Real annotation —
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
//! SRS/cluster control paths. A session owns its [`SmallRng`], so its
//! draws follow from the seed alone: units are processed one at a time
//! in submission order, and the batch size never moves a stopping
//! decision. [`crate::framework::evaluate`] is itself a client that
//! polls a session of its seed one unit at a time.
//!
//! Sessions also suspend and resume. A session's state is a pure
//! function of the units it drew and the labels they got, so
//! [`EvaluationSession::snapshot`] writes only the fingerprints, the
//! RNG state the session started from, the number of absorbed units and
//! the fresh labels in draw order, one bit each (manual binary, no
//! serde). [`EvaluationSession::resume`] builds a fresh session and
//! replays that log, so it continues the exact trajectory of the
//! suspended one.

use crate::cost::CostTracker;
use crate::framework::{EvalConfig, EvalResult, PreparedDesign, SamplingDesign, StoppingPolicy};
use crate::method::{IntervalMethod, StoppingBoundary};
use crate::snapshot::{LabelLog, Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use crate::state::{DesignKind, SampleState};
use kgae_graph::{KnowledgeGraph, LabelCache};
use kgae_intervals::{Interval, IntervalError, Kernel, KernelCache};
use kgae_sampling::driver::{DesignDriver, UnitEstimator};
use kgae_sampling::SampledTriple;
use kgae_stats::dist::upper_normal_quantile;
use kgae_stats::hash::BuildIntHasher;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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

impl SessionStatus {
    /// The status of an engine that stopped for `reason` with `result`.
    #[must_use]
    pub fn stopped(result: &EvalResult, reason: StopReason) -> Self {
        Self {
            estimate: Some(result.mu_hat),
            interval: Some(result.interval),
            observations: result.observations,
            annotated_triples: result.annotated_triples,
            stage1_draws: result.stage1_draws,
            cost_seconds: result.cost_seconds,
            stopped: Some(reason),
        }
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

/// One method's stopping rule over a sample: the method, its stopping
/// boundary, the kernel cache its SRS interval solves memoize through
/// and its SRS lookahead countdown. A session runs one for
/// its own method; a comparative campaign runs one per rival method over
/// the primary session's sample.
pub(crate) struct StoppingStep {
    pub(crate) method: IntervalMethod,
    /// The method's stopping boundary at the campaign's `(α, ε)`,
    /// resolved once (`None` for methods without a certificate).
    boundary: Option<StoppingBoundary>,
    /// Shared posterior-kernel cache. `None` solves every kernel
    /// directly through the same canonical functions — identical bits,
    /// no memoization. Never serialized: a resumed session re-attaches
    /// the host's cache (or none).
    pub(crate) kernel: Option<Arc<KernelCache>>,
    /// SRS annotations left before the next stopping check (certified
    /// unreachable in between; always 0 under cluster designs). Never
    /// serialized: a resumed step checks its next unit afresh, which
    /// stops where the countdown would.
    skip_left: u64,
}

/// What one [`StoppingStep::run`] found.
pub(crate) enum StepOutcome {
    /// Below the minimum sample ([`ready`]): no check was due.
    NotReady,
    /// A check was due and `MoE ≤ ε` did not fire.
    Open,
    /// `MoE ≤ ε` fired with this interval.
    Stop(Interval),
}

impl StoppingStep {
    pub(crate) fn new(method: IntervalMethod, cfg: &EvalConfig) -> Self {
        Self {
            boundary: method.stopping_boundary(cfg.alpha, cfg.epsilon),
            method,
            kernel: None,
            skip_left: 0,
        }
    }

    /// The dispatch handle for this step's SRS kernel solves.
    fn kernel(&self) -> Kernel<'_> {
        Kernel::new(self.kernel.as_deref())
    }

    /// The method's `1-α` interval over `state`.
    pub(crate) fn interval(
        &self,
        state: &SampleState,
        alpha: f64,
    ) -> Result<Interval, IntervalError> {
        self.method.interval_stateful(state, alpha, self.kernel())
    }

    /// The stopping sequence after one labeled unit: readiness gate
    /// (≥ `min_triples`, and ≥ `min_draws` stage-1 draws under cluster
    /// designs so the variance estimator exists), SRS lookahead
    /// countdown, exact one-step gate, interval construction and MoE
    /// check, then the certified SRS skip, capped at the `population`'s
    /// triples not yet annotated. A cluster draw runs the gate every
    /// time. The [`StoppingPolicy::EveryUnit`] reference path constructs
    /// the interval at every check and never skips.
    pub(crate) fn run(
        &mut self,
        state: &SampleState,
        cfg: &EvalConfig,
        population: u64,
    ) -> Result<StepOutcome, SessionError> {
        if !ready(state, cfg) {
            return Ok(StepOutcome::NotReady);
        }
        if self.skip_left > 0 {
            self.skip_left -= 1;
            return Ok(StepOutcome::Open);
        }
        let lookahead = cfg.stopping == StoppingPolicy::CertifiedLookahead;
        // Exact one-step gate: construct only when the current posterior
        // could actually stop.
        let possible = !lookahead
            || self
                .boundary
                .as_ref()
                .is_none_or(|boundary| match state.kind() {
                    DesignKind::Srs => boundary.stop_possible_now(state.tau(), state.n()),
                    DesignKind::Cluster => {
                        let eff = state.effective();
                        boundary.stop_possible_effective(eff.mu, eff.n_eff)
                    }
                });
        if possible {
            let interval = self.interval(state, cfg.alpha)?;
            if interval.moe() <= cfg.epsilon {
                return Ok(StepOutcome::Stop(interval));
            }
        }
        if lookahead && state.kind() == DesignKind::Srs {
            self.skip_left = self.boundary.as_ref().map_or(0, |boundary| {
                boundary.certified_skip(
                    state.tau(),
                    state.n(),
                    population.saturating_sub(state.n()),
                )
            });
        }
        Ok(StepOutcome::Open)
    }
}

/// Whether `state` has reached the minimum sample at which the stopping
/// rule is consulted: ≥ `min_triples`, and ≥ `min_draws` stage-1 draws
/// under cluster designs so the variance estimator exists. Readiness
/// only grows as units are absorbed.
fn ready(state: &SampleState, cfg: &EvalConfig) -> bool {
    state.n() >= cfg.min_triples
        && (state.kind() == DesignKind::Srs || state.draws() >= cfg.min_draws)
}

/// Poll-based evaluation engine over any KG backend, sampling design
/// and interval method. See the module docs for the protocol.
pub struct EvaluationSession<'a> {
    kg: &'a dyn KnowledgeGraph,
    driver: Box<dyn DesignDriver + Send + 'a>,
    design: SamplingDesign,
    cfg: EvalConfig,
    rng: SmallRng,
    /// The RNG state at construction: with `log`, the whole record a
    /// snapshot needs.
    origin: [u64; 4],
    /// Fresh labels absorbed so far, in draw order.
    log: LabelLog,
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
    batch_expected: usize,
    batch_requested: HashSet<u64, BuildIntHasher>,
    unit_buf: Vec<SampledTriple>,
    outcome: Option<SessionOutcome>,
}

impl<'a> EvaluationSession<'a> {
    /// Creates a session, preparing the design against the KG (builds
    /// the PPS table for PPS designs — O(#clusters); for repeated
    /// sessions over one KG prefer [`EvaluationSession::from_prepared`]).
    pub fn new(
        kg: &'a dyn KnowledgeGraph,
        design: SamplingDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: SmallRng,
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
        rng: SmallRng,
    ) -> Self {
        Self::with_driver(kg, prepared.driver(kg), prepared.design(), method, cfg, rng)
    }

    /// Creates a session over a caller-supplied driver (custom designs,
    /// bounded streams). `design` labels the session for snapshots and
    /// reporting; the driver's [`DesignDriver::estimator`] decides the
    /// estimation path.
    pub fn with_driver(
        kg: &'a dyn KnowledgeGraph,
        mut driver: Box<dyn DesignDriver + Send + 'a>,
        design: SamplingDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: SmallRng,
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
        let stop = StoppingStep::new(method.clone(), cfg);
        let mut cost = CostTracker::new(cfg.cost_model);
        cost.reserve(driver.reserve(reserved_units(cfg)));
        Self {
            kg,
            design,
            cfg: cfg.clone(),
            origin: rng.state(),
            rng,
            log: LabelLog::default(),
            state,
            stop,
            cost,
            cache,
            first_check: true,
            pending: false,
            batch_units: Vec::new(),
            batch_triples: Vec::new(),
            batch_expected: 0,
            batch_requested: HashSet::default(),
            unit_buf: Vec::new(),
            driver,
            outcome: None,
        }
    }

    /// Attaches a shared posterior-kernel cache: subsequent SRS interval
    /// constructions memoize through it. (The stopping certificates read
    /// the shared stopping-boundary table, cache or not.)
    /// Purely a cost lever — outputs are bit-identical with or without
    /// one attached, and the cache is never serialized into snapshots.
    pub fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>) {
        self.stop.kernel = Some(kernel);
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
        let max_units = max_units.max(1);
        self.batch_requested.clear();
        // Within a multi-unit batch, a triple re-drawn by a later unit
        // before its label arrives must not be requested twice; the
        // second occurrence reads the cache at processing time. A
        // single-unit batch has distinct triples, so the set is skipped
        // on the batch-1 hot path.
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
        let triples = std::mem::take(&mut self.batch_triples);
        let mut labels = labels.iter().copied();
        let result = (|| {
            for i in 0..self.batch_units.len() {
                if self.outcome.is_some() {
                    break;
                }
                let unit = self.batch_units[i];
                self.process_unit(&triples[unit.start..unit.end], &mut labels)?;
            }
            Ok(())
        })();
        self.batch_triples = triples;
        self.batch_triples.clear();
        self.batch_units.clear();
        self.batch_expected = 0;
        result
    }

    /// Point-in-time view: estimate, interval, cost and stop state.
    ///
    /// On a running session the interval is built from the sample counts
    /// alone, so observing a session never perturbs its stopping
    /// trajectory.
    #[must_use]
    pub fn status(&self) -> SessionStatus {
        if let Some(o) = &self.outcome {
            return SessionStatus::stopped(&o.result, o.reason);
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
        step.run(&self.state, &self.cfg, self.kg.num_triples())
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

    /// Advances the engine by one labeled unit — the state-update and
    /// stopping sequence of Figure 1, shared by every design.
    fn process_unit(
        &mut self,
        triples: &[SampledTriple],
        labels: &mut impl Iterator<Item = bool>,
    ) -> Result<(), SessionError> {
        let absorbed = self.absorb(triples, labels);
        debug_assert!(absorbed, "submit checked the label count");
        let step = self
            .stop
            .run(&self.state, &self.cfg, self.kg.num_triples())?;
        if !matches!(step, StepOutcome::NotReady) {
            let at_floor = std::mem::replace(&mut self.first_check, false);
            if let StepOutcome::Stop(interval) = step {
                self.finish(interval, StopReason::MoeSatisfied, true, at_floor);
                return Ok(());
            }
        }
        if self.budget_spent() {
            let interval = self.stop.interval(&self.state, self.cfg.alpha)?;
            self.finish(interval, StopReason::BudgetExhausted, false, false);
        }
        Ok(())
    }

    /// Folds one drawn unit into the sample, the cost sets and the label
    /// cache. Every triple not labeled before takes the next label from
    /// `labels`, which is logged; a cluster re-draw reads the cache.
    /// Returns `false` if `labels` ran out.
    fn absorb(
        &mut self,
        triples: &[SampledTriple],
        labels: &mut impl Iterator<Item = bool>,
    ) -> bool {
        match &mut self.cache {
            None => {
                for st in triples {
                    let Some(label) = labels.next() else {
                        return false;
                    };
                    self.log.push(label);
                    self.state.record_triple(label);
                    self.cost.record(st.triple, st.cluster);
                }
            }
            Some(cache) => {
                let mut correct = 0u64;
                for st in triples {
                    let t = st.triple.index();
                    let label = match cache.get(t) {
                        Some(label) => label,
                        None => {
                            let Some(label) = labels.next() else {
                                return false;
                            };
                            self.log.push(label);
                            cache.insert(t, label);
                            label
                        }
                    };
                    correct += u64::from(label);
                    self.cost.record(st.triple, st.cluster);
                }
                let size = triples.len() as u64;
                let per_draw = match self.driver.estimator() {
                    UnitEstimator::SampleMean => correct as f64 / size as f64,
                    UnitEstimator::HansenHurwitz { scale } => correct as f64 * scale,
                    UnitEstimator::Triple => unreachable!("cluster kind with triple estimator"),
                };
                self.state.record_cluster_draw(per_draw, correct, size);
            }
        }
        true
    }

    /// Whether the observation or cost budget is spent.
    fn budget_spent(&self) -> bool {
        self.cfg
            .max_observations
            .is_some_and(|cap| self.state.n() >= cap)
            || self
                .cfg
                .max_cost_seconds
                .is_some_and(|cap| self.cost.seconds() >= cap)
    }

    /// Units absorbed so far: triples under SRS, stage-1 draws under
    /// cluster designs (a fully cached draw consumes no label, so the
    /// label count alone cannot tell).
    fn units_absorbed(&self) -> u64 {
        match self.state.kind() {
            DesignKind::Srs => self.state.n(),
            DesignKind::Cluster => self.state.draws() as u64,
        }
    }

    /// Withdraws the outstanding request: the RNG and design driver go
    /// back to the session's starting state and re-draw the units
    /// absorbed so far, without absorbing them again. Afterwards the
    /// session snapshots cleanly, and the next poll regenerates the
    /// bit-identical batch. Costs one re-draw of the absorbed prefix.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`] without an outstanding
    /// request.
    pub fn cancel_request(&mut self) -> Result<(), SessionError> {
        if !self.pending {
            return Err(SessionError::NoRequestPending);
        }
        self.rng = SmallRng::from_state(self.origin);
        self.driver.rewind();
        for _ in 0..self.units_absorbed() {
            self.driver
                .next_unit(&mut self.rng, &mut self.unit_buf)
                .expect("the absorbed prefix was drawn from this origin before");
        }
        self.pending = false;
        self.batch_units.clear();
        self.batch_triples.clear();
        self.batch_expected = 0;
        Ok(())
    }

    /// Serializes the session into a compact binary snapshot: the
    /// design, KG, config and method fingerprints, the RNG state the
    /// session started from, the number of absorbed units and the fresh
    /// labels in draw order, one bit each. The encoding is canonical:
    /// identical logical state yields identical bytes.
    ///
    /// [`EvaluationSession::resume`] validates the fingerprints, so a
    /// snapshot cannot silently resume against the wrong setup. See
    /// `docs/SNAPSHOT.md` for the byte layout.
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
        // The replay log.
        for word in self.origin {
            w.u64(word);
        }
        w.u64(self.units_absorbed());
        self.log.write(&mut w);
        Ok(w.into_bytes())
    }

    /// Reconstructs a suspended session from a snapshot, validating it
    /// against the supplied KG, prepared design, method and config,
    /// then replaying its log. The record's starting RNG state decides
    /// the stream, so the resumed session continues the exact
    /// evaluation trajectory of the suspended one.
    ///
    /// Standard drivers are rebuilt from `prepared`. Custom driver
    /// configuration (e.g. [`kgae_sampling::driver::ScsDriver::limit_draws`])
    /// is not part of the snapshot — resume such sessions through
    /// [`EvaluationSession::resume_with_driver`] with an identically
    /// configured driver.
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes or a log
    /// the session could not have written;
    /// [`SessionError::SnapshotMismatch`] when the snapshot belongs to
    /// a different design, KG shape, config or method.
    pub fn resume(
        kg: &'a dyn KnowledgeGraph,
        prepared: &PreparedDesign,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        Self::from_prepared(kg, prepared, method, cfg, replay_placeholder()).apply_snapshot(bytes)
    }

    /// [`EvaluationSession::resume`] for sessions created through
    /// [`EvaluationSession::with_driver`]: the caller rebuilds the
    /// driver with its full configuration (e.g. a draw limit) and the
    /// replay re-draws the logged units through it. The `design` label
    /// must match the one the session was created with — it is
    /// fingerprint-checked against the snapshot.
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
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        Self::with_driver(kg, driver, design, method, cfg, replay_placeholder())
            .apply_snapshot(bytes)
    }

    /// Parses and validates `bytes` against this freshly constructed
    /// session's own design/KG/config/method, then replays the log.
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
        let mut origin = [0u64; 4];
        for word in &mut origin {
            *word = r.u64().map_err(corrupt)?;
        }
        // Replay time grows with the unit count, so it is capped before
        // any unit is drawn: an SRS unit is one distinct triple.
        let unit_cap = match self.state.kind() {
            DesignKind::Srs => kg.num_triples(),
            DesignKind::Cluster => MAX_REPLAY_DRAWS,
        };
        let units = r.len_capped(unit_cap).map_err(corrupt)? as u64;
        // Each fresh label belongs to a distinct triple.
        let log = LabelLog::read(&mut r, kg.num_triples()).map_err(corrupt)?;
        r.finish().map_err(corrupt)?;
        self.replay(origin, units, &log)?;
        Ok(self)
    }

    /// Rebuilds the state of a freshly built session that started at
    /// `origin` and absorbed `units` units with the labels in `log`:
    /// each unit is re-drawn and absorbed, and no stopping check runs.
    ///
    /// Skipping the checks is exact. A logged session had not stopped,
    /// so no check in the prefix fired, and the certified lookahead
    /// only skips units where no stop is possible; checking the next
    /// unit afresh (the skip countdown stays at zero) therefore stops
    /// at the unit the uninterrupted session does. Readiness only
    /// grows, so the first check fell on the first ready unit: it is
    /// still due exactly when the replayed state is not ready.
    fn replay(&mut self, origin: [u64; 4], units: u64, log: &LabelLog) -> Result<(), SessionError> {
        let corrupt = SessionError::CorruptSnapshot;
        self.origin = origin;
        self.rng = SmallRng::from_state(origin);
        let mut labels = (0..log.len()).map(|i| log.get(i));
        let mut unit = Vec::new();
        for _ in 0..units {
            if self.driver.next_unit(&mut self.rng, &mut unit).is_none() {
                return Err(corrupt("unit stream exhausted during replay"));
            }
            if !self.absorb(&unit, &mut labels) {
                return Err(corrupt("label log ran out while a unit needed a label"));
            }
            if self.budget_spent() {
                return Err(corrupt("replay passes the observation or cost budget"));
            }
        }
        if labels.next().is_some() {
            return Err(corrupt("labels left over after the last unit"));
        }
        self.first_check = !ready(&self.state, &self.cfg);
        Ok(())
    }
}

/// The stream a resumed session is built with; its replay restarts the
/// stream from the record's origin.
fn replay_placeholder() -> SmallRng {
    SmallRng::seed_from_u64(0)
}

/// Sanity cap on the stage-1 draws a cluster-design record may replay
/// (an SRS record is capped by the KG size), far beyond any campaign.
/// A corrupt count below it still fails as soon as a drawn unit needs a
/// label the log does not have.
const MAX_REPLAY_DRAWS: u64 = 1 << 32;

/// Cap on [`reserved_units`]: about 100 KB of map room per session, so a
/// tiny ε cannot make a session allocate much before it annotates.
const MAX_RESERVED_UNITS: u64 = 1 << 12;

/// The units a new session makes room for in the state it keeps per
/// annotated triple (the SRS driver's map and the cost tracker's sets),
/// so that a typical campaign's maps never regrow: the Wald sample size
/// `⌈z²/(4ε²)⌉` at the worst case `p = 1/2`, the most annotations a
/// normal-approximation interval needs at any accuracy, capped at
/// `MAX_RESERVED_UNITS`. Room is only capacity: no draw or count depends
/// on it, so `z` comes from the cheap approximate quantile.
fn reserved_units(cfg: &EvalConfig) -> u64 {
    if !(cfg.alpha > 0.0 && cfg.alpha < 1.0) {
        return 0;
    }
    let z = upper_normal_quantile(cfg.alpha / 2.0);
    let wald = (z * z / (4.0 * cfg.epsilon * cfg.epsilon)).ceil();
    (wald as u64).min(MAX_RESERVED_UNITS)
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
/// — the single prefix parser behind every record type's resume and
/// [`crate::engine::snapshot_engine_kind`].
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

// Sessions are sent across threads by multi-tenant session hosts (one
// thread creates, another submits); the driver box carries `Send` so
// the whole engine is `Send`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<EvaluationSession<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::OracleAnnotator;
    use kgae_graph::GroundTruth;
    use kgae_sampling::driver::ScsDriver;

    fn drive_to_completion(
        kg: &(impl KnowledgeGraph + GroundTruth),
        session: &mut EvaluationSession<'_>,
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
            EvaluationSession::resume(&kg, &wrong_design, &method, &cfg, &snap),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong config.
        let wrong_cfg = cfg.clone().with_alpha(0.10);
        assert!(matches!(
            EvaluationSession::resume(&kg, &prepared, &method, &wrong_cfg, &snap),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong method.
        assert!(matches!(
            EvaluationSession::resume(&kg, &prepared, &IntervalMethod::Wilson, &cfg, &snap),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong KG shape.
        let other = kgae_graph::datasets::yago();
        let other_prepared = PreparedDesign::new(&other, SamplingDesign::Twcs { m: 3 });
        assert!(matches!(
            EvaluationSession::resume(&other, &other_prepared, &method, &cfg, &snap),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Truncated bytes.
        assert!(matches!(
            EvaluationSession::resume(&kg, &prepared, &method, &cfg, &snap[..snap.len() - 3]),
            Err(SessionError::CorruptSnapshot(_))
        ));
        // The original session is unperturbed and still resumable.
        let resumed = EvaluationSession::resume(&kg, &prepared, &method, &cfg, &snap).unwrap();
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

    /// A session record split into its fingerprint prefix and its log:
    /// `(prefix, origin, units, labels)`.
    fn split_record(session: &EvaluationSession<'_>) -> (Vec<u8>, [u64; 4], u64, Vec<bool>) {
        let bytes = session.snapshot().unwrap();
        let log = &session.log;
        let tail = 48 + log.len().div_ceil(8) as usize;
        let labels = (0..log.len()).map(|i| log.get(i)).collect();
        let prefix = bytes[..bytes.len() - tail].to_vec();
        (prefix, session.origin, session.units_absorbed(), labels)
    }

    /// The record `split_record` took apart, with `units` and `labels`
    /// replaced.
    fn forge(prefix: &[u8], origin: [u64; 4], units: u64, labels: &[bool]) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(prefix);
        for word in origin {
            w.u64(word);
        }
        w.u64(units);
        let mut log = LabelLog::default();
        for &label in labels {
            log.push(label);
        }
        log.write(&mut w);
        w.into_bytes()
    }

    #[test]
    fn record_is_the_origin_the_unit_count_and_the_label_bits() {
        let kg = kgae_graph::datasets::nell();
        let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut s = EvaluationSession::from_prepared(
            &kg,
            &prepared,
            &method,
            &cfg,
            SmallRng::seed_from_u64(21),
        );
        let fresh = split_record(&s);
        assert_eq!(fresh.1, SmallRng::seed_from_u64(21).state());
        assert_eq!((fresh.2, fresh.3.len()), (0, 0));
        let mut req = AnnotationRequest::default();
        let mut labels = Vec::new();
        for _ in 0..5 {
            assert!(s.next_request_into(3, &mut req).unwrap());
            labels.clear();
            labels.extend(req.triples.iter().map(|st| kg.is_correct(st.triple)));
            s.submit(&labels).unwrap();
        }
        let (prefix, origin, units, logged) = split_record(&s);
        assert_eq!(prefix, fresh.0, "fingerprints do not move");
        assert_eq!(units, 15);
        assert_eq!(logged.len() as u64, s.annotated_triples());
        let bytes = s.snapshot().unwrap();
        assert_eq!(forge(&prefix, origin, units, &logged), bytes);
        // Resume replays the log and re-snapshots the same bytes.
        let resumed = EvaluationSession::resume(&kg, &prepared, &method, &cfg, &bytes).unwrap();
        assert_eq!(resumed.snapshot().unwrap(), bytes);
        assert_eq!(resumed.status(), s.status());
    }

    #[test]
    fn impossible_logs_are_corrupt_snapshots_not_panics() {
        let kg = kgae_graph::datasets::factbench();
        let method = IntervalMethod::Wilson;
        let cfg = EvalConfig {
            epsilon: 0.000_5,
            max_observations: Some(400),
            ..EvalConfig::default()
        };
        let scs = |limit| Box::new(ScsDriver::new(&kg).limit_draws(limit));
        let build = |limit| {
            EvaluationSession::with_driver(
                &kg,
                scs(limit),
                SamplingDesign::Scs,
                &method,
                &cfg,
                SmallRng::seed_from_u64(8),
            )
        };
        let resume = |limit, bytes: &[u8]| {
            EvaluationSession::resume_with_driver(
                &kg,
                scs(limit),
                SamplingDesign::Scs,
                &method,
                &cfg,
                bytes,
            )
        };
        let mut s = build(40);
        let mut req = AnnotationRequest::default();
        while s.status().observations < 30 {
            assert!(s.next_request_into(1, &mut req).unwrap());
            let labels: Vec<bool> = req
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple))
                .collect();
            s.submit(&labels).unwrap();
        }
        let (prefix, origin, units, labels) = split_record(&s);
        assert!(units > 2 && labels.len() > 2);
        let intact = forge(&prefix, origin, units, &labels);
        assert!(resume(40, &intact).is_ok());
        let corrupt = |limit, bytes: &[u8], why: &str| match resume(limit, bytes) {
            Err(SessionError::CorruptSnapshot(got)) => assert_eq!(got, why),
            other => panic!("{why}: resumed as {:?}", other.map(|r| r.status())),
        };
        let cap = "snapshot length field exceeds sanity cap";
        let ran_out = "label log ran out while a unit needed a label";
        // More labels than the KG has triples; more draws than the cap.
        let mut too_many = intact[..intact.len() - 8 - labels.len().div_ceil(8)].to_vec();
        too_many.extend_from_slice(&(kg.num_triples() + 1).to_le_bytes());
        corrupt(40, &too_many, cap);
        corrupt(
            40,
            &forge(&prefix, origin, MAX_REPLAY_DRAWS + 1, &labels),
            cap,
        );
        // The log runs out while a unit still needs a label.
        corrupt(40, &forge(&prefix, origin, units + 1, &labels), ran_out);
        corrupt(
            40,
            &forge(&prefix, origin, units, &labels[..labels.len() - 1]),
            ran_out,
        );
        // Labels left over after the last unit.
        let mut extra = labels.clone();
        extra.push(true);
        let leftover = "labels left over after the last unit";
        corrupt(40, &forge(&prefix, origin, units, &extra), leftover);
        // The stream ends during replay.
        corrupt(units - 1, &intact, "unit stream exhausted during replay");
        // Replay passes the observation budget: every unit's labels
        // re-used, so the log stays consistent until the budget trips.
        let mut over = build(400);
        while over.status().observations < 400 {
            assert!(over.next_request_into(1, &mut req).unwrap());
            over.submit(&vec![false; req.triples.len()]).unwrap();
            if over.stop_reason().is_some() {
                break;
            }
        }
        assert_eq!(over.stop_reason(), Some(StopReason::BudgetExhausted));
        let draws = over.result().unwrap().stage1_draws;
        let all_false = vec![false; over.log.len() as usize];
        let past_budget = forge(&prefix, over.origin, draws, &all_false);
        let over_budget = "replay passes the observation or cost budget";
        corrupt(400, &past_budget, over_budget);
        // Non-zero padding bits and trailing bytes.
        assert_ne!(labels.len() % 8, 0, "the last byte has padding");
        let mut padded = intact.clone();
        *padded.last_mut().unwrap() |= 0x80;
        corrupt(40, &padded, "non-zero label padding bits");
        let mut trailing = intact;
        trailing.push(0);
        corrupt(40, &trailing, "trailing bytes after snapshot payload");
    }

    #[test]
    fn snapshot_engine_kind_reads_the_plain_identity_prefix() {
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
        let kind = crate::engine::snapshot_engine_kind;
        assert_eq!(kind(&snap).unwrap(), crate::engine::EngineKind::Plain);
        // Every cut inside the 31-byte identity prefix (container, design
        // tag and parameter, KG shape) fails loudly; the prefix alone
        // identifies the record.
        for len in 0..31 {
            assert!(
                matches!(kind(&snap[..len]), Err(SessionError::CorruptSnapshot(_))),
                "cut at {len}"
            );
        }
        assert!(kind(&snap[..31]).is_ok());
        let mut bad_magic = snap.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            kind(&bad_magic),
            Err(SessionError::CorruptSnapshot("bad magic"))
        ));
        let mut bad_m = snap.clone();
        bad_m[11..19].copy_from_slice(&0u64.to_le_bytes()); // TWCS with m = 0
        assert!(matches!(
            kind(&bad_m),
            Err(SessionError::CorruptSnapshot("unknown design tag"))
        ));
        let mut bad_tag = snap;
        bad_tag[10] = 200; // record tag byte
        assert!(matches!(
            kind(&bad_tag),
            Err(SessionError::CorruptSnapshot("unknown snapshot record tag"))
        ));
    }

    #[test]
    fn closed_loop_evaluate_equals_a_polled_session_of_its_seed() {
        // evaluate() is a session client; driving a session of the same
        // seed by hand with batch 1 and the oracle must agree with it
        // bit for bit.
        let kg = kgae_graph::datasets::dbpedia();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        for seed in [0u64, 3, 17] {
            let closed = crate::framework::evaluate(
                &kg,
                &OracleAnnotator,
                SamplingDesign::Twcs { m: 3 },
                &method,
                &cfg,
                seed,
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
            assert_eq!(closed, manual, "seed {seed}");
        }
    }
}
