//! Stratified evaluation campaigns: one poll-based engine per stratum,
//! a shared annotation budget, and a pooled KG-wide answer.
//!
//! The paper's estimators report a single KG-wide accuracy; real audits
//! ask *which predicates are rotten*. A [`StratifiedSession`] takes a
//! [`Stratification`] (by predicate, or any triple → stratum map) and
//! coordinates one SRS-within-stratum [`EvaluationSession`] per stratum
//! behind the same poll protocol as a single session:
//!
//! ```
//! use kgae_core::stratified::{StratifiedConfig, StratifiedSession};
//! use kgae_core::{IntervalMethod, SessionEngine};
//! use kgae_graph::GroundTruth;
//!
//! let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
//! let mut session = StratifiedSession::new(
//!     &kg,
//!     &strat,
//!     &IntervalMethod::ahpd_default(),
//!     &StratifiedConfig::default(),
//!     42,
//! );
//! while let Some(polled) = session.next_request(8).unwrap() {
//!     // polled.stratum says which predicate this batch audits.
//!     let labels: Vec<bool> = polled
//!         .request
//!         .triples
//!         .iter()
//!         .map(|st| kg.is_correct(st.triple))
//!         .collect();
//!     session.submit(&labels).unwrap();
//! }
//! let outcome = Box::new(session).into_outcome().unwrap();
//! assert!(outcome.result.converged); // the pooled result
//! assert_eq!(outcome.strata.unwrap().len(), 8); // one row per predicate
//! ```
//!
//! **Allocation.** Each polled batch goes entirely to one stratum,
//! chosen by the configured [`AllocationPolicy`]:
//!
//! * *width-greedy* (Neyman-style, the default): maximize the pooled
//!   interval's width reduction per annotation, score
//!   `(W_h · width_h)² / n_h`. Equalizing raw per-stratum widths is
//!   provably no better than proportional under equal weights (both
//!   yield pooled variance `Σσ_h²/(Hn)`); the marginal-reduction form
//!   converges to the Neyman optimum `n_h ∝ W_h σ_h` instead.
//! * *proportional*: keep `n_h / W_h` balanced — the textbook
//!   `n_h ∝ M_h` baseline (and the benchmark's comparison arm).
//! * *equal*: keep raw per-stratum counts balanced.
//!
//! Strata below the per-stratum floor are served first (lowest index
//! first) under every policy, so tiny strata cannot be starved and the
//! policies share an identical warm-up phase.
//!
//! **Stopping.** The campaign stops when the *pooled* interval's MoE
//! reaches `ε` (`MoeSatisfied`), when every stratum is fully annotated
//! (`PopulationExhausted` — the pooled estimate is then exact), or when
//! the shared observation budget runs out (`BudgetExhausted`).
//!
//! **Pooling.** The pooled point estimate is the classical stratified
//! estimator `μ̂ = Σ_h W_h μ̂_h`, computed with
//! [`kgae_intervals::pooled_point`]'s left fold — **bit-identical** to
//! combining the per-stratum estimators by hand in stratum order (a
//! property test pins this). A fully annotated stratum is a census,
//! read from its counts (observations equal its size): it contributes
//! its exact value and zero variance, and is never polled again. The
//! pooled interval is Wald-on-pooled-variance; the per-stratum rows keep
//! their own credible intervals.
//!
//! **Suspend/resume.** [`SessionEngine::snapshot`] writes a
//! `KGAESNAP` record with its own record tag (4): the coordinator's
//! config and stratification fingerprints followed by one embedded
//! session record per stratum. Resume validates every fingerprint and
//! restores the exact allocation + sampling trajectory, bit for bit.

use crate::engine::{EngineKind, EngineOutcome, EngineRequest, SessionEngine, SessionStatusView};
use crate::framework::{EvalConfig, EvalResult, SamplingDesign, StoppingPolicy};
use crate::method::IntervalMethod;
use crate::session::{
    method_fingerprint_matches, read_record_prefix, write_method_fingerprint, EvaluationSession,
    SessionError, SessionStatus, StopReason, STRATIFIED_SNAPSHOT_TAG,
};
use crate::snapshot::{Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use kgae_graph::stratify::Stratification;
use kgae_graph::KnowledgeGraph;
use kgae_intervals::{pooled_interval, pooled_point, Interval, KernelCache, StratumSummary};
use kgae_sampling::driver::StratumSrsDriver;
use kgae_sampling::AllocationPolicy;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Campaign-level configuration of a stratified evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedConfig {
    /// Significance level α of every interval (per-stratum and pooled).
    pub alpha: f64,
    /// MoE target ε for the **pooled** interval — the campaign's
    /// stopping rule.
    pub epsilon: f64,
    /// How annotation batches are allocated across strata.
    pub allocation: AllocationPolicy,
    /// Shared cap on total annotation observations across all strata;
    /// exceeded ⇒ the campaign reports `BudgetExhausted`.
    pub max_observations: Option<u64>,
    /// Minimum annotations per stratum (clamped to the stratum size)
    /// before the pooled stopping rule is consulted; under-floor strata
    /// are served first by every allocation policy.
    pub min_per_stratum: u64,
}

impl Default for StratifiedConfig {
    /// α = ε = 0.05, width-greedy allocation, floor 10, no budget.
    fn default() -> Self {
        Self {
            alpha: 0.05,
            epsilon: 0.05,
            allocation: AllocationPolicy::WidthGreedy,
            max_observations: None,
            min_per_stratum: 10,
        }
    }
}

impl StratifiedConfig {
    /// The per-stratum engine configuration this campaign config
    /// denotes. Stratum sessions never stop on their own (`min_triples`
    /// is unreachable, ε = 0): stopping is the coordinator's job, so
    /// the per-stratum engines are pure estimators. Snapshots embed
    /// this derived config's fingerprint, so it must be a pure function
    /// of the campaign config.
    #[must_use]
    pub fn per_stratum_config(&self) -> EvalConfig {
        EvalConfig {
            alpha: self.alpha,
            epsilon: 0.0,
            min_triples: u64::MAX,
            stopping: StoppingPolicy::CertifiedLookahead,
            ..EvalConfig::default()
        }
    }
}

/// One stratum's row in a status report.
#[derive(Debug, Clone, PartialEq)]
pub struct StratumReport {
    /// Stratum name.
    pub name: String,
    /// Population weight `W_h = M_h / M`.
    pub weight: f64,
    /// Stratum size `M_h` in triples.
    pub size: u64,
    /// Whether every triple of the stratum has been annotated (the
    /// stratum estimate is then exact and contributes zero pooled
    /// variance).
    pub census: bool,
    /// The stratum engine's status (its own credible interval, counts,
    /// cost). `stopped` is `PopulationExhausted` for a census stratum,
    /// `None` otherwise — stratum engines never stop for any other
    /// reason.
    pub status: SessionStatus,
}

/// Coordinator for a stratified campaign. See the module docs for the
/// protocol and the allocation/stopping semantics.
pub struct StratifiedSession<'a> {
    kg: &'a dyn KnowledgeGraph,
    cfg: StratifiedConfig,
    method: IntervalMethod,
    strat_fingerprint: u64,
    names: Vec<String>,
    sizes: Vec<u64>,
    weights: Vec<f64>,
    /// One SRS-within-stratum engine per stratum, in stratum order.
    sessions: Vec<EvaluationSession<'a, SmallRng>>,
    /// Per stratum, the interval width the width-greedy allocation last
    /// scored it with and the observation count it was computed at. A
    /// stratum's state changes only when it absorbs labels, which raises
    /// its count, so a width at the current count is current. Never
    /// serialized: a resumed campaign recomputes it.
    widths: Vec<Option<(u64, f64)>>,
    pending: Option<u32>,
    outcome: Option<EngineOutcome>,
}

impl<'a> StratifiedSession<'a> {
    /// Creates a campaign over `kg` partitioned by `strat`. Each
    /// stratum gets its own deterministic RNG stream derived from
    /// `seed`, so the whole campaign is reproducible from
    /// `(kg, strat, method, cfg, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `strat` does not cover exactly `kg`'s triples.
    #[must_use]
    pub fn new(
        kg: &'a dyn KnowledgeGraph,
        strat: &Stratification,
        method: &IntervalMethod,
        cfg: &StratifiedConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(
            strat.num_triples(),
            kg.num_triples(),
            "stratification covers a different KG"
        );
        let per_stratum = cfg.per_stratum_config();
        let sessions = (0..strat.num_strata())
            .map(|h| {
                let driver = Box::new(StratumSrsDriver::new(kg, strat.members(h)));
                EvaluationSession::with_driver(
                    kg,
                    driver,
                    SamplingDesign::Srs,
                    method,
                    &per_stratum,
                    SmallRng::seed_from_u64(kgae_graph::hash::mix2(seed, u64::from(h))),
                )
            })
            .collect();
        Self::with_sessions(kg, strat, method, cfg, sessions)
    }

    fn with_sessions(
        kg: &'a dyn KnowledgeGraph,
        strat: &Stratification,
        method: &IntervalMethod,
        cfg: &StratifiedConfig,
        sessions: Vec<EvaluationSession<'a, SmallRng>>,
    ) -> Self {
        Self {
            kg,
            cfg: cfg.clone(),
            method: method.clone(),
            strat_fingerprint: strat.fingerprint(),
            names: (0..strat.num_strata())
                .map(|h| strat.name(h).to_string())
                .collect(),
            sizes: (0..strat.num_strata()).map(|h| strat.size(h)).collect(),
            weights: (0..strat.num_strata()).map(|h| strat.weight(h)).collect(),
            widths: vec![None; sessions.len()],
            sessions,
            pending: None,
            outcome: None,
        }
    }

    /// Number of strata.
    #[must_use]
    pub fn num_strata(&self) -> u32 {
        self.sessions.len() as u32
    }

    /// The campaign configuration.
    #[must_use]
    pub fn config(&self) -> &StratifiedConfig {
        &self.cfg
    }

    fn observations(&self, h: usize) -> u64 {
        self.sessions[h].sample_state().n()
    }

    fn total_observations(&self) -> u64 {
        (0..self.sessions.len()).map(|h| self.observations(h)).sum()
    }

    /// Whether every triple of stratum `h` is annotated (a census).
    fn census(&self, h: usize) -> bool {
        self.observations(h) == self.sizes[h]
    }

    /// The stratum's pooled-estimator contribution, `None` before its
    /// first annotation.
    fn summary(&self, h: usize) -> Option<StratumSummary> {
        let state = self.sessions[h].sample_state();
        if state.n() == 0 {
            return None;
        }
        let est = state.estimate();
        Some(StratumSummary {
            weight: self.weights[h],
            mu: est.mu,
            // A census has no sampling error.
            variance: if self.census(h) { 0.0 } else { est.variance },
        })
    }

    fn report(&self, h: usize) -> StratumReport {
        let mut status = self.sessions[h].status();
        let census = self.census(h);
        if census {
            // Stratum engines never stop on their own: the coordinator
            // reports a fully annotated stratum as exhausted.
            status.stopped = Some(StopReason::PopulationExhausted);
        }
        StratumReport {
            name: self.names[h].clone(),
            weight: self.weights[h],
            size: self.sizes[h],
            census,
            status,
        }
    }

    /// Effective floor of stratum `h`: the configured floor, clamped to
    /// the stratum size (a 4-triple stratum cannot owe 10).
    fn floor(&self, h: usize) -> u64 {
        self.cfg.min_per_stratum.min(self.sizes[h])
    }

    /// Picks the stratum the next batch goes to, among the strata that
    /// are not yet a census. `None` when every stratum is a census.
    fn allocate(&mut self) -> Option<usize> {
        let live: Vec<usize> = (0..self.sessions.len())
            .filter(|&h| !self.census(h))
            .collect();
        if live.is_empty() {
            return None;
        }
        // Warm-up phase, shared by every policy: under-floor strata
        // first, lowest index first.
        if let Some(&h) = live.iter().find(|&&h| self.observations(h) < self.floor(h)) {
            return Some(h);
        }
        match self.cfg.allocation {
            AllocationPolicy::WidthGreedy => {
                // Scoring a stratum constructs its interval (one solver
                // run), so compute each score exactly once per batch, and
                // only for the stratum whose state changed since.
                let scored: Vec<(f64, usize)> = live
                    .into_iter()
                    .map(|h| {
                        let width = self.stratum_width(h);
                        let weighted = self.weights[h] * width;
                        let score = weighted * weighted / self.observations(h).max(1) as f64;
                        (score, h)
                    })
                    .collect();
                scored
                    .into_iter()
                    .max_by(|(sa, a), (sb, b)| {
                        // Ties deterministically go to the lower index
                        // (max_by keeps the last maximum, so reverse
                        // the index order).
                        sa.partial_cmp(sb)
                            .expect("scores are finite")
                            .then(b.cmp(a))
                    })
                    .map(|(_, h)| h)
            }
            AllocationPolicy::Proportional => live.into_iter().min_by(|&a, &b| {
                let score = |h: usize| self.observations(h) as f64 / self.weights[h];
                score(a)
                    .partial_cmp(&score(b))
                    .expect("scores are finite")
                    .then(a.cmp(&b))
            }),
            AllocationPolicy::Equal => live.into_iter().min_by_key(|&h| (self.observations(h), h)),
        }
    }

    /// Stratum `h`'s interval width (1 before it has one), memoized in
    /// `widths` at its observation count.
    fn stratum_width(&mut self, h: usize) -> f64 {
        let n = self.observations(h);
        match self.widths[h] {
            Some((at, width)) if at == n => width,
            _ => {
                let width = self.sessions[h]
                    .status()
                    .interval
                    .map_or(1.0, |interval: Interval| interval.width());
                self.widths[h] = Some((n, width));
                width
            }
        }
    }

    fn finish(&mut self, reason: StopReason) -> Result<(), SessionError> {
        let strata: Vec<StratumReport> = (0..self.sessions.len()).map(|h| self.report(h)).collect();
        // A budget can run out before every stratum saw data; the
        // pooled answer then renormalizes over the annotated strata (a
        // best-effort partial estimate — `converged` stays false on
        // that path). With all strata present the weights already sum
        // to 1 and the division is an exact no-op, preserving the
        // bit-identity of the pooled point estimate.
        let mut summaries: Vec<StratumSummary> = (0..self.sessions.len())
            .filter_map(|h| self.summary(h))
            .collect();
        if summaries.is_empty() {
            return Err(SessionError::StreamEndedBeforeData);
        }
        let covered: f64 = summaries.iter().map(|s| s.weight).sum();
        if summaries.len() < self.sessions.len() {
            for s in &mut summaries {
                s.weight /= covered;
            }
        }
        let mu = pooled_point(&summaries);
        let interval =
            pooled_interval(&summaries, self.cfg.alpha).map_err(SessionError::Interval)?;
        let pooled = EvalResult {
            mu_hat: mu,
            interval,
            annotated_triples: strata.iter().map(|r| r.status.annotated_triples).sum(),
            annotated_entities: 0, // strata overlap entities; see cost note below
            observations: strata.iter().map(|r| r.status.observations).sum(),
            stage1_draws: 0,
            cost_seconds: strata.iter().map(|r| r.status.cost_seconds).sum(),
            converged: reason == StopReason::MoeSatisfied
                || reason == StopReason::PopulationExhausted,
            halted_at_floor: false,
        };
        self.outcome = Some(EngineOutcome {
            reason,
            result: pooled,
            strata: Some(strata),
            methods: None,
        });
        Ok(())
    }

    /// Runs the campaign-level stopping rule; returns whether the
    /// campaign stopped.
    fn check_stop(&mut self) -> Result<bool, SessionError> {
        if self.outcome.is_some() {
            return Ok(true);
        }
        // A complete census must report PopulationExhausted, not a
        // vacuous zero-width MoE pass.
        if (0..self.sessions.len()).all(|h| self.census(h)) {
            self.finish(StopReason::PopulationExhausted)?;
            return Ok(true);
        }
        // Pooled MoE, consulted only once every stratum met its floor.
        let floors_met = (0..self.sessions.len()).all(|h| self.observations(h) >= self.floor(h));
        if floors_met {
            let summaries: Option<Vec<StratumSummary>> =
                (0..self.sessions.len()).map(|h| self.summary(h)).collect();
            if let Some(summaries) = summaries {
                let interval =
                    pooled_interval(&summaries, self.cfg.alpha).map_err(SessionError::Interval)?;
                if interval.moe() <= self.cfg.epsilon {
                    self.finish(StopReason::MoeSatisfied)?;
                    return Ok(true);
                }
            }
        }
        if self
            .cfg
            .max_observations
            .is_some_and(|cap| self.total_observations() >= cap)
        {
            self.finish(StopReason::BudgetExhausted)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Reconstructs a suspended campaign from a snapshot, validating
    /// the KG shape, stratification fingerprint, campaign config and
    /// method before any stratum resumes. The resumed campaign
    /// continues the exact allocation and sampling trajectory of the
    /// suspended one — and re-snapshotting it yields the identical
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes;
    /// [`SessionError::SnapshotMismatch`] when the snapshot belongs to
    /// a different KG, partition, config or method.
    pub fn resume(
        kg: &'a dyn KnowledgeGraph,
        strat: &Stratification,
        method: &IntervalMethod,
        cfg: &StratifiedConfig,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        let corrupt = SessionError::CorruptSnapshot;
        let mut r = Reader::new(bytes);
        if read_record_prefix(&mut r)? != STRATIFIED_SNAPSHOT_TAG {
            return Err(SessionError::SnapshotMismatch(
                "not a stratified coordinator snapshot",
            ));
        }
        if r.u64().map_err(corrupt)? != u64::from(strat.num_strata()) {
            return Err(SessionError::SnapshotMismatch("stratum count differs"));
        }
        if r.u64().map_err(corrupt)? != kg.num_triples()
            || r.u32().map_err(corrupt)? != kg.num_clusters()
        {
            return Err(SessionError::SnapshotMismatch("KG shape differs"));
        }
        if r.u64().map_err(corrupt)? != strat.fingerprint() {
            return Err(SessionError::SnapshotMismatch(
                "stratification partition differs",
            ));
        }
        let cfg_matches = r.f64().map_err(corrupt)?.to_bits() == cfg.alpha.to_bits()
            && r.f64().map_err(corrupt)?.to_bits() == cfg.epsilon.to_bits()
            && r.u8().map_err(corrupt)? == allocation_tag(cfg.allocation)
            && r.opt_u64().map_err(corrupt)? == cfg.max_observations
            && r.u64().map_err(corrupt)? == cfg.min_per_stratum;
        if !cfg_matches {
            return Err(SessionError::SnapshotMismatch("campaign config differs"));
        }
        if !method_fingerprint_matches(&mut r, method).map_err(corrupt)? {
            return Err(SessionError::SnapshotMismatch("interval method differs"));
        }
        let per_stratum = cfg.per_stratum_config();
        let mut sessions = Vec::with_capacity(strat.num_strata() as usize);
        for h in 0..strat.num_strata() {
            let len = r.len_capped(bytes.len() as u64).map_err(corrupt)?;
            let child = r.bytes(len).map_err(corrupt)?;
            let driver = Box::new(StratumSrsDriver::new(kg, strat.members(h)));
            sessions.push(EvaluationSession::resume_with_driver(
                kg,
                driver,
                SamplingDesign::Srs,
                method,
                &per_stratum,
                SmallRng::seed_from_u64(0),
                child,
            )?);
        }
        r.finish().map_err(corrupt)?;
        Ok(Self::with_sessions(kg, strat, method, cfg, sessions))
    }
}

impl SessionEngine for StratifiedSession<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Stratified
    }

    fn has_pending_request(&self) -> bool {
        self.pending.is_some()
    }

    /// Polls the campaign for the next annotation batch (up to
    /// `max_units` triples, all from one stratum, which the request
    /// names). `Ok(None)` once the campaign stopped.
    ///
    /// # Errors
    ///
    /// [`SessionError::RequestPending`] while labels are owed;
    /// [`SessionError::Interval`] if a pooled-interval construction
    /// fails.
    fn next_request(&mut self, max_units: u64) -> Result<Option<EngineRequest>, SessionError> {
        if self.outcome.is_some() {
            return Ok(None);
        }
        if self.pending.is_some() {
            return Err(SessionError::RequestPending);
        }
        let Some(h) = self.allocate() else {
            // Every stratum is a census.
            self.check_stop()?;
            return Ok(None);
        };
        // A stratum with unannotated triples always serves a batch: its
        // engine never stops on its own, and its without-replacement
        // stream runs dry only once every triple is drawn.
        let request = self.sessions[h]
            .next_request(max_units)?
            .expect("a stratum that is not a census serves a batch");
        self.pending = Some(h as u32);
        Ok(Some(EngineRequest {
            request,
            stratum: Some((h as u32, self.names[h].clone())),
        }))
    }

    /// Submits labels for the outstanding batch, in request order, then
    /// runs the campaign stopping rule (pooled MoE, census, budget).
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`],
    /// [`SessionError::LabelCountMismatch`], or a pooled-interval
    /// construction failure.
    fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        let Some(h) = self.pending else {
            return Err(SessionError::NoRequestPending);
        };
        self.sessions[h as usize].submit(labels)?;
        self.pending = None;
        self.check_stop()?;
        Ok(())
    }

    /// Point-in-time view: the pooled headline plus per-stratum rows.
    fn status(&self) -> SessionStatusView {
        let strata = match &self.outcome {
            Some(outcome) => outcome.strata.clone(),
            None => Some((0..self.sessions.len()).map(|h| self.report(h)).collect()),
        };
        SessionStatusView {
            primary: self.headline(),
            strata,
            methods: None,
            monitor: None,
        }
    }

    /// Withdraws the outstanding batch by rewinding the pending
    /// stratum's engine to its pre-draw state
    /// ([`EvaluationSession::cancel_request`]), so a re-poll after
    /// cancel re-runs the same allocation and regenerates the
    /// bit-identical batch.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoRequestPending`] without an outstanding
    /// request.
    fn cancel_request(&mut self) -> Result<(), SessionError> {
        let Some(h) = self.pending else {
            return Err(SessionError::NoRequestPending);
        };
        self.sessions[h as usize].cancel_request()?;
        self.pending = None;
        Ok(())
    }

    /// The pooled headline — stratified point estimate ([`pooled_point`]
    /// over the per-stratum estimators in stratum order, bit-identical
    /// to folding them by hand), pooled interval, summed counts and
    /// cost — without materializing per-stratum rows (each row's status
    /// constructs that stratum's own interval).
    fn headline(&self) -> SessionStatus {
        if let Some(outcome) = &self.outcome {
            return SessionStatus::stopped(&outcome.result, outcome.reason);
        }
        let summaries: Option<Vec<StratumSummary>> =
            (0..self.sessions.len()).map(|h| self.summary(h)).collect();
        let (estimate, interval) = match summaries {
            Some(summaries) => {
                let mu = pooled_point(&summaries);
                let interval = pooled_interval(&summaries, self.cfg.alpha).ok();
                (Some(mu), interval)
            }
            None => (None, None),
        };
        let (mut observations, mut annotated_triples, mut cost_seconds) = (0, 0, 0.0);
        for session in &self.sessions {
            observations += session.sample_state().n();
            annotated_triples += session.annotated_triples();
            cost_seconds += session.cost_seconds();
        }
        SessionStatus {
            estimate,
            interval,
            observations,
            annotated_triples,
            stage1_draws: 0,
            cost_seconds,
            stopped: None,
        }
    }

    fn stop_reason(&self) -> Option<StopReason> {
        self.outcome.as_ref().map(|outcome| outcome.reason)
    }

    /// Serializes the coordinator into a canonical binary snapshot: the
    /// `KGAESNAP` container with the stratified record tag (4), campaign
    /// fingerprints, and one embedded session record per stratum.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed or
    /// after the campaign stopped.
    fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.pending.is_some() {
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
        w.u8(STRATIFIED_SNAPSHOT_TAG);
        w.u64(self.sessions.len() as u64);
        w.u64(self.kg.num_triples());
        w.u32(self.kg.num_clusters());
        w.u64(self.strat_fingerprint);
        // Campaign config fingerprint.
        w.f64(self.cfg.alpha);
        w.f64(self.cfg.epsilon);
        w.u8(allocation_tag(self.cfg.allocation));
        w.opt_u64(self.cfg.max_observations);
        w.u64(self.cfg.min_per_stratum);
        // Method fingerprint (same shape as the session snapshot's).
        write_method_fingerprint(&mut w, &self.method);
        // Per-stratum records.
        for session in &self.sessions {
            let child = session.snapshot()?;
            w.u64(child.len() as u64);
            w.bytes(&child);
        }
        Ok(w.into_bytes())
    }

    /// The pooled result (`stage1_draws` is 0: strata sample triples,
    /// not clusters) and the per-stratum rows at the stop.
    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome> {
        self.outcome
    }

    /// Attaches the cache to every stratum session (strata are SRS by
    /// construction, the cache's sweet spot). Per-stratum sessions are
    /// only created in [`StratifiedSession::new`] and
    /// [`StratifiedSession::resume`], so attaching once after
    /// construction covers the whole campaign.
    fn set_kernel_cache(&mut self, kernel: Arc<KernelCache>) {
        for session in &mut self.sessions {
            session.set_kernel_cache(Arc::clone(&kernel));
        }
    }
}

fn allocation_tag(policy: AllocationPolicy) -> u8 {
    match policy {
        AllocationPolicy::WidthGreedy => 0,
        AllocationPolicy::Proportional => 1,
        AllocationPolicy::Equal => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnnotationRequest;
    use kgae_graph::GroundTruth;

    fn oracle_labels(kg: &(impl GroundTruth + ?Sized), request: &AnnotationRequest) -> Vec<bool> {
        request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect()
    }

    fn drive(
        kg: &(impl KnowledgeGraph + GroundTruth),
        session: &mut StratifiedSession<'_>,
        batch: u64,
    ) {
        while let Some(req) = session.next_request(batch).unwrap() {
            let labels = oracle_labels(kg, &req.request);
            session.submit(&labels).unwrap();
        }
    }

    fn outcome(session: StratifiedSession<'_>) -> EngineOutcome {
        Box::new(session).into_outcome().unwrap()
    }

    fn strata(outcome: &EngineOutcome) -> &[StratumReport] {
        outcome.strata.as_deref().expect("stratified rows")
    }

    #[test]
    fn stratified_campaign_converges_on_the_pooled_target() {
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let mut session = StratifiedSession::new(
            &kg,
            &strat,
            &IntervalMethod::ahpd_default(),
            &StratifiedConfig::default(),
            42,
        );
        drive(&kg, &mut session, 8);
        assert_eq!(session.stop_reason(), Some(StopReason::MoeSatisfied));
        // Stopped campaigns politely decline further requests.
        assert!(session.next_request(4).unwrap().is_none());
        let result = outcome(session);
        assert!(result.result.converged);
        assert!(result.result.interval.moe() <= 0.05 + 1e-12);
        assert_eq!(strata(&result).len(), 8);
        // The pooled estimate lands near the dataset's true accuracy.
        assert!(
            (result.result.mu_hat - kg.true_accuracy()).abs() < 0.08,
            "pooled {} vs true {}",
            result.result.mu_hat,
            kg.true_accuracy()
        );
        // Every stratum met its floor.
        for report in strata(&result) {
            assert!(
                report.status.observations >= 10.min(report.size),
                "{} under floor",
                report.name
            );
        }
    }

    #[test]
    fn pooled_point_is_bit_identical_to_the_weighted_fold() {
        // The acceptance property: at every step of a campaign, the
        // pooled point estimate equals Σ W_h (τ_h / n_h) computed by
        // hand from labels the *test* tallied — the unstratified
        // weighted estimator over the per-stratum SRS estimates.
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        for seed in [1u64, 7, 23] {
            let mut session = StratifiedSession::new(
                &kg,
                &strat,
                &IntervalMethod::ahpd_default(),
                &StratifiedConfig::default(),
                seed,
            );
            let k = strat.num_strata() as usize;
            let mut tau = vec![0u64; k];
            let mut n = vec![0u64; k];
            let mut steps = 0;
            while let Some(req) = session.next_request(8).unwrap() {
                let labels = oracle_labels(&kg, &req.request);
                let h = req.stratum.expect("stratified batches name a stratum").0 as usize;
                n[h] += labels.len() as u64;
                tau[h] += labels.iter().filter(|&&l| l).count() as u64;
                session.submit(&labels).unwrap();
                steps += 1;
                let status = session.status();
                if n.iter().all(|&count| count > 0) {
                    let manual = (0..k).fold(0.0_f64, |acc, h| {
                        acc + strat.weight(h as u32) * (tau[h] as f64 / n[h] as f64)
                    });
                    let pooled = status.primary.estimate.expect("all strata have data");
                    assert_eq!(
                        pooled.to_bits(),
                        manual.to_bits(),
                        "seed {seed}, step {steps}: pooled {pooled} vs manual {manual}"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_round_trip_is_byte_identical_and_trajectory_preserving() {
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let method = IntervalMethod::ahpd_default();
        let cfg = StratifiedConfig::default();

        let run = |interrupt_every: Option<u64>| {
            let mut session = StratifiedSession::new(&kg, &strat, &method, &cfg, 99);
            let mut batches = 0u64;
            while let Some(req) = session.next_request(8).unwrap() {
                let labels = oracle_labels(&kg, &req.request);
                session.submit(&labels).unwrap();
                batches += 1;
                if session.stop_reason().is_none() {
                    if let Some(every) = interrupt_every {
                        if batches.is_multiple_of(every) {
                            let bytes = session.snapshot().unwrap();
                            // Byte-identity: resume then re-snapshot.
                            let resumed =
                                StratifiedSession::resume(&kg, &strat, &method, &cfg, &bytes)
                                    .unwrap();
                            let bytes2 = resumed.snapshot().unwrap();
                            assert_eq!(bytes, bytes2, "re-snapshot diverged at batch {batches}");
                            session = resumed;
                        }
                    }
                }
            }
            outcome(session)
        };

        let straight = run(None);
        let interrupted = run(Some(3));
        assert_eq!(
            straight, interrupted,
            "suspend/resume changed the campaign trajectory"
        );
    }

    #[test]
    fn resume_rejects_wrong_setup() {
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let method = IntervalMethod::ahpd_default();
        let cfg = StratifiedConfig::default();
        let mut session = StratifiedSession::new(&kg, &strat, &method, &cfg, 5);
        for _ in 0..4 {
            let req = session.next_request(4).unwrap().unwrap();
            let labels = oracle_labels(&kg, &req.request);
            session.submit(&labels).unwrap();
        }
        let bytes = session.snapshot().unwrap();

        assert_eq!(
            crate::engine::snapshot_engine_kind(&bytes).unwrap(),
            crate::engine::EngineKind::Stratified
        );

        // Wrong partition.
        let other = kgae_graph::stratify::Stratification::by_hash(&kg, 8, 1);
        assert!(matches!(
            StratifiedSession::resume(&kg, &other, &method, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong config.
        let wrong_cfg = StratifiedConfig {
            epsilon: 0.01,
            ..cfg.clone()
        };
        assert!(matches!(
            StratifiedSession::resume(&kg, &strat, &method, &wrong_cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong method.
        assert!(matches!(
            StratifiedSession::resume(&kg, &strat, &IntervalMethod::Wilson, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Wrong KG.
        let yago = kgae_graph::datasets::yago();
        assert!(matches!(
            StratifiedSession::resume(&yago, &strat, &method, &cfg, &bytes),
            Err(SessionError::SnapshotMismatch(_))
        ));
        // Truncation.
        assert!(matches!(
            StratifiedSession::resume(&kg, &strat, &method, &cfg, &bytes[..bytes.len() - 2]),
            Err(SessionError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn budget_exhaustion_reports_partial_pooled_answer() {
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let cfg = StratifiedConfig {
            max_observations: Some(90), // floors alone need 80
            ..StratifiedConfig::default()
        };
        let mut session =
            StratifiedSession::new(&kg, &strat, &IntervalMethod::ahpd_default(), &cfg, 3);
        drive(&kg, &mut session, 8);
        assert_eq!(session.stop_reason(), Some(StopReason::BudgetExhausted));
        let result = outcome(session);
        assert!(!result.result.converged);
        assert!(result.result.observations >= 90);
        // The tail strata never saw data — the pooled answer is the
        // renormalized partial estimate over the covered strata.
        assert!(strata(&result).iter().any(|r| r.status.observations == 0));
        assert!(result.result.mu_hat > 0.0 && result.result.mu_hat <= 1.0);
    }

    #[test]
    fn tiny_strata_reach_census_and_contribute_exactly() {
        // A 3-stratum partition of a tiny KG: every stratum is driven
        // to census and the pooled answer is the exact accuracy.
        let kg = kgae_graph::datasets::syn_scaled(60, 20, 0.6, 11);
        let strat = kgae_graph::stratify::Stratification::by_hash(&kg, 3, 2);
        let cfg = StratifiedConfig {
            epsilon: 0.000_1, // unreachable by sampling a 60-triple KG
            ..StratifiedConfig::default()
        };
        let mut session = StratifiedSession::new(&kg, &strat, &IntervalMethod::Wilson, &cfg, 1);
        drive(&kg, &mut session, 16);
        assert_eq!(session.stop_reason(), Some(StopReason::PopulationExhausted));
        let result = outcome(session);
        assert_eq!(result.result.observations, 60);
        assert_eq!(result.result.interval.width(), 0.0);
        assert!((result.result.mu_hat - kg.measure_accuracy()).abs() < 1e-12);
        for report in strata(&result) {
            assert!(report.census);
            assert_eq!(report.status.stopped, Some(StopReason::PopulationExhausted));
        }
    }

    #[test]
    fn protocol_errors_mirror_the_single_session() {
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let mut session = StratifiedSession::new(
            &kg,
            &strat,
            &IntervalMethod::Wilson,
            &StratifiedConfig::default(),
            0,
        );
        assert!(matches!(
            session.submit(&[true]),
            Err(SessionError::NoRequestPending)
        ));
        let req = session.next_request(4).unwrap().unwrap();
        assert!(matches!(
            session.next_request(1),
            Err(SessionError::RequestPending)
        ));
        assert!(matches!(
            session.snapshot(),
            Err(SessionError::SnapshotUnavailable(_))
        ));
        assert!(session.has_pending_request());
        let labels = oracle_labels(&kg, &req.request);
        session.submit(&labels).unwrap();
        assert!(!session.has_pending_request());
    }

    #[test]
    fn width_greedy_oversamples_the_rotten_strata() {
        // Width-greedy must spend visibly more of its budget on the
        // high-variance (low-accuracy) predicates than proportional
        // does, relative to their population share.
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        let spend = |allocation: AllocationPolicy| {
            let cfg = StratifiedConfig {
                allocation,
                epsilon: 0.03,
                ..StratifiedConfig::default()
            };
            let mut session =
                StratifiedSession::new(&kg, &strat, &IntervalMethod::ahpd_default(), &cfg, 17);
            drive(&kg, &mut session, 8);
            let result = outcome(session);
            assert!(result.result.converged);
            result
        };
        let greedy = spend(AllocationPolicy::WidthGreedy);
        let proportional = spend(AllocationPolicy::Proportional);
        // Share of annotations on the three rotten tail predicates
        // (accuracy ≤ 0.70 → the highest-variance strata).
        let tail_share = |result: &EngineOutcome| {
            let tail: u64 = strata(result)[5..]
                .iter()
                .map(|r| r.status.observations)
                .sum();
            tail as f64 / result.result.observations as f64
        };
        assert!(
            tail_share(&greedy) > tail_share(&proportional),
            "greedy tail share {:.3} vs proportional {:.3}",
            tail_share(&greedy),
            tail_share(&proportional)
        );
        // And it reaches the pooled target with fewer annotations.
        assert!(
            greedy.result.observations < proportional.result.observations,
            "greedy {} vs proportional {}",
            greedy.result.observations,
            proportional.result.observations
        );
    }
}
