//! Continuous accuracy monitoring over an evolving KG — the fourth
//! [`SessionEngine`], turning one-shot audits into a long-lived
//! monitor (paper §8).
//!
//! A [`MonitorSession`] wraps a [`kgae_graph::DeltaKg`] view of a
//! frozen base KG and runs ordinary SRS annotation campaigns over it.
//! Its lifecycle alternates between two phases:
//!
//! * **Annotating** — an embedded [`EvaluationSession`] drives the
//!   standard `next_request`/`submit` poll protocol. Every consumed
//!   label is also recorded in a *label ledger* keyed by delta-proof
//!   [`StableId`]s. When the campaign's stopping rule fires, the
//!   monitor harvests its result and switches to watching — the
//!   monitor itself never reports a stop reason.
//! * **Watching** — no annotation is owed. `status()` keeps reporting
//!   the last certified estimate and credible interval at zero new
//!   annotation cost.
//!
//! [`SessionEngine::apply_deltas`] accepts a batch of triple
//! adds/removes (optionally tagged with a predicate for drift
//! accounting), retires removed triples' ledger labels, and re-derives
//! the surviving posterior:
//!
//! * Surviving labels form `Beta(p.a + τ, p.b + (n − τ))` under each
//!   standard uninformative prior `p`, and the narrowest resulting
//!   interval wins — the aHPD race re-run on the surviving evidence.
//! * Additions not yet exposed to any completed campaign contribute an
//!   evidence-free `Beta(1, 1)` population share: the reported
//!   posterior is the moment-matched Beta of the mixture
//!   `s·μ_surv + (1 − s)·μ_new`, where `s` is the share of the current
//!   view a completed campaign has actually sampled. Pure removals keep
//!   the exact survivor posterior; heavy unlabeled growth widens it.
//!
//! If the mixture's HPD interval still meets the MoE target the monitor
//! keeps watching — the update cost **zero** annotations. Otherwise it
//! re-opens a campaign seeded with the surviving posterior as an
//! informative prior (the surviving posterior's mean, its evidence
//! capped at `carry_weight` pseudo-observations and never inflated past
//! the evidence actually held), hedged by the standard uninformative
//! priors against deceptive updates — the paper's §8 carryover of prior
//! knowledge into the evaluation of an evolving KG.
//!
//! A delta-free monitor is **bit-identical** to a plain
//! [`EvaluationSession`] with the same seed/method/config (property
//! test `monitor_equivalence.rs`): epoch 0 uses the same
//! `SmallRng::seed_from_u64(seed)` stream over a transparent view.
//! Re-opened campaign `k` derives its stream as
//! `mix2(seed, k)`, so replaying the same delta/label sequence
//! reproduces the same trajectory everywhere. The monitor keeps that
//! sequence as its event log — every accepted poll with its labels and
//! every non-empty delta batch — and a snapshot is the spec's identity
//! plus the log: resume replays it through the live calls, so the
//! overlay, ledger, counters and open campaign are all derived.

use std::collections::BTreeMap;

use crate::engine::{EngineKind, EngineOutcome, EngineRequest, SessionEngine, SessionStatusView};
use crate::framework::{EvalConfig, PreparedDesign, SamplingDesign};
use crate::method::IntervalMethod;
use crate::session::{
    config_fingerprint_matches, method_fingerprint_matches, read_record_prefix,
    write_config_fingerprint, write_method_fingerprint, EvaluationSession, SessionError,
    SessionStatus, MONITOR_SNAPSHOT_TAG,
};
use crate::snapshot::{LabelLog, ReadResult, Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use kgae_graph::hash::mix2;
use kgae_graph::{DeltaKg, KnowledgeGraph, StableId};
use kgae_intervals::{hpd_interval_exact, BetaPrior, Interval, IntervalError};
use kgae_stats::dist::Beta;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One KG update batch handed to a monitor. `removes` name triples by
/// their **current** view ids (all resolved against the pre-batch view,
/// so ids are not shifted by same-batch removes); `adds` carry the
/// ground-truth correctness of brand-new triples — simulation metadata
/// for oracle annotators in benches and tests, never read by the
/// estimator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Optional predicate tag for per-predicate drift accounting.
    pub predicate: Option<String>,
    /// Current view ids to remove.
    pub removes: Vec<u64>,
    /// Correctness flags of the added triples (each its own singleton
    /// entity cluster).
    pub adds: Vec<bool>,
}

/// What one applied delta batch did to the monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Ledger labels retired because their triples were removed.
    pub retired_labels: u64,
    /// Whether this batch re-opened annotation.
    pub reopened: bool,
    /// The campaign epoch after the batch (0 = the initial campaign).
    pub epoch: u64,
    /// Whether the monitor is watching (no annotation owed) after the
    /// batch.
    pub watching: bool,
}

/// One predicate's cumulative churn row, first-appearance order;
/// untagged batches land in the `"*"` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftReport {
    /// The predicate tag (`"*"` for untagged batches).
    pub predicate: String,
    /// Triples added under this tag.
    pub adds: u64,
    /// Triples removed under this tag.
    pub removes: u64,
    /// Ledger labels retired by this tag's removals.
    pub retired_labels: u64,
    /// Drift alarm: cumulative churn (`adds + removes`) reached 5% of
    /// the current view (at least 1 triple).
    pub alarm: bool,
}

/// The monitor-specific rows of a [`SessionStatusView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// Current campaign epoch (0 = the initial campaign).
    pub epoch: u64,
    /// Campaigns re-opened by interval degradation (excludes epoch 0).
    pub campaigns_reopened: u64,
    /// Total ledger labels retired by removals.
    pub retired_labels: u64,
    /// Whether the monitor is watching (true) or annotating (false).
    pub watching: bool,
    /// Per-predicate churn rows with drift alarms.
    pub drift: Vec<DriftReport>,
}

#[derive(Debug, Clone, PartialEq)]
struct DriftRow {
    predicate: String,
    adds: u64,
    removes: u64,
    retired: u64,
}

/// The last certified estimate, reported while watching.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Watched {
    estimate: f64,
    interval: Interval,
}

/// A freshly appraised surviving posterior (see the module docs for
/// the mixture construction).
struct Appraisal {
    estimate: f64,
    interval: Interval,
    prior_a: f64,
    prior_b: f64,
}

/// The long-lived continuous-monitoring engine. See the module docs
/// for the lifecycle; construct through [`MonitorSession::new`] or an
/// engine spec ([`crate::engine::EngineSpec::Monitor`]).
///
/// SRS-only: the view's additions are singleton clusters and the
/// overlay may empty base clusters, which cluster designs cannot
/// sample; SRS reads nothing but `num_triples`.
pub struct MonitorSession<'a> {
    // Field order is load-bearing: `inner` borrows the heap payload of
    // `view` (see `forged_view`), so it must drop first.
    inner: Option<EvaluationSession<'a, SmallRng>>,
    view: Box<DeltaKg<'a>>,
    base_method: IntervalMethod,
    cfg: EvalConfig,
    carry_weight: f64,
    seed: u64,
    /// Campaign epoch; every epoch past 0 is a re-opened campaign.
    epoch: u64,
    /// `next_serial` of the view when the last campaign completed:
    /// additions at or past this serial have never been exposed to a
    /// completed campaign and count as evidence-free population.
    seen_serials: u64,
    /// Work accumulated by completed (and absorbed partial) campaigns.
    done_observations: u64,
    done_triples: u64,
    done_cost: f64,
    /// Carried prior `(a, b)` for the next re-opened campaign.
    carry: Option<(f64, f64)>,
    /// Labels of surviving triples, keyed by delta-proof stable id.
    ledger: BTreeMap<StableId, bool>,
    drift: Vec<DriftRow>,
    watched: Option<Watched>,
    /// Current ids of the outstanding batch's triples, for ledgering
    /// the consumed prefix at submit.
    pending_triples: Vec<u64>,
    /// Shared posterior-kernel cache, re-attached to every campaign the
    /// monitor opens (the inner session is recreated on re-open after
    /// deltas, so the handle must outlive individual campaigns).
    kernel: Option<std::sync::Arc<kgae_intervals::KernelCache>>,
    /// The event log: every call that changed the monitor, encoded in
    /// call order (see [`SessionEngine::snapshot`]), with the labels
    /// of its polls kept apart, one bit each.
    events: Writer,
    labels: LabelLog,
}

impl std::fmt::Debug for MonitorSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorSession")
            .field("epoch", &self.epoch)
            .field("watching", &self.inner.is_none())
            .field("ledger", &self.ledger.len())
            .field("retired", &self.retired_labels())
            .finish_non_exhaustive()
    }
}

/// Re-borrows the boxed view with the monitor's outer lifetime so the
/// embedded session can hold it across the self-reference.
///
/// SAFETY contract (upheld by every `MonitorSession` path):
/// * the `Box` heap payload has a stable address for the monitor's
///   whole life — moving the monitor moves only the box pointer;
/// * the view is mutated (`&mut`) exclusively in `apply_deltas`, and
///   only after `inner` — the sole holder of a forged reference — has
///   been dropped (`Option::take`);
/// * `inner` is declared before `view`, so it also drops first.
#[allow(clippy::borrowed_box)] // &Box is the point: the forge needs the box's stable heap address
fn forged_view<'a>(view: &Box<DeltaKg<'a>>) -> &'a dyn KnowledgeGraph {
    let ptr: *const DeltaKg<'a> = &**view;
    unsafe { &*(ptr as *const (dyn KnowledgeGraph + 'a)) }
}

impl<'a> MonitorSession<'a> {
    /// Opens a monitor over `base` and starts its initial campaign
    /// (epoch 0), which is bit-identical to a plain
    /// [`EvaluationSession`] with the same `method`/`cfg`/`seed` under
    /// [`SamplingDesign::Srs`].
    ///
    /// `carry_weight` caps the pseudo-observations a surviving
    /// posterior may carry into a re-opened campaign.
    #[must_use]
    pub fn new(
        base: &'a dyn KnowledgeGraph,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        carry_weight: f64,
        seed: u64,
    ) -> Self {
        let view = Box::new(DeltaKg::new(base));
        let inner = Some(Self::open_campaign(
            &view,
            method,
            cfg,
            SmallRng::seed_from_u64(seed),
        ));
        Self {
            inner,
            view,
            base_method: method.clone(),
            cfg: cfg.clone(),
            carry_weight,
            seed,
            epoch: 0,
            seen_serials: 0,
            done_observations: 0,
            done_triples: 0,
            done_cost: 0.0,
            carry: None,
            ledger: BTreeMap::new(),
            drift: Vec::new(),
            watched: None,
            pending_triples: Vec::new(),
            kernel: None,
            events: Writer::new(),
            labels: LabelLog::default(),
        }
    }

    #[allow(clippy::borrowed_box)] // see forged_view
    fn open_campaign(
        view: &Box<DeltaKg<'a>>,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        rng: SmallRng,
    ) -> EvaluationSession<'a, SmallRng> {
        let kg = forged_view(view);
        // SRS preparation is O(1) (no PPS table), so rebuilding it per
        // campaign is free.
        let prepared = PreparedDesign::new(kg, SamplingDesign::Srs);
        EvaluationSession::from_prepared(kg, &prepared, method, cfg, rng)
    }

    /// The method a campaign at the current epoch/carry state runs:
    /// the base method for epoch 0 (or when no labels survive), else
    /// aHPD over the carried prior plus the uninformative hedges.
    fn campaign_method(&self) -> IntervalMethod {
        match self.carry {
            Some((a, b)) if self.epoch > 0 => {
                let carry = BetaPrior::informative(a, b)
                    .expect("carried prior parameters are positive and finite");
                let mut priors = vec![carry];
                priors.extend(BetaPrior::UNINFORMATIVE);
                IntervalMethod::AHpd(priors)
            }
            _ => self.base_method.clone(),
        }
    }

    /// Folds a stopped campaign's result into the cumulative counters
    /// and switches to watching.
    fn harvest(&mut self) {
        let inner = self.inner.take().expect("harvest requires a campaign");
        let result = inner
            .into_result()
            .expect("harvest requires a stopped campaign");
        self.done_observations += result.observations;
        self.done_triples += result.annotated_triples;
        self.done_cost += result.cost_seconds;
        self.watched = Some(Watched {
            estimate: result.mu_hat,
            interval: result.interval,
        });
        self.seen_serials = self.view.next_serial();
    }

    /// Additions never exposed to a completed campaign.
    fn unseen_additions(&self) -> u64 {
        self.view
            .added_entries()
            .filter(|&(serial, _)| serial >= self.seen_serials)
            .count() as u64
    }

    /// Appraises the surviving evidence by re-running the aHPD race on
    /// it: under each standard uninformative prior `p` the survivors
    /// form `Beta(p.a + τ, p.b + (n − τ))`, which is mixed with the
    /// evidence-free addition share (module docs) and moment-matched
    /// back to a Beta; the narrowest HPD interval wins — the same
    /// first-narrow-prior rule the campaign itself stopped under, so a
    /// delta-free appraisal agrees with the campaign's own certificate.
    /// `None` when no posterior can be formed (empty ledger or a
    /// degenerate mixture).
    fn appraise(&self) -> Option<Appraisal> {
        if self.ledger.is_empty() {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.ledger.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let tau = self.ledger.values().filter(|&&v| v).count() as f64;
        #[allow(clippy::cast_precision_loss)]
        let total = self.view.num_triples() as f64;
        if total <= 0.0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let unseen = self.unseen_additions() as f64;
        let share = (total - unseen) / total;
        let mut best: Option<(Appraisal, f64)> = None;
        for prior in &BetaPrior::UNINFORMATIVE {
            let (a1, b1) = (prior.a + tau, prior.b + (n - tau));
            let m1 = a1 / (a1 + b1);
            let v1 = a1 * b1 / ((a1 + b1) * (a1 + b1) * (a1 + b1 + 1.0));
            let m = share * m1 + (1.0 - share) * 0.5;
            let v = share * share * v1 + (1.0 - share) * (1.0 - share) / 12.0;
            // Moment match: ν = m(1−m)/v − 1. For a pure survivor
            // posterior (share = 1) this is exactly a1 + b1.
            let nu = m * (1.0 - m) / v - 1.0;
            if !(nu.is_finite() && nu > 0.0 && m > 0.0 && m < 1.0) {
                continue;
            }
            let Ok(posterior) = Beta::new(m * nu, (1.0 - m) * nu) else {
                continue;
            };
            let Ok(interval) = hpd_interval_exact(&posterior, self.cfg.alpha) else {
                continue;
            };
            let cap = self.carry_weight.min(nu);
            let Ok(carry) = posterior_as_prior(&posterior, cap) else {
                continue;
            };
            let width = interval.width();
            if best.as_ref().is_none_or(|(_, w)| width < *w) {
                best = Some((
                    Appraisal {
                        estimate: m,
                        interval,
                        prior_a: carry.a,
                        prior_b: carry.b,
                    },
                    width,
                ));
            }
        }
        best.map(|(appraisal, _)| appraisal)
    }

    fn drift_row_mut(&mut self, predicate: Option<&str>) -> &mut DriftRow {
        let key = predicate.unwrap_or("*");
        let index = match self.drift.iter().position(|r| r.predicate == key) {
            Some(i) => i,
            None => {
                self.drift.push(DriftRow {
                    predicate: key.to_string(),
                    adds: 0,
                    removes: 0,
                    retired: 0,
                });
                self.drift.len() - 1
            }
        };
        &mut self.drift[index]
    }

    /// The drift rows with alarms computed against the current view:
    /// a row alarms once its cumulative churn reaches 5% of the view
    /// (at least 1 triple).
    fn drift_reports(&self) -> Vec<DriftReport> {
        let threshold = (self.view.num_triples() / 20).max(1);
        self.drift
            .iter()
            .map(|r| DriftReport {
                predicate: r.predicate.clone(),
                adds: r.adds,
                removes: r.removes,
                retired_labels: r.retired,
                alarm: r.adds + r.removes >= threshold,
            })
            .collect()
    }

    /// Ledger labels retired by removals, over every drift row.
    fn retired_labels(&self) -> u64 {
        self.drift.iter().map(|r| r.retired).sum()
    }

    /// The monitor rows of the status view.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            epoch: self.epoch,
            campaigns_reopened: self.epoch,
            retired_labels: self.retired_labels(),
            watching: self.inner.is_none(),
            drift: self.drift_reports(),
        }
    }

    /// Whether the monitor is watching (no annotation owed).
    #[must_use]
    pub fn watching(&self) -> bool {
        self.inner.is_none()
    }

    /// The label ledger size (surviving annotated triples).
    #[must_use]
    pub fn ledger_len(&self) -> usize {
        self.ledger.len()
    }

    /// Reconstructs a suspended monitor: validates the identity prefix
    /// against the supplied spec, then builds [`MonitorSession::new`]
    /// and replays the logged calls through the live
    /// `next_request`/`submit`/`apply_deltas`, whose own checks validate
    /// the log. A `kernel` cache is attached before the replay, so the
    /// replayed stopping checks memoize through it.
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes or a log the
    /// monitor could not have written (a poll that draws a different
    /// request, labels that do not match their polls, a batch the view
    /// rejects); [`SessionError::SnapshotMismatch`] when the snapshot
    /// belongs to a different base KG, config, carry weight, method or
    /// seed.
    pub fn resume(
        base: &'a dyn KnowledgeGraph,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        carry_weight: f64,
        seed: u64,
        kernel: Option<std::sync::Arc<kgae_intervals::KernelCache>>,
        bytes: &[u8],
    ) -> Result<Self, SessionError> {
        let corrupt = SessionError::CorruptSnapshot;
        let mismatch = SessionError::SnapshotMismatch;
        let mut r = Reader::new(bytes);
        if read_record_prefix(&mut r)? != MONITOR_SNAPSHOT_TAG {
            return Err(mismatch("not a monitor snapshot"));
        }
        if r.u64().map_err(corrupt)? != base.num_triples()
            || r.u32().map_err(corrupt)? != base.num_clusters()
        {
            return Err(mismatch("base KG shape differs"));
        }
        if !config_fingerprint_matches(&mut r, cfg).map_err(corrupt)? {
            return Err(mismatch("config differs"));
        }
        if r.f64().map_err(corrupt)?.to_bits() != carry_weight.to_bits() {
            return Err(mismatch("carry weight differs"));
        }
        if !method_fingerprint_matches(&mut r, method).map_err(corrupt)? {
            return Err(mismatch("interval method differs"));
        }
        if r.u64().map_err(corrupt)? != seed {
            return Err(mismatch("seed differs"));
        }
        // Every label and flag in the log is a bit of the record, and
        // every other length counts at least one byte.
        let cap = bytes.len() as u64;
        let labels = LabelLog::read(&mut r, 8 * cap).map_err(corrupt)?;
        let events = r.rest();
        let mut monitor = Self::new(base, method, cfg, carry_weight, seed);
        if let Some(kernel) = kernel {
            monitor.set_kernel_cache(kernel);
        }
        let mut r = Reader::new(events);
        let mut next_label = 0;
        while !r.is_empty() {
            match r.u8().map_err(corrupt)? {
                POLL_EVENT => {
                    let units = r.u64().map_err(corrupt)?;
                    monitor.replay_poll(units, &labels, &mut next_label)?;
                }
                DELTA_EVENT => {
                    let batch = read_batch(&mut r, cap).map_err(corrupt)?;
                    monitor
                        .apply_deltas(&batch)
                        .map_err(|_| corrupt("the view rejects a logged delta batch"))?;
                }
                _ => return Err(corrupt("unknown monitor event")),
            }
        }
        // The live calls logged themselves again; anything they did not
        // log (an empty batch, a poll of a watching monitor, labels past
        // the last poll) is a log this monitor could not have written.
        if monitor.events.as_bytes() != events || monitor.labels != labels {
            return Err(corrupt("the log holds calls the monitor does not log"));
        }
        Ok(monitor)
    }

    /// Replays one logged poll of `units` units: a poll must draw
    /// exactly `units` triples and take their labels from `labels` at
    /// `next`; a poll of 0 units drew nothing and ended the campaign.
    fn replay_poll(
        &mut self,
        units: u64,
        labels: &LabelLog,
        next: &mut u64,
    ) -> Result<(), SessionError> {
        let corrupt = SessionError::CorruptSnapshot;
        let polled = SessionEngine::next_request(self, units)
            .map_err(|_| corrupt("a logged poll fails on replay"))?;
        let drawn = polled.map_or(0, |p| p.request.triples.len() as u64);
        if drawn != units {
            return Err(corrupt("a logged poll draws a different request"));
        }
        if units == 0 {
            return Ok(());
        }
        let end = *next + units;
        if end > labels.len() {
            return Err(corrupt("the label log runs out inside a poll"));
        }
        let batch: Vec<bool> = (*next..end).map(|i| labels.get(i)).collect();
        *next = end;
        SessionEngine::submit(self, &batch).map_err(|_| corrupt("a logged submit fails on replay"))
    }
}

/// Event tags of the monitor's log. A poll is its `u64` unit count; its
/// labels sit in the label log. A delta is its batch (`write_batch`).
const POLL_EVENT: u8 = 0;
const DELTA_EVENT: u8 = 1;

/// Encodes a delta batch: the predicate (`bool` present, then `u64`
/// length and UTF-8 bytes), the `u64` remove count and the removed
/// current ids, then the adds' correctness flags as a [`LabelLog`].
fn write_batch(w: &mut Writer, batch: &DeltaBatch) {
    w.bool(batch.predicate.is_some());
    if let Some(predicate) = &batch.predicate {
        w.u64(predicate.len() as u64);
        w.bytes(predicate.as_bytes());
    }
    w.u64(batch.removes.len() as u64);
    for &id in &batch.removes {
        w.u64(id);
    }
    let mut adds = LabelLog::default();
    for &correct in &batch.adds {
        adds.push(correct);
    }
    adds.write(w);
}

/// Inverse of [`write_batch`]; lengths are checked against the record
/// length `cap` before any allocation.
fn read_batch(r: &mut Reader<'_>, cap: u64) -> ReadResult<DeltaBatch> {
    let predicate = if r.bool()? {
        let len = r.len_capped(cap)?;
        let name = r.bytes(len)?.to_vec();
        Some(String::from_utf8(name).map_err(|_| "delta predicate not UTF-8")?)
    } else {
        None
    };
    let removes = (0..r.len_capped(cap / 8)?)
        .map(|_| r.u64())
        .collect::<ReadResult<_>>()?;
    let adds = LabelLog::read(r, 8 * cap)?;
    Ok(DeltaBatch {
        predicate,
        removes,
        adds: (0..adds.len()).map(|i| adds.get(i)).collect(),
    })
}

impl SessionEngine for MonitorSession<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Monitor
    }

    fn has_pending_request(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(EvaluationSession::has_pending_request)
    }

    fn next_request(&mut self, max_units: u64) -> Result<Option<EngineRequest>, SessionError> {
        let Some(inner) = self.inner.as_mut() else {
            // Watching: nothing owed, and no stop reason either — the
            // monitor idles until a delta degrades the interval.
            return Ok(None);
        };
        match inner.next_request(max_units)? {
            Some(request) => {
                self.pending_triples = request.triples.iter().map(|st| st.triple.index()).collect();
                Ok(Some(EngineRequest {
                    request,
                    stratum: None,
                }))
            }
            None => {
                // The campaign stopped without owing labels (e.g. the
                // population was exhausted during the poll).
                if self
                    .inner
                    .as_ref()
                    .is_some_and(|i| i.stop_reason().is_some())
                {
                    self.harvest();
                    self.events.u8(POLL_EVENT);
                    self.events.u64(0);
                }
                Ok(None)
            }
        }
    }

    fn submit(&mut self, labels: &[bool]) -> Result<(), SessionError> {
        let consumed = {
            let inner = self.inner.as_mut().ok_or(SessionError::NoRequestPending)?;
            let before = inner.sample_state().n();
            inner.submit(labels)?;
            inner.sample_state().n() - before
        };
        // Ledger exactly the consumed prefix: labels past the stopping
        // unit are discarded by the campaign and must not enter the
        // carryover evidence.
        let consumed = usize::try_from(consumed).expect("batch fits usize");
        for (&t, &label) in self.pending_triples.iter().zip(labels).take(consumed) {
            self.ledger.insert(self.view.resolve(t), label);
        }
        self.pending_triples.clear();
        self.events.u8(POLL_EVENT);
        self.events.u64(labels.len() as u64);
        for &label in labels {
            self.labels.push(label);
        }
        if self
            .inner
            .as_ref()
            .is_some_and(|i| i.stop_reason().is_some())
        {
            self.harvest();
        }
        Ok(())
    }

    fn cancel_request(&mut self) -> Result<(), SessionError> {
        let inner = self.inner.as_mut().ok_or(SessionError::NoRequestPending)?;
        inner.cancel_request()?;
        self.pending_triples.clear();
        Ok(())
    }

    fn status(&self) -> SessionStatusView {
        let primary = match (&self.inner, &self.watched) {
            // Annotating: the live campaign view on top of completed
            // campaigns' cumulative effort. Epoch 0 reports exactly the
            // plain-session status (cumulatives are zero).
            (Some(inner), _) => {
                let live = inner.status();
                SessionStatus {
                    estimate: live.estimate,
                    interval: live.interval,
                    observations: self.done_observations + live.observations,
                    annotated_triples: self.done_triples + live.annotated_triples,
                    stage1_draws: 0,
                    cost_seconds: self.done_cost + live.cost_seconds,
                    stopped: None,
                }
            }
            // Watching: the certified estimate at zero marginal cost.
            (None, watched) => SessionStatus {
                estimate: watched.map(|w| w.estimate),
                interval: watched.map(|w| w.interval),
                observations: self.done_observations,
                annotated_triples: self.done_triples,
                stage1_draws: 0,
                cost_seconds: self.done_cost,
                stopped: None,
            },
        };
        SessionStatusView {
            primary,
            strata: None,
            methods: None,
            monitor: Some(self.report()),
        }
    }

    fn stop_reason(&self) -> Option<crate::session::StopReason> {
        // A monitor never finishes on its own; it is deleted, not
        // stopped.
        None
    }

    /// Serializes the monitor into a `KGAESNAP` snapshot (record tag
    /// 6): the identity prefix (base-KG shape, config and carry-weight
    /// fingerprints, method fingerprint, seed), then the event log —
    /// the labels of every logged poll, one bit each, and the events in
    /// call order. Everything else is derived by replaying the log, so
    /// suspend → resume → suspend reproduces the bytes.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed.
    fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.has_pending_request() {
            return Err(SessionError::SnapshotUnavailable(
                "a request is outstanding; submit its labels first",
            ));
        }
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u8(MONITOR_SNAPSHOT_TAG);
        w.u64(self.view.base().num_triples());
        w.u32(self.view.base().num_clusters());
        write_config_fingerprint(&mut w, &self.cfg);
        w.f64(self.carry_weight);
        write_method_fingerprint(&mut w, &self.base_method);
        w.u64(self.seed);
        self.labels.write(&mut w);
        w.bytes(self.events.as_bytes());
        Ok(w.into_bytes())
    }

    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome> {
        None
    }

    /// Applies one KG delta batch. Refused while labels are owed
    /// ([`SessionError::RequestPending`]) — the host must cancel or
    /// collect the outstanding request first — and on an invalid batch
    /// ([`SessionError::DeltaRejected`]), in which case nothing changes.
    ///
    /// An open campaign is absorbed (its partial work counted, its
    /// labels already in the ledger); removed triples' labels are
    /// retired; and annotation re-opens only if the surviving
    /// posterior's HPD interval no longer meets the MoE target.
    ///
    /// # Errors
    ///
    /// As above; never fails after it starts mutating.
    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, SessionError> {
        if self.has_pending_request() {
            return Err(SessionError::RequestPending);
        }
        // Validate before touching the open campaign: an invalid batch
        // must not perturb the monitor at all.
        self.view
            .check_removes(&batch.removes)
            .map_err(SessionError::DeltaRejected)?;
        // An empty batch is a true no-op: nothing to retire, nothing to
        // re-appraise. The certificate — or the open campaign — stands
        // exactly as it was, and no drift row is charged.
        if batch.removes.is_empty() && batch.adds.is_empty() {
            return Ok(DeltaOutcome {
                retired_labels: 0,
                reopened: false,
                epoch: self.epoch,
                watching: self.inner.is_none(),
            });
        }
        // Absorb an open campaign: its labels are already ledgered per
        // submit; fold its partial effort into the cumulatives and drop
        // it (required before `&mut view` — see `forged_view`).
        if let Some(inner) = self.inner.take() {
            let partial = inner.status();
            self.done_observations += partial.observations;
            self.done_triples += partial.annotated_triples;
            self.done_cost += partial.cost_seconds;
        }
        let applied = self
            .view
            .apply(&batch.removes, &batch.adds)
            .expect("batch validated above");
        self.events.u8(DELTA_EVENT);
        write_batch(&mut self.events, batch);
        let mut retired = 0u64;
        for id in &applied.removed {
            if self.ledger.remove(id).is_some() {
                retired += 1;
            }
        }
        {
            let row = self.drift_row_mut(batch.predicate.as_deref());
            row.adds += batch.adds.len() as u64;
            row.removes += batch.removes.len() as u64;
            row.retired += retired;
        }
        let appraisal = self.appraise();
        self.carry = appraisal.as_ref().map(|a| (a.prior_a, a.prior_b));
        match appraisal {
            Some(a) if a.interval.moe() <= self.cfg.epsilon => {
                // Still certified: keep (or fall back to) watching.
                self.watched = Some(Watched {
                    estimate: a.estimate,
                    interval: a.interval,
                });
                Ok(DeltaOutcome {
                    retired_labels: retired,
                    reopened: false,
                    epoch: self.epoch,
                    watching: true,
                })
            }
            _ => {
                self.epoch += 1;
                self.watched = None;
                let method = self.campaign_method();
                let rng = SmallRng::seed_from_u64(mix2(self.seed, self.epoch));
                let mut inner = Self::open_campaign(&self.view, &method, &self.cfg, rng);
                if let Some(kernel) = &self.kernel {
                    inner.set_kernel_cache(std::sync::Arc::clone(kernel));
                }
                self.inner = Some(inner);
                Ok(DeltaOutcome {
                    retired_labels: retired,
                    reopened: true,
                    epoch: self.epoch,
                    watching: false,
                })
            }
        }
    }

    /// Attaches a shared posterior-kernel cache: the current campaign
    /// and every future re-opened campaign memoize their SRS solves
    /// through it. Purely a cost lever — outputs are bit-identical.
    fn set_kernel_cache(&mut self, kernel: std::sync::Arc<kgae_intervals::KernelCache>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.set_kernel_cache(std::sync::Arc::clone(&kernel));
        }
        self.kernel = Some(kernel);
    }
}

/// Rescales a posterior into a prior with a chosen evidence weight.
///
/// The posterior `Beta(A, B)` carries `A + B` pseudo-observations; the
/// carried-over prior keeps the posterior *mean* but caps the evidence at
/// `equivalent_n` pseudo-observations, so stale knowledge cannot drown
/// out fresh annotations. `equivalent_n = A + B` reproduces the raw
/// posterior.
fn posterior_as_prior(posterior: &Beta, equivalent_n: f64) -> Result<BetaPrior, IntervalError> {
    if !(equivalent_n.is_finite() && equivalent_n > 0.0) {
        return Err(IntervalError::Stats(
            kgae_stats::StatsError::InvalidParameter {
                name: "equivalent_n",
                value: equivalent_n,
                constraint: "must be finite and > 0",
            },
        ));
    }
    let mean = posterior.mean();
    Ok(BetaPrior::informative(
        (mean * equivalent_n).max(1e-6),
        ((1.0 - mean) * equivalent_n).max(1e-6),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::{DeltaError, GroundTruth};

    fn drive_to_watching(monitor: &mut MonitorSession<'_>, truth: &dyn GroundTruth, batch: u64) {
        let mut guard = 0;
        while !monitor.watching() {
            let Some(polled) = monitor.next_request(batch).unwrap() else {
                break;
            };
            let labels: Vec<bool> = polled
                .request
                .triples
                .iter()
                .map(|st| truth.is_correct(st.triple))
                .collect();
            monitor.submit(&labels).unwrap();
            guard += 1;
            assert!(guard < 10_000, "campaign failed to converge");
        }
    }

    #[test]
    fn posterior_as_prior_preserves_mean_and_caps_weight() {
        let post = Beta::new(180.0, 20.0).unwrap(); // mean 0.9, weight 200
        let prior = posterior_as_prior(&post, 50.0).unwrap();
        assert!((prior.a / (prior.a + prior.b) - 0.9).abs() < 1e-12);
        assert!((prior.a + prior.b - 50.0).abs() < 1e-9);
    }

    #[test]
    fn posterior_as_prior_rejects_bad_weight() {
        let post = Beta::new(2.0, 2.0).unwrap();
        assert!(posterior_as_prior(&post, 0.0).is_err());
        assert!(posterior_as_prior(&post, f64::NAN).is_err());
    }

    #[test]
    fn initial_campaign_harvests_into_watching() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 42);
        assert!(!monitor.watching());
        drive_to_watching(&mut monitor, &kg, 16);
        assert!(monitor.watching());
        let view = SessionEngine::status(&monitor);
        let primary = view.primary;
        assert!(primary.stopped.is_none());
        assert!(primary.interval.unwrap().moe() <= cfg.epsilon);
        assert!(primary.observations > 0);
        let report = view.monitor.unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(report.campaigns_reopened, 0);
        assert!(report.watching);
        // Watching monitors poll to None but report no stop reason.
        assert!(monitor.next_request(16).unwrap().is_none());
        assert!(SessionEngine::stop_reason(&monitor).is_none());
    }

    #[test]
    fn small_delta_keeps_watching_large_delta_reopens() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 7);
        drive_to_watching(&mut monitor, &kg, 16);
        let labels_before = monitor.ledger_len();

        // A tiny removal batch cannot push the interval past ε.
        let outcome = monitor
            .apply_deltas(&DeltaBatch {
                predicate: Some("tinyChurn".into()),
                removes: vec![0, 1],
                adds: vec![],
            })
            .unwrap();
        assert!(!outcome.reopened && outcome.watching);
        assert_eq!(outcome.epoch, 0);
        assert!(monitor.watching());
        assert!(monitor.ledger_len() >= labels_before.saturating_sub(2));

        // Massive unlabeled growth must degrade the interval.
        let outcome = monitor
            .apply_deltas(&DeltaBatch {
                predicate: Some("bulkLoad".into()),
                removes: vec![],
                adds: vec![true; 4000],
            })
            .unwrap();
        assert!(outcome.reopened && !outcome.watching);
        assert_eq!(outcome.epoch, 1);
        assert!(!monitor.watching());
        let report = monitor.report();
        assert_eq!(report.campaigns_reopened, 1);
        let bulk = report
            .drift
            .iter()
            .find(|r| r.predicate == "bulkLoad")
            .unwrap();
        assert!(bulk.alarm, "4000 adds over ~1860 base triples must alarm");
        let tiny = report
            .drift
            .iter()
            .find(|r| r.predicate == "tinyChurn")
            .unwrap();
        assert!(!tiny.alarm);
    }

    #[test]
    fn deltas_are_refused_while_labels_are_owed() {
        let kg = kgae_graph::datasets::yago();
        let method = IntervalMethod::Wilson;
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 1);
        let polled = monitor.next_request(4).unwrap().unwrap();
        assert!(matches!(
            monitor.apply_deltas(&DeltaBatch::default()),
            Err(SessionError::RequestPending)
        ));
        // Cancel rewinds; the delta then applies cleanly.
        monitor.cancel_request().unwrap();
        monitor
            .apply_deltas(&DeltaBatch {
                predicate: None,
                removes: vec![0],
                adds: vec![false],
            })
            .unwrap();
        drop(polled);
        // Invalid batches are refused with the overlay's own errors and
        // change nothing (one remove and one add left the size as is).
        let n = monitor.report();
        let len = kg.num_triples();
        for (removes, want) in [
            (
                vec![u64::MAX],
                DeltaError::RemoveOutOfRange { id: u64::MAX, len },
            ),
            (vec![3, 7, 3], DeltaError::DuplicateRemove { id: 3 }),
        ] {
            let got = monitor.apply_deltas(&DeltaBatch {
                predicate: None,
                removes,
                adds: vec![true],
            });
            assert!(
                matches!(&got, Err(SessionError::DeltaRejected(e)) if *e == want),
                "{got:?}"
            );
        }
        assert_eq!(monitor.report(), n);
    }

    #[test]
    fn carryover_campaign_uses_the_surviving_posterior() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 11);
        drive_to_watching(&mut monitor, &kg, 16);
        let outcome = monitor
            .apply_deltas(&DeltaBatch {
                predicate: None,
                removes: (0..120).collect(),
                adds: vec![true; 400],
            })
            .unwrap();
        assert!(outcome.reopened);
        let method_now = monitor.campaign_method();
        let IntervalMethod::AHpd(priors) = &method_now else {
            panic!("re-opened campaign must run aHPD, got {method_now:?}");
        };
        assert_eq!(priors.len(), 1 + BetaPrior::UNINFORMATIVE.len());
        let carried = &priors[0];
        assert!(carried.a + carried.b <= 50.0 + 1e-9, "evidence capped");
        // Carried mean near the NELL accuracy the first campaign saw.
        let mean = carried.a / (carried.a + carried.b);
        assert!((mean - 0.91).abs() < 0.15, "carried mean {mean}");
    }

    #[test]
    fn snapshot_round_trips_watching_and_annotating() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 5);
        // Mid-campaign (annotating, epoch 0).
        for _ in 0..3 {
            let polled = monitor.next_request(8).unwrap().unwrap();
            let labels: Vec<bool> = polled
                .request
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple))
                .collect();
            monitor.submit(&labels).unwrap();
        }
        let snap = monitor.snapshot().unwrap();
        let resumed = MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, None, &snap).unwrap();
        assert_eq!(resumed.report().epoch, 0);
        assert!(!resumed.watching());
        assert_eq!(resumed.snapshot().unwrap(), snap);

        // Watching with deltas applied and a campaign re-opened, then
        // suspended mid-delta (deltas in, annotation re-opened, no
        // batch outstanding).
        drive_to_watching(&mut monitor, &kg, 16);
        let watch_snap = monitor.snapshot().unwrap();
        let resumed =
            MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, None, &watch_snap).unwrap();
        assert!(resumed.watching());
        assert_eq!(resumed.snapshot().unwrap(), watch_snap);

        monitor
            .apply_deltas(&DeltaBatch {
                predicate: Some("drift".into()),
                removes: (0..50).collect(),
                adds: vec![false; 900],
            })
            .unwrap();
        assert!(!monitor.watching());
        // Drive a few batches of the re-opened campaign too.
        for _ in 0..2 {
            let Some(polled) = monitor.next_request(4).unwrap() else {
                break;
            };
            let labels: Vec<bool> = polled
                .request
                .triples
                .iter()
                .map(|st| {
                    // The view is the ground truth for the re-opened
                    // campaign: base survivors + synthetic adds.
                    monitor_truth(&monitor, st.triple.index())
                })
                .collect();
            monitor.submit(&labels).unwrap();
        }
        let snap = monitor.snapshot().unwrap();
        let resumed = MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, None, &snap).unwrap();
        assert_eq!(resumed.report(), monitor.report());
        assert_eq!(resumed.report().epoch, 1);
        assert_eq!(resumed.snapshot().unwrap(), snap);

        // Wrong spec parameters are rejected cleanly.
        assert!(matches!(
            MonitorSession::resume(&kg, &method, &cfg, 60.0, 5, None, &snap),
            Err(SessionError::SnapshotMismatch("carry weight differs"))
        ));
        assert!(matches!(
            MonitorSession::resume(&kg, &method, &cfg, 50.0, 6, None, &snap),
            Err(SessionError::SnapshotMismatch("seed differs"))
        ));
        assert!(matches!(
            MonitorSession::resume(&kg, &IntervalMethod::Wilson, &cfg, 50.0, 5, None, &snap),
            Err(SessionError::SnapshotMismatch("interval method differs"))
        ));
    }

    /// A record whose log the monitor could not have written resumes as
    /// a typed `CorruptSnapshot`, never a panic: a batch the view
    /// rejects, label bits that do not match their polls, calls the live
    /// path does not log, and a malformed event.
    #[test]
    fn impossible_logs_are_corrupt_snapshots_not_panics() {
        let kg = kgae_graph::datasets::nell();
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 3);
        drive_to_watching(&mut monitor, &kg, 8);
        let snap = monitor.snapshot().unwrap();
        let (labels, events) = (&monitor.labels, monitor.events.as_bytes());
        let log_len = 8 + labels.len().div_ceil(8) as usize + events.len();
        let prefix = &snap[..snap.len() - log_len];
        let record = |labels: &LabelLog, events: &[u8]| {
            let mut w = Writer::new();
            w.bytes(prefix);
            labels.write(&mut w);
            w.bytes(events);
            w.into_bytes()
        };
        assert_eq!(record(labels, events), snap);
        let appended = |tail: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.bytes(events);
            tail(&mut w);
            record(labels, w.as_bytes())
        };
        let delta = |removes: Vec<u64>, adds: Vec<bool>| {
            appended(&|w: &mut Writer| {
                w.u8(DELTA_EVENT);
                let batch = DeltaBatch {
                    predicate: None,
                    removes: removes.clone(),
                    adds: adds.clone(),
                };
                write_batch(w, &batch);
            })
        };
        let poll = |units: u64| {
            appended(&|w: &mut Writer| {
                w.u8(POLL_EVENT);
                w.u64(units);
            })
        };
        let relabeled = |len: u64| {
            let mut log = LabelLog::default();
            for i in 0..len {
                log.push(i < labels.len() && labels.get(i));
            }
            record(&log, events)
        };
        let rejected = "the view rejects a logged delta batch";
        let unlogged = "the log holds calls the monitor does not log";
        for (bytes, want) in [
            (delta(vec![u64::MAX], vec![]), rejected),
            (delta(vec![kg.num_triples()], vec![true]), rejected),
            (delta(vec![3, 7, 3], vec![]), rejected),
            (
                relabeled(labels.len() - 1),
                "the label log runs out inside a poll",
            ),
            (relabeled(labels.len() + 1), unlogged),
            (poll(4), "a logged poll draws a different request"),
            (poll(0), unlogged),
            (delta(vec![], vec![]), unlogged),
            (appended(&|w: &mut Writer| w.u8(9)), "unknown monitor event"),
            (
                appended(&|w: &mut Writer| w.u8(DELTA_EVENT)),
                "snapshot truncated",
            ),
        ] {
            let got = MonitorSession::resume(&kg, &method, &cfg, 50.0, 3, None, &bytes);
            assert!(
                matches!(&got, Err(SessionError::CorruptSnapshot(m)) if *m == want),
                "want {want}: {got:?}"
            );
        }
    }

    /// Oracle labels for a monitor's current view without borrowing the
    /// monitor mutably: base survivors answer from the base truth via
    /// the overlay's own resolution; synthetic adds carry their flag.
    fn monitor_truth(monitor: &MonitorSession<'_>, current: u64) -> bool {
        use kgae_graph::GroundTruth;
        // The view in these tests is built over datasets that implement
        // GroundTruth, but `DeltaKg::new` drops the truth half; recover
        // labels through the stable id.
        match monitor.view.resolve(current) {
            StableId::Base(b) => kgae_graph::datasets::nell().is_correct(kgae_graph::TripleId(b)),
            StableId::Added(_) => {
                let s = monitor.view.survivors();
                monitor
                    .view
                    .added_entries()
                    .nth(usize::try_from(current - s).unwrap())
                    .map(|(_, c)| c)
                    .unwrap()
            }
        }
    }
}
