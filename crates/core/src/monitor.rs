//! Continuous accuracy monitoring over an evolving KG — the fourth
//! [`SessionEngine`], turning one-shot audits into a long-lived
//! monitor (paper §8, ROADMAP item 2).
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
//! [`MonitorSession::apply_deltas`] accepts a batch of triple
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
//! informative prior via [`posterior_as_prior`] (evidence capped at
//! `carry_weight` pseudo-observations and never inflated past the
//! evidence actually held), hedged by the standard uninformative priors
//! against deceptive updates — the aHPD carryover mechanism of
//! [`crate::dynamic`], now running inside the engine world.
//!
//! A delta-free monitor is **bit-identical** to a plain
//! [`EvaluationSession`] with the same seed/method/config (property
//! test `monitor_equivalence.rs`): epoch 0 uses the same
//! `SmallRng::seed_from_u64(seed)` stream over a transparent view.
//! Re-opened campaign `k` derives its stream as
//! `mix2(seed, k)`, so replaying the same delta/label sequence
//! reproduces the same trajectory everywhere — the basis of the
//! service-level determinism and snapshot byte-identity tests.

use std::collections::BTreeMap;

use crate::dynamic::posterior_as_prior;
use crate::engine::{EngineKind, EngineOutcome, EngineRequest, SessionEngine, SessionStatusView};
use crate::framework::{EvalConfig, PreparedDesign, SamplingDesign};
use crate::method::IntervalMethod;
use crate::session::{
    method_fingerprint_matches, read_record_prefix, write_method_fingerprint, EvaluationSession,
    SessionError, SessionStatus, MONITOR_SNAPSHOT_TAG,
};
use crate::snapshot::{Reader, Writer, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use kgae_graph::hash::mix2;
use kgae_graph::{DeltaKg, KnowledgeGraph, StableId};
use kgae_intervals::{hpd_interval_exact, BetaPrior, Interval};
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

/// Identity prefix of a monitor snapshot (record tag 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSnapshotHeader {
    /// `num_triples` of the **base** KG the monitor overlays.
    pub num_triples: u64,
    /// `num_clusters` of the base KG.
    pub num_clusters: u32,
    /// Campaign epoch at suspension.
    pub epoch: u64,
    /// Whether the monitor was watching (no embedded campaign).
    pub watching: bool,
}

/// Parses the identity prefix of a monitor snapshot without
/// reconstructing the monitor.
///
/// # Errors
///
/// [`SessionError::CorruptSnapshot`] on malformed bytes;
/// [`SessionError::SnapshotMismatch`] when the bytes carry a different
/// record tag or an unsupported version.
pub fn peek_monitor_header(bytes: &[u8]) -> Result<MonitorSnapshotHeader, SessionError> {
    let corrupt = SessionError::CorruptSnapshot;
    let mut r = Reader::new(bytes);
    if read_record_prefix(&mut r)? != MONITOR_SNAPSHOT_TAG {
        return Err(SessionError::SnapshotMismatch("not a monitor snapshot"));
    }
    Ok(MonitorSnapshotHeader {
        num_triples: r.u64().map_err(corrupt)?,
        num_clusters: r.u32().map_err(corrupt)?,
        epoch: r.u64().map_err(corrupt)?,
        watching: !r.bool().map_err(corrupt)?,
    })
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
/// for the lifecycle; construct through [`MonitorSession::new`] or the
/// engine registry ([`crate::engine::EngineSpec::Monitor`]).
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
    epoch: u64,
    campaigns_reopened: u64,
    retired_total: u64,
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
    /// `BTreeMap` iteration order doubles as the canonical snapshot
    /// order.
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
}

impl std::fmt::Debug for MonitorSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorSession")
            .field("epoch", &self.epoch)
            .field("watching", &self.inner.is_none())
            .field("ledger", &self.ledger.len())
            .field("retired", &self.retired_total)
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
            campaigns_reopened: 0,
            retired_total: 0,
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
        }
    }

    /// Attaches a shared posterior-kernel cache: the current campaign
    /// and every future re-opened campaign memoize their SRS solves
    /// through it. Purely a cost lever — outputs are bit-identical.
    pub fn set_kernel_cache(&mut self, kernel: std::sync::Arc<kgae_intervals::KernelCache>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.set_kernel_cache(std::sync::Arc::clone(&kernel));
        }
        self.kernel = Some(kernel);
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

    /// The monitor rows of the status view.
    #[must_use]
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            epoch: self.epoch,
            campaigns_reopened: self.campaigns_reopened,
            retired_labels: self.retired_total,
            watching: self.inner.is_none(),
            drift: self.drift_reports(),
        }
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
    pub fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, SessionError> {
        if self.has_pending_request() {
            return Err(SessionError::RequestPending);
        }
        // Validate before touching the open campaign: an invalid batch
        // must not perturb the monitor at all.
        {
            let n = self.view.num_triples();
            let mut seen = batch.removes.clone();
            seen.sort_unstable();
            if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
                return Err(SessionError::DeltaRejected(
                    kgae_graph::DeltaError::DuplicateRemove { id: w[0] },
                ));
            }
            if let Some(&id) = seen.last().filter(|&&id| id >= n) {
                return Err(SessionError::DeltaRejected(
                    kgae_graph::DeltaError::RemoveOutOfRange { id, len: n },
                ));
            }
        }
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
        let mut retired = 0u64;
        for id in &applied.removed {
            if self.ledger.remove(id).is_some() {
                retired += 1;
            }
        }
        self.retired_total += retired;
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
                self.campaigns_reopened += 1;
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

    /// Serializes the monitor into a canonical `KGAESNAP` snapshot
    /// (record tag 6): base-KG shape, config/method fingerprints, the
    /// seed, cumulative counters, drift rows, the delta overlay, the
    /// label ledger (in `StableId` order), the carried prior, the
    /// watched estimate, and — while annotating — the embedded
    /// campaign snapshot, length-prefixed. Byte-identical across
    /// suspend → resume → suspend.
    ///
    /// # Errors
    ///
    /// [`SessionError::SnapshotUnavailable`] while labels are owed.
    pub fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        if self.has_pending_request() {
            return Err(SessionError::SnapshotUnavailable(
                "a request is outstanding; submit its labels first",
            ));
        }
        let mut w = Writer::new();
        w.bytes(SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u8(MONITOR_SNAPSHOT_TAG);
        // Header: base shape + epoch + phase, peekable without parsing
        // the record body.
        w.u64(self.view.base().num_triples());
        w.u32(self.view.base().num_clusters());
        w.u64(self.epoch);
        w.bool(self.inner.is_some());
        // Config fingerprint (the plain-session shape).
        w.f64(self.cfg.alpha);
        w.f64(self.cfg.epsilon);
        w.u64(self.cfg.min_triples);
        w.u64(self.cfg.min_draws as u64);
        w.opt_u64(self.cfg.max_observations);
        w.opt_f64(self.cfg.max_cost_seconds);
        w.f64(self.cfg.cost_model.entity_seconds);
        w.f64(self.cfg.cost_model.triple_seconds);
        w.u64(self.cfg.cost_model.judgments_per_label);
        w.u8(crate::session::stopping_tag(self.cfg.stopping));
        w.f64(self.carry_weight);
        write_method_fingerprint(&mut w, &self.base_method);
        w.u64(self.seed);
        // Cumulative counters.
        w.u64(self.campaigns_reopened);
        w.u64(self.retired_total);
        w.u64(self.seen_serials);
        w.u64(self.done_observations);
        w.u64(self.done_triples);
        w.f64(self.done_cost);
        // Drift rows, first-appearance order.
        w.u64(self.drift.len() as u64);
        for row in &self.drift {
            w.u64(row.predicate.len() as u64);
            w.bytes(row.predicate.as_bytes());
            w.u64(row.adds);
            w.u64(row.removes);
            w.u64(row.retired);
        }
        // Overlay.
        let removed = self.view.removed_ids();
        w.u64(removed.len() as u64);
        for &b in removed {
            w.u64(b);
        }
        let added: Vec<(u64, bool)> = self.view.added_entries().collect();
        w.u64(added.len() as u64);
        for (serial, correct) in added {
            w.u64(serial);
            w.bool(correct);
        }
        w.u64(self.view.next_serial());
        // Ledger (BTreeMap order = canonical).
        w.u64(self.ledger.len() as u64);
        for (&id, &label) in &self.ledger {
            match id {
                StableId::Base(b) => {
                    w.u8(0);
                    w.u64(b);
                }
                StableId::Added(s) => {
                    w.u8(1);
                    w.u64(s);
                }
            }
            w.bool(label);
        }
        // Carry + watched.
        match self.carry {
            Some((a, b)) => {
                w.bool(true);
                w.f64(a);
                w.f64(b);
            }
            None => w.bool(false),
        }
        match &self.watched {
            Some(watched) => {
                w.bool(true);
                w.f64(watched.estimate);
                w.f64(watched.interval.lower());
                w.f64(watched.interval.upper());
            }
            None => w.bool(false),
        }
        // Embedded campaign snapshot while annotating.
        if let Some(inner) = &self.inner {
            let child = inner.snapshot()?;
            w.u64(child.len() as u64);
            w.bytes(&child);
        }
        Ok(w.into_bytes())
    }

    /// Reconstructs a suspended monitor from a snapshot, validating the
    /// base-KG shape, config, carry weight, method fingerprint and seed
    /// against the supplied spec before restoring the overlay, ledger
    /// and — while annotating — the embedded campaign (which
    /// re-validates its own fingerprints against the rebuilt view).
    ///
    /// # Errors
    ///
    /// [`SessionError::CorruptSnapshot`] on malformed bytes;
    /// [`SessionError::SnapshotMismatch`] when the snapshot belongs to
    /// a different base KG, config, carry weight, method or seed.
    #[allow(clippy::too_many_lines)]
    pub fn resume(
        base: &'a dyn KnowledgeGraph,
        method: &IntervalMethod,
        cfg: &EvalConfig,
        carry_weight: f64,
        seed: u64,
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
        let epoch = r.u64().map_err(corrupt)?;
        let annotating = r.bool().map_err(corrupt)?;
        let config_matches = r.f64().map_err(corrupt)?.to_bits() == cfg.alpha.to_bits()
            && r.f64().map_err(corrupt)?.to_bits() == cfg.epsilon.to_bits()
            && r.u64().map_err(corrupt)? == cfg.min_triples
            && r.u64().map_err(corrupt)? == cfg.min_draws as u64
            && r.opt_u64().map_err(corrupt)? == cfg.max_observations
            && r.opt_f64().map_err(corrupt)?.map(f64::to_bits)
                == cfg.max_cost_seconds.map(f64::to_bits)
            && r.f64().map_err(corrupt)?.to_bits() == cfg.cost_model.entity_seconds.to_bits()
            && r.f64().map_err(corrupt)?.to_bits() == cfg.cost_model.triple_seconds.to_bits()
            && r.u64().map_err(corrupt)? == cfg.cost_model.judgments_per_label
            && r.u8().map_err(corrupt)? == crate::session::stopping_tag(cfg.stopping);
        if !config_matches {
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
        let campaigns_reopened = r.u64().map_err(corrupt)?;
        let retired_total = r.u64().map_err(corrupt)?;
        let seen_serials = r.u64().map_err(corrupt)?;
        let done_observations = r.u64().map_err(corrupt)?;
        let done_triples = r.u64().map_err(corrupt)?;
        let done_cost = r.f64().map_err(corrupt)?;
        let cap = bytes.len() as u64;
        let drift_len = r.len_capped(cap).map_err(corrupt)?;
        let mut drift = Vec::with_capacity(drift_len);
        for _ in 0..drift_len {
            let name_len = r.len_capped(cap).map_err(corrupt)?;
            let name = r.bytes(name_len).map_err(corrupt)?;
            let predicate = String::from_utf8(name.to_vec())
                .map_err(|_| SessionError::CorruptSnapshot("drift predicate not UTF-8"))?;
            drift.push(DriftRow {
                predicate,
                adds: r.u64().map_err(corrupt)?,
                removes: r.u64().map_err(corrupt)?,
                retired: r.u64().map_err(corrupt)?,
            });
        }
        let removed_len = r.len_capped(cap).map_err(corrupt)?;
        let mut removed = Vec::with_capacity(removed_len);
        for _ in 0..removed_len {
            removed.push(r.u64().map_err(corrupt)?);
        }
        let added_len = r.len_capped(cap).map_err(corrupt)?;
        let mut added = Vec::with_capacity(added_len);
        for _ in 0..added_len {
            let serial = r.u64().map_err(corrupt)?;
            let correct = r.bool().map_err(corrupt)?;
            added.push((serial, correct));
        }
        let next_serial = r.u64().map_err(corrupt)?;
        let view = Box::new(
            DeltaKg::from_parts(base, None, removed, added, next_serial)
                .map_err(|_| SessionError::CorruptSnapshot("invalid delta overlay"))?,
        );
        let ledger_len = r.len_capped(cap).map_err(corrupt)?;
        let mut ledger = BTreeMap::new();
        let mut prev: Option<StableId> = None;
        for _ in 0..ledger_len {
            let id = match r.u8().map_err(corrupt)? {
                0 => StableId::Base(r.u64().map_err(corrupt)?),
                1 => StableId::Added(r.u64().map_err(corrupt)?),
                _ => return Err(SessionError::CorruptSnapshot("unknown stable-id tag")),
            };
            if prev.is_some_and(|p| p >= id) {
                return Err(SessionError::CorruptSnapshot("ledger ids out of order"));
            }
            prev = Some(id);
            ledger.insert(id, r.bool().map_err(corrupt)?);
        }
        let carry = if r.bool().map_err(corrupt)? {
            let a = r.f64().map_err(corrupt)?;
            let b = r.f64().map_err(corrupt)?;
            if !(a.is_finite() && a > 0.0 && b.is_finite() && b > 0.0) {
                return Err(SessionError::CorruptSnapshot("invalid carried prior"));
            }
            Some((a, b))
        } else {
            None
        };
        let watched = if r.bool().map_err(corrupt)? {
            let estimate = r.f64().map_err(corrupt)?;
            let lo = r.f64().map_err(corrupt)?;
            let hi = r.f64().map_err(corrupt)?;
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return Err(SessionError::CorruptSnapshot(
                    "interval bounds out of order",
                ));
            }
            Some(Watched {
                estimate,
                interval: Interval::new(lo, hi),
            })
        } else {
            None
        };
        let mut monitor = Self {
            inner: None,
            view,
            base_method: method.clone(),
            cfg: cfg.clone(),
            carry_weight,
            seed,
            epoch,
            campaigns_reopened,
            retired_total,
            seen_serials,
            done_observations,
            done_triples,
            done_cost,
            carry,
            ledger,
            drift,
            watched,
            pending_triples: Vec::new(),
            kernel: None,
        };
        if annotating {
            let child_len = r.len_capped(cap).map_err(corrupt)?;
            let child = r.bytes(child_len).map_err(corrupt)?;
            let campaign_method = monitor.campaign_method();
            let kg = forged_view(&monitor.view);
            let prepared = PreparedDesign::new(kg, SamplingDesign::Srs);
            monitor.inner = Some(EvaluationSession::resume(
                kg,
                &prepared,
                &campaign_method,
                &monitor.cfg,
                SmallRng::seed_from_u64(0),
                child,
            )?);
        }
        r.finish().map_err(corrupt)?;
        Ok(monitor)
    }
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
        match inner.next_request_cancellable(max_units)? {
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

    fn snapshot(&self) -> Result<Vec<u8>, SessionError> {
        MonitorSession::snapshot(self)
    }

    fn into_outcome(self: Box<Self>) -> Option<EngineOutcome> {
        None
    }

    fn apply_deltas(&mut self, batch: &DeltaBatch) -> Result<DeltaOutcome, SessionError> {
        MonitorSession::apply_deltas(self, batch)
    }

    fn set_kernel_cache(&mut self, kernel: std::sync::Arc<kgae_intervals::KernelCache>) {
        MonitorSession::set_kernel_cache(self, kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::GroundTruth;

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
        // Invalid batches change nothing.
        let n = monitor.report();
        assert!(matches!(
            monitor.apply_deltas(&DeltaBatch {
                predicate: None,
                removes: vec![u64::MAX],
                adds: vec![],
            }),
            Err(SessionError::DeltaRejected(_))
        ));
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
        let snap = MonitorSession::snapshot(&monitor).unwrap();
        let header = peek_monitor_header(&snap).unwrap();
        assert_eq!(header.num_triples, kg.num_triples());
        assert_eq!(header.epoch, 0);
        assert!(!header.watching);
        let resumed = MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, &snap).unwrap();
        assert_eq!(MonitorSession::snapshot(&resumed).unwrap(), snap);

        // Watching with deltas applied and a campaign re-opened, then
        // suspended mid-delta (deltas in, annotation re-opened, no
        // batch outstanding).
        drive_to_watching(&mut monitor, &kg, 16);
        let watch_snap = MonitorSession::snapshot(&monitor).unwrap();
        assert!(peek_monitor_header(&watch_snap).unwrap().watching);
        let resumed = MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, &watch_snap).unwrap();
        assert_eq!(MonitorSession::snapshot(&resumed).unwrap(), watch_snap);

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
        let snap = MonitorSession::snapshot(&monitor).unwrap();
        let header = peek_monitor_header(&snap).unwrap();
        assert_eq!(header.epoch, 1);
        let resumed = MonitorSession::resume(&kg, &method, &cfg, 50.0, 5, &snap).unwrap();
        assert_eq!(MonitorSession::snapshot(&resumed).unwrap(), snap);

        // Wrong spec parameters are rejected cleanly.
        assert!(matches!(
            MonitorSession::resume(&kg, &method, &cfg, 60.0, 5, &snap),
            Err(SessionError::SnapshotMismatch("carry weight differs"))
        ));
        assert!(matches!(
            MonitorSession::resume(&kg, &method, &cfg, 50.0, 6, &snap),
            Err(SessionError::SnapshotMismatch("seed differs"))
        ));
        assert!(matches!(
            MonitorSession::resume(&kg, &IntervalMethod::Wilson, &cfg, 50.0, 5, &snap),
            Err(SessionError::SnapshotMismatch("interval method differs"))
        ));
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
