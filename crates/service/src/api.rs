//! Typed request/response DTOs and their JSON (de)serialization — the
//! single wire vocabulary shared by the server routes, the snapshot
//! store's meta records and the `kgae-client` crate.
//!
//! Every encoder here has a matching decoder and the pair round-trips
//! bit for bit (floats use shortest-round-trip formatting), which is
//! what lets a finished session's stored result and rows survive
//! meta-file → JSON → meta-file cycles unchanged, and a client decode
//! exactly the view the server encoded.

use crate::json::Json;
use kgae_core::{
    AnnotationRequest, DeltaBatch, DeltaOutcome, DriftReport, EvalConfig, EvalResult,
    IntervalMethod, MethodReport, MonitorReport, SessionStatus, StopReason, StratifiedConfig,
    StratumReport,
};
use kgae_intervals::Interval;
use kgae_sampling::driver::DesignSpec;

/// A malformed wire payload (missing field, wrong type, unknown name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(
    /// What was wrong.
    pub String,
);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed payload: {}", self.0)
    }
}

impl std::error::Error for WireError {}

pub(crate) fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

pub(crate) fn req_str(v: &Json, key: &str) -> Result<String, WireError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| wire_err(format!("missing or non-string field {key:?}")))
}

pub(crate) fn req_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| wire_err(format!("missing or non-integer field {key:?}")))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, WireError> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| wire_err(format!("missing or non-numeric field {key:?}")))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, WireError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| wire_err(format!("missing or non-boolean field {key:?}")))
}

pub(crate) fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| wire_err(format!("non-integer field {key:?}"))),
    }
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| wire_err(format!("non-string field {key:?}"))),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_f64()
            .map(Some)
            .ok_or_else(|| wire_err(format!("non-numeric field {key:?}"))),
    }
}

// ---------------------------------------------------------------------
// Session spec
// ---------------------------------------------------------------------

/// How a stratified session partitions its dataset — the wire half of
/// [`kgae_graph::stratify::Stratification`] reconstruction. Both modes
/// are deterministic, so the exact partition (and its fingerprint,
/// which stratified snapshots embed) rebuilds from the spec alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StratifySpec {
    /// The dataset's built-in per-predicate partition (available on
    /// datasets registered with one, e.g. `nell-pred`).
    Predicate,
    /// A deterministic hash partition into `strata` buckets.
    Hash {
        /// Number of strata (`1 ≤ strata ≤ num_triples`).
        strata: u32,
        /// Partition seed.
        seed: u64,
    },
}

impl StratifySpec {
    /// Encodes the partition spec.
    #[must_use]
    pub fn to_json(self) -> Json {
        match self {
            StratifySpec::Predicate => Json::obj(vec![("by", Json::str("predicate"))]),
            StratifySpec::Hash { strata, seed } => Json::obj(vec![
                ("by", Json::str("hash")),
                ("strata", Json::int(u64::from(strata))),
                ("seed", Json::int(seed)),
            ]),
        }
    }

    /// Decodes a partition spec.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown `by` mode or missing hash fields.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        match req_str(v, "by")?.as_str() {
            "predicate" => Ok(StratifySpec::Predicate),
            "hash" => {
                let strata = u32::try_from(req_u64(v, "strata")?)
                    .map_err(|_| wire_err("\"strata\" exceeds u32"))?;
                Ok(StratifySpec::Hash {
                    strata,
                    seed: opt_u64(v, "seed")?.unwrap_or(0),
                })
            }
            other => Err(wire_err(format!(
                "unknown stratify mode {other:?} (expected \"predicate\" or \"hash\")"
            ))),
        }
    }
}

/// Everything needed to (re)construct an evaluation session: the create
/// request's payload and the identity half of a stored meta record.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session id (also the snapshot store key).
    pub id: String,
    /// Registry name of the KG under evaluation.
    pub dataset: String,
    /// Sampling design (wire grammar; `stratified:<allocation>` selects
    /// the stratified coordinator).
    pub design: DesignSpec,
    /// Interval method.
    pub method: IntervalMethod,
    /// RNG seed of the sampling stream (exact below 2⁵³ on the wire).
    pub seed: u64,
    /// Significance level α.
    pub alpha: f64,
    /// MoE stopping threshold ε (of the pooled interval for stratified
    /// sessions).
    pub epsilon: f64,
    /// Optional cap on total annotation observations (shared across
    /// strata for stratified sessions).
    pub max_observations: Option<u64>,
    /// How a stratified session partitions the dataset; ignored (and
    /// rejected on the wire) for single-design sessions. `None` with a
    /// stratified design means [`StratifySpec::Predicate`].
    pub stratify: Option<StratifySpec>,
    /// Owning tenant, for per-tenant admission quotas. `None` counts
    /// against the shared default tenant.
    pub tenant: Option<String>,
}

impl SessionSpec {
    /// The evaluation-loop configuration this spec denotes. Fields not
    /// exposed on the wire keep the paper defaults, so a spec always
    /// reconstructs the exact config its snapshots were fingerprinted
    /// with.
    #[must_use]
    pub fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            alpha: self.alpha,
            epsilon: self.epsilon,
            max_observations: self.max_observations,
            ..EvalConfig::default()
        }
    }

    /// The stratified campaign configuration this spec denotes, when
    /// the design is stratified. Like [`SessionSpec::eval_config`], the
    /// non-wire fields keep their defaults so snapshot fingerprints
    /// reconstruct exactly.
    #[must_use]
    pub fn stratified_config(&self) -> Option<StratifiedConfig> {
        match self.design {
            DesignSpec::Stratified { allocation } => Some(StratifiedConfig {
                alpha: self.alpha,
                epsilon: self.epsilon,
                allocation,
                max_observations: self.max_observations,
                ..StratifiedConfig::default()
            }),
            _ => None,
        }
    }

    /// The partition of a stratified spec ([`StratifySpec::Predicate`]
    /// when the wire field was omitted); `None` for single-design
    /// specs.
    #[must_use]
    pub fn partition(&self) -> Option<StratifySpec> {
        match self.design {
            DesignSpec::Stratified { .. } => Some(self.stratify.unwrap_or(StratifySpec::Predicate)),
            _ => None,
        }
    }

    /// Encodes the spec.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("dataset", Json::str(&self.dataset)),
            ("design", Json::str(&self.design.canonical_name())),
            ("method", Json::str(&self.method.canonical_name())),
            ("seed", Json::int(self.seed)),
            ("alpha", Json::Num(self.alpha)),
            ("epsilon", Json::Num(self.epsilon)),
            (
                "max_observations",
                self.max_observations.map_or(Json::Null, Json::int),
            ),
        ]);
        if let Some(stratify) = self.stratify {
            doc.set("stratify", stratify.to_json());
        }
        if let Some(tenant) = &self.tenant {
            doc.set("tenant", Json::str(tenant));
        }
        doc
    }

    /// Decodes a spec from a create request or meta record. `alpha`,
    /// `epsilon` and `seed` are optional on the wire (paper defaults
    /// α = ε = 0.05, seed 0); `stratify` is only legal alongside a
    /// stratified design.
    ///
    /// # Errors
    ///
    /// [`WireError`] on missing/mistyped fields, unknown design/method
    /// names, or a `stratify` object on a non-stratified design.
    pub fn from_json(v: &Json) -> Result<Self, WireError> {
        let design: DesignSpec = req_str(v, "design")?
            .parse()
            .map_err(|e| wire_err(format!("{e}")))?;
        let method: IntervalMethod = req_str(v, "method")?
            .parse()
            .map_err(|e| wire_err(format!("{e}")))?;
        let stratify = match v.get("stratify") {
            None | Some(Json::Null) => None,
            Some(field) => Some(StratifySpec::from_json(field)?),
        };
        if stratify.is_some() && !matches!(design, DesignSpec::Stratified { .. }) {
            return Err(wire_err(format!(
                "\"stratify\" requires a stratified design, got {:?}",
                design.canonical_name()
            )));
        }
        Ok(SessionSpec {
            id: req_str(v, "id")?,
            dataset: req_str(v, "dataset")?,
            design,
            method,
            seed: opt_u64(v, "seed")?.unwrap_or(0),
            alpha: opt_f64(v, "alpha")?.unwrap_or(0.05),
            epsilon: opt_f64(v, "epsilon")?.unwrap_or(0.05),
            max_observations: opt_u64(v, "max_observations")?,
            stratify,
            tenant: opt_str(v, "tenant")?,
        })
    }
}

// ---------------------------------------------------------------------
// Stop reasons, status, results
// ---------------------------------------------------------------------

/// Wire name of a stop reason.
#[must_use]
pub fn stop_reason_name(reason: StopReason) -> &'static str {
    match reason {
        StopReason::MoeSatisfied => "moe_satisfied",
        StopReason::PopulationExhausted => "population_exhausted",
        StopReason::StreamExhausted => "stream_exhausted",
        StopReason::BudgetExhausted => "budget_exhausted",
    }
}

/// Inverse of [`stop_reason_name`].
///
/// # Errors
///
/// [`WireError`] on an unknown name.
pub fn stop_reason_from_name(name: &str) -> Result<StopReason, WireError> {
    match name {
        "moe_satisfied" => Ok(StopReason::MoeSatisfied),
        "population_exhausted" => Ok(StopReason::PopulationExhausted),
        "stream_exhausted" => Ok(StopReason::StreamExhausted),
        "budget_exhausted" => Ok(StopReason::BudgetExhausted),
        other => Err(wire_err(format!("unknown stop reason {other:?}"))),
    }
}

fn interval_to_json(interval: &Interval) -> Json {
    Json::Arr(vec![
        Json::Num(interval.lower()),
        Json::Num(interval.upper()),
    ])
}

fn interval_from_json(v: &Json) -> Result<Interval, WireError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| wire_err("interval must be [lo, hi]"))?;
    match arr {
        [lo, hi] => {
            let lo = lo
                .as_f64()
                .ok_or_else(|| wire_err("non-numeric interval bound"))?;
            let hi = hi
                .as_f64()
                .ok_or_else(|| wire_err("non-numeric interval bound"))?;
            Ok(Interval::new(lo, hi))
        }
        _ => Err(wire_err("interval must have exactly two bounds")),
    }
}

/// Encodes a [`SessionStatus`].
#[must_use]
pub fn status_to_json(status: &SessionStatus) -> Json {
    Json::obj(vec![
        ("estimate", status.estimate.map_or(Json::Null, Json::Num)),
        (
            "interval",
            status
                .interval
                .as_ref()
                .map_or(Json::Null, interval_to_json),
        ),
        ("observations", Json::int(status.observations)),
        ("annotated_triples", Json::int(status.annotated_triples)),
        ("stage1_draws", Json::int(status.stage1_draws)),
        ("cost_seconds", Json::Num(status.cost_seconds)),
        (
            "stopped",
            status
                .stopped
                .map_or(Json::Null, |r| Json::str(stop_reason_name(r))),
        ),
    ])
}

/// Decodes a [`SessionStatus`].
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn status_from_json(v: &Json) -> Result<SessionStatus, WireError> {
    let interval = match v.get("interval") {
        None | Some(Json::Null) => None,
        Some(field) => Some(interval_from_json(field)?),
    };
    let stopped = match v.get("stopped") {
        None | Some(Json::Null) => None,
        Some(field) => Some(stop_reason_from_name(
            field
                .as_str()
                .ok_or_else(|| wire_err("non-string stop reason"))?,
        )?),
    };
    Ok(SessionStatus {
        estimate: opt_f64(v, "estimate")?,
        interval,
        observations: req_u64(v, "observations")?,
        annotated_triples: req_u64(v, "annotated_triples")?,
        stage1_draws: req_u64(v, "stage1_draws")?,
        cost_seconds: req_f64(v, "cost_seconds")?,
        stopped,
    })
}

/// Encodes an [`EvalResult`].
#[must_use]
pub fn result_to_json(result: &EvalResult) -> Json {
    Json::obj(vec![
        ("mu_hat", Json::Num(result.mu_hat)),
        ("interval", interval_to_json(&result.interval)),
        ("annotated_triples", Json::int(result.annotated_triples)),
        ("annotated_entities", Json::int(result.annotated_entities)),
        ("observations", Json::int(result.observations)),
        ("stage1_draws", Json::int(result.stage1_draws)),
        ("cost_seconds", Json::Num(result.cost_seconds)),
        ("converged", Json::Bool(result.converged)),
        ("halted_at_floor", Json::Bool(result.halted_at_floor)),
    ])
}

/// Decodes an [`EvalResult`].
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn result_from_json(v: &Json) -> Result<EvalResult, WireError> {
    Ok(EvalResult {
        mu_hat: req_f64(v, "mu_hat")?,
        interval: interval_from_json(
            v.get("interval")
                .ok_or_else(|| wire_err("missing field \"interval\""))?,
        )?,
        annotated_triples: req_u64(v, "annotated_triples")?,
        annotated_entities: req_u64(v, "annotated_entities")?,
        observations: req_u64(v, "observations")?,
        stage1_draws: req_u64(v, "stage1_draws")?,
        cost_seconds: req_f64(v, "cost_seconds")?,
        converged: req_bool(v, "converged")?,
        halted_at_floor: req_bool(v, "halted_at_floor")?,
    })
}

// ---------------------------------------------------------------------
// Per-stratum rows
// ---------------------------------------------------------------------

/// Encodes one stratum row of a stratified session's status.
#[must_use]
pub fn stratum_report_to_json(report: &StratumReport) -> Json {
    Json::obj(vec![
        ("name", Json::str(&report.name)),
        ("weight", Json::Num(report.weight)),
        ("size", Json::int(report.size)),
        ("census", Json::Bool(report.census)),
        ("status", status_to_json(&report.status)),
    ])
}

/// Decodes one stratum row.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn stratum_report_from_json(v: &Json) -> Result<StratumReport, WireError> {
    Ok(StratumReport {
        name: req_str(v, "name")?,
        weight: req_f64(v, "weight")?,
        size: req_u64(v, "size")?,
        census: req_bool(v, "census")?,
        status: status_from_json(
            v.get("status")
                .ok_or_else(|| wire_err("stratum row without a status"))?,
        )?,
    })
}

/// Encodes the per-stratum rows of a stratified session.
#[must_use]
pub fn strata_to_json(strata: &[StratumReport]) -> Json {
    Json::Arr(strata.iter().map(stratum_report_to_json).collect())
}

/// Decodes per-stratum rows.
///
/// # Errors
///
/// [`WireError`] on a non-array value or malformed rows.
pub fn strata_from_json(v: &Json) -> Result<Vec<StratumReport>, WireError> {
    v.as_arr()
        .ok_or_else(|| wire_err("\"strata\" must be an array"))?
        .iter()
        .map(stratum_report_from_json)
        .collect()
}

// ---------------------------------------------------------------------
// Per-method rows (comparative sessions)
// ---------------------------------------------------------------------

/// Encodes one method row of a comparative session's status.
#[must_use]
pub fn method_report_to_json(report: &MethodReport) -> Json {
    Json::obj(vec![
        ("method", Json::str(&report.method)),
        ("primary", Json::Bool(report.primary)),
        ("converged", Json::Bool(report.converged)),
        (
            "stopped_at",
            report.stopped_at.map_or(Json::Null, Json::int),
        ),
        ("estimate", report.estimate.map_or(Json::Null, Json::Num)),
        (
            "interval",
            report
                .interval
                .as_ref()
                .map_or(Json::Null, interval_to_json),
        ),
    ])
}

/// Decodes one method row.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn method_report_from_json(v: &Json) -> Result<MethodReport, WireError> {
    let interval = match v.get("interval") {
        None | Some(Json::Null) => None,
        Some(field) => Some(interval_from_json(field)?),
    };
    Ok(MethodReport {
        method: req_str(v, "method")?,
        primary: req_bool(v, "primary")?,
        converged: req_bool(v, "converged")?,
        stopped_at: opt_u64(v, "stopped_at")?,
        estimate: opt_f64(v, "estimate")?,
        interval,
    })
}

/// Encodes the per-method rows of a comparative session.
#[must_use]
pub fn methods_to_json(methods: &[MethodReport]) -> Json {
    Json::Arr(methods.iter().map(method_report_to_json).collect())
}

/// Decodes per-method rows.
///
/// # Errors
///
/// [`WireError`] on a non-array value or malformed rows.
pub fn methods_from_json(v: &Json) -> Result<Vec<MethodReport>, WireError> {
    v.as_arr()
        .ok_or_else(|| wire_err("\"methods\" must be an array"))?
        .iter()
        .map(method_report_from_json)
        .collect()
}

// ---------------------------------------------------------------------
// Monitor sessions: drift rows, reports, delta batches
// ---------------------------------------------------------------------

/// Encodes one per-predicate drift row of a monitor session's status.
#[must_use]
pub fn drift_report_to_json(report: &DriftReport) -> Json {
    Json::obj(vec![
        ("predicate", Json::str(&report.predicate)),
        ("adds", Json::int(report.adds)),
        ("removes", Json::int(report.removes)),
        ("retired_labels", Json::int(report.retired_labels)),
        ("alarm", Json::Bool(report.alarm)),
    ])
}

/// Decodes one drift row.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn drift_report_from_json(v: &Json) -> Result<DriftReport, WireError> {
    Ok(DriftReport {
        predicate: req_str(v, "predicate")?,
        adds: req_u64(v, "adds")?,
        removes: req_u64(v, "removes")?,
        retired_labels: req_u64(v, "retired_labels")?,
        alarm: req_bool(v, "alarm")?,
    })
}

/// Encodes the monitoring report of a monitor session's status.
#[must_use]
pub fn monitor_report_to_json(report: &MonitorReport) -> Json {
    Json::obj(vec![
        ("epoch", Json::int(report.epoch)),
        ("campaigns_reopened", Json::int(report.campaigns_reopened)),
        ("retired_labels", Json::int(report.retired_labels)),
        ("watching", Json::Bool(report.watching)),
        (
            "drift",
            Json::Arr(report.drift.iter().map(drift_report_to_json).collect()),
        ),
    ])
}

/// Decodes a monitoring report.
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields or malformed drift rows.
pub fn monitor_report_from_json(v: &Json) -> Result<MonitorReport, WireError> {
    let drift = v
        .get("drift")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing or non-array field \"drift\""))?
        .iter()
        .map(drift_report_from_json)
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(MonitorReport {
        epoch: req_u64(v, "epoch")?,
        campaigns_reopened: req_u64(v, "campaigns_reopened")?,
        retired_labels: req_u64(v, "retired_labels")?,
        watching: req_bool(v, "watching")?,
        drift,
    })
}

/// Encodes a delta batch (client side). Additions carry only their
/// simulated ground truth (`correct`), which the estimator never reads
/// — it exists so the oracle annotator of a later re-opened campaign
/// can label the triple.
#[must_use]
pub fn delta_batch_to_json(batch: &DeltaBatch) -> Json {
    let mut doc = Json::obj(vec![
        (
            "removes",
            Json::Arr(batch.removes.iter().copied().map(Json::int).collect()),
        ),
        (
            "adds",
            Json::Arr(
                batch
                    .adds
                    .iter()
                    .map(|&correct| Json::obj(vec![("correct", Json::Bool(correct))]))
                    .collect(),
            ),
        ),
    ]);
    if let Some(predicate) = &batch.predicate {
        doc.set("predicate", Json::str(predicate));
    }
    doc
}

/// Decodes a delta batch from a `POST .../deltas` body. Both `removes`
/// and `adds` may be omitted (treated as empty); `removes` must be
/// current dense triple ids, `adds` objects with a boolean `correct`.
///
/// # Errors
///
/// [`WireError`] on mistyped fields.
pub fn delta_batch_from_json(v: &Json) -> Result<DeltaBatch, WireError> {
    let removes = match v.get("removes") {
        None | Some(Json::Null) => Vec::new(),
        Some(field) => field
            .as_arr()
            .ok_or_else(|| wire_err("\"removes\" must be an array of triple ids"))?
            .iter()
            .map(|id| {
                id.as_u64()
                    .ok_or_else(|| wire_err("non-integer triple id in \"removes\""))
            })
            .collect::<Result<Vec<_>, WireError>>()?,
    };
    let adds = match v.get("adds") {
        None | Some(Json::Null) => Vec::new(),
        Some(field) => field
            .as_arr()
            .ok_or_else(|| wire_err("\"adds\" must be an array of objects"))?
            .iter()
            .map(|entry| req_bool(entry, "correct"))
            .collect::<Result<Vec<_>, WireError>>()?,
    };
    Ok(DeltaBatch {
        predicate: opt_str(v, "predicate")?,
        removes,
        adds,
    })
}

/// Encodes the outcome of an applied delta batch.
#[must_use]
pub fn delta_outcome_to_json(outcome: &DeltaOutcome) -> Json {
    Json::obj(vec![
        ("retired_labels", Json::int(outcome.retired_labels)),
        ("reopened", Json::Bool(outcome.reopened)),
        ("epoch", Json::int(outcome.epoch)),
        ("watching", Json::Bool(outcome.watching)),
    ])
}

/// Decodes a delta outcome (client side).
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn delta_outcome_from_json(v: &Json) -> Result<DeltaOutcome, WireError> {
    Ok(DeltaOutcome {
        retired_labels: req_u64(v, "retired_labels")?,
        reopened: req_bool(v, "reopened")?,
        epoch: req_u64(v, "epoch")?,
        watching: req_bool(v, "watching")?,
    })
}

// ---------------------------------------------------------------------
// Annotation requests
// ---------------------------------------------------------------------

/// One triple of an annotation request, as shipped to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleRef {
    /// Dense triple id within the dataset.
    pub triple: u64,
    /// The entity cluster owning the triple (annotation context).
    pub cluster: u32,
}

/// The stratum a stratified batch belongs to, as shipped to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStratum {
    /// Stratum index.
    pub index: u32,
    /// Stratum name (predicate, hash bucket, ...).
    pub name: String,
}

/// The wire form of a poll for labels: either the batch to annotate or
/// the news that the session has stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// `true` when the session has stopped and no labels are owed.
    pub done: bool,
    /// Stage-1 units covered by this batch.
    pub units: u64,
    /// Fencing seq to echo on the label submission (absent when done).
    pub seq: Option<u64>,
    /// The stratum this batch samples (stratified sessions only).
    pub stratum: Option<WireStratum>,
    /// Triples to label, in submission order.
    pub triples: Vec<TripleRef>,
}

/// Encodes a poll outcome (`None` = the session has stopped). `seq` is
/// the batch's fencing token, echoed back on submission; `stratum`
/// addresses the batch for stratified sessions.
#[must_use]
pub fn request_to_json(
    request: Option<&AnnotationRequest>,
    seq: Option<u64>,
    stratum: Option<&WireStratum>,
) -> Json {
    match request {
        None => Json::obj(vec![
            ("done", Json::Bool(true)),
            ("units", Json::int(0)),
            ("triples", Json::Arr(Vec::new())),
        ]),
        Some(req) => {
            let mut doc = Json::obj(vec![
                ("done", Json::Bool(false)),
                ("units", Json::int(req.units)),
                ("seq", seq.map_or(Json::Null, Json::int)),
                (
                    "triples",
                    Json::Arr(
                        req.triples
                            .iter()
                            .map(|st| {
                                Json::obj(vec![
                                    ("triple", Json::int(st.triple.index())),
                                    ("cluster", Json::int(u64::from(st.cluster.index()))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            if let Some(stratum) = stratum {
                doc.set(
                    "stratum",
                    Json::obj(vec![
                        ("index", Json::int(u64::from(stratum.index))),
                        ("name", Json::str(&stratum.name)),
                    ]),
                );
            }
            doc
        }
    }
}

/// Decodes a poll outcome (client side).
///
/// # Errors
///
/// [`WireError`] on missing/mistyped fields.
pub fn request_from_json(v: &Json) -> Result<WireRequest, WireError> {
    let triples = v
        .get("triples")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing or non-array field \"triples\""))?
        .iter()
        .map(|t| {
            Ok(TripleRef {
                triple: req_u64(t, "triple")?,
                cluster: u32::try_from(req_u64(t, "cluster")?)
                    .map_err(|_| wire_err("cluster id exceeds u32"))?,
            })
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    let stratum = match v.get("stratum") {
        None | Some(Json::Null) => None,
        Some(field) => Some(WireStratum {
            index: u32::try_from(req_u64(field, "index")?)
                .map_err(|_| wire_err("stratum index exceeds u32"))?,
            name: req_str(field, "name")?,
        }),
    };
    Ok(WireRequest {
        done: req_bool(v, "done")?,
        units: req_u64(v, "units")?,
        seq: opt_u64(v, "seq")?,
        stratum,
        triples,
    })
}

/// Decodes a label-submission body into the engine's label vector plus
/// the optional fencing seq echoed from the poll.
///
/// # Errors
///
/// [`WireError`] when `labels` is missing or contains non-booleans.
pub fn labels_from_json(v: &Json) -> Result<(Vec<bool>, Option<u64>), WireError> {
    let labels = v
        .get("labels")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("missing or non-array field \"labels\""))?
        .iter()
        .map(|l| l.as_bool().ok_or_else(|| wire_err("non-boolean label")))
        .collect::<Result<Vec<bool>, WireError>>()?;
    Ok((labels, opt_u64(v, "seq")?))
}

/// The standard error body.
#[must_use]
pub fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).encode()
}

/// An error body with a stable machine-readable `code` field, so
/// clients branch on the code instead of parsing prose.
#[must_use]
pub fn error_body_coded(message: &str, code: &str) -> String {
    Json::obj(vec![
        ("error", Json::str(message)),
        ("code", Json::str(code)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spec_round_trips_with_defaults() {
        let body = json::parse(
            r#"{"id":"c1","dataset":"nell","design":"twcs:3","method":"ahpd","seed":9}"#,
        )
        .unwrap();
        let spec = SessionSpec::from_json(&body).unwrap();
        assert_eq!(spec.design, DesignSpec::Twcs { m: 3 });
        assert_eq!(spec.alpha, 0.05);
        assert_eq!(spec.epsilon, 0.05);
        assert_eq!(spec.max_observations, None);
        assert_eq!(spec.stratify, None);
        assert_eq!(spec.partition(), None);
        let round = SessionSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);
        for bad in [
            r#"{"dataset":"nell","design":"srs","method":"ahpd"}"#,
            r#"{"id":"x","dataset":"nell","design":"pps","method":"ahpd"}"#,
            r#"{"id":"x","dataset":"nell","design":"srs","method":"bayes"}"#,
            r#"{"id":"x","dataset":"nell","design":"srs","method":"ahpd","seed":-3}"#,
            // stratify without a stratified design
            r#"{"id":"x","dataset":"nell","design":"srs","method":"ahpd","stratify":{"by":"predicate"}}"#,
            // unknown stratify mode
            r#"{"id":"x","dataset":"nell","design":"stratified","method":"ahpd","stratify":{"by":"zipf"}}"#,
        ] {
            let v = json::parse(bad).unwrap();
            assert!(SessionSpec::from_json(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn stratified_specs_round_trip_and_derive_configs() {
        use kgae_sampling::AllocationPolicy;
        let body = json::parse(
            r#"{"id":"s1","dataset":"nell-pred","design":"stratified:proportional",
                "method":"ahpd","epsilon":0.03,
                "stratify":{"by":"hash","strata":6,"seed":4}}"#,
        )
        .unwrap();
        let spec = SessionSpec::from_json(&body).unwrap();
        assert_eq!(
            spec.design,
            DesignSpec::Stratified {
                allocation: AllocationPolicy::Proportional
            }
        );
        assert_eq!(
            spec.partition(),
            Some(StratifySpec::Hash { strata: 6, seed: 4 })
        );
        let cfg = spec.stratified_config().unwrap();
        assert_eq!(cfg.allocation, AllocationPolicy::Proportional);
        assert_eq!(cfg.epsilon, 0.03);
        let round = SessionSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(round, spec);

        // Omitted stratify defaults to the predicate partition.
        let body = json::parse(
            r#"{"id":"s2","dataset":"nell-pred","design":"stratified","method":"ahpd"}"#,
        )
        .unwrap();
        let spec = SessionSpec::from_json(&body).unwrap();
        assert_eq!(spec.stratify, None);
        assert_eq!(spec.partition(), Some(StratifySpec::Predicate));
        assert!(spec.stratified_config().is_some());
    }

    #[test]
    fn strata_rows_round_trip_bit_for_bit() {
        let rows = vec![
            StratumReport {
                name: "athleteplaysforteam".into(),
                weight: 0.298_387_096_774_193_55,
                size: 555,
                census: false,
                status: SessionStatus {
                    estimate: Some(0.971_428_571_428_571_4),
                    interval: Some(Interval::new(0.901, 0.992_3)),
                    observations: 35,
                    annotated_triples: 35,
                    stage1_draws: 0,
                    cost_seconds: 1_592.5,
                    stopped: None,
                },
            },
            StratumReport {
                name: "teamhomestadium".into(),
                weight: 0.06,
                size: 4,
                census: true,
                status: SessionStatus {
                    estimate: Some(0.5),
                    interval: Some(Interval::new(0.5, 0.5)),
                    observations: 4,
                    annotated_triples: 4,
                    stage1_draws: 0,
                    cost_seconds: 230.0,
                    stopped: Some(StopReason::PopulationExhausted),
                },
            },
        ];
        let round = strata_from_json(&strata_to_json(&rows)).unwrap();
        assert_eq!(round, rows);
        assert!(strata_from_json(&Json::str("nope")).is_err());
    }

    #[test]
    fn method_rows_round_trip_bit_for_bit() {
        let rows = vec![
            MethodReport {
                method: "wald".into(),
                primary: false,
                converged: true,
                stopped_at: Some(132),
                estimate: Some(0.916_666_666_666_666_7),
                interval: Some(Interval::new(0.869_4, 0.963_9)),
            },
            MethodReport {
                method: "ahpd".into(),
                primary: true,
                converged: false,
                stopped_at: None,
                estimate: None,
                interval: None,
            },
        ];
        let round = methods_from_json(&methods_to_json(&rows)).unwrap();
        assert_eq!(round, rows);
        assert!(methods_from_json(&Json::str("nope")).is_err());
    }

    #[test]
    fn status_and_result_round_trip_bit_for_bit() {
        let status = SessionStatus {
            estimate: Some(0.912_345_678_901_234_5),
            interval: Some(Interval::new(0.871, 0.953_000_000_000_000_1)),
            observations: 123,
            annotated_triples: 120,
            stage1_draws: 41,
            cost_seconds: 5_432.25,
            stopped: Some(StopReason::MoeSatisfied),
        };
        let round = status_from_json(&status_to_json(&status)).unwrap();
        assert_eq!(round, status);

        let empty = SessionStatus {
            estimate: None,
            interval: None,
            observations: 0,
            annotated_triples: 0,
            stage1_draws: 0,
            cost_seconds: 0.0,
            stopped: None,
        };
        assert_eq!(status_from_json(&status_to_json(&empty)).unwrap(), empty);

        let result = EvalResult {
            mu_hat: 0.907_123,
            interval: Interval::new(0.86, 0.955),
            annotated_triples: 130,
            annotated_entities: 60,
            observations: 140,
            stage1_draws: 47,
            cost_seconds: 6_000.5,
            converged: true,
            halted_at_floor: false,
        };
        assert_eq!(result_from_json(&result_to_json(&result)).unwrap(), result);
    }

    #[test]
    fn labels_and_requests_decode() {
        let v = json::parse(r#"{"labels":[true,false,true],"seq":4}"#).unwrap();
        assert_eq!(
            labels_from_json(&v).unwrap(),
            (vec![true, false, true], Some(4))
        );
        let v = json::parse(r#"{"labels":[]}"#).unwrap();
        assert_eq!(labels_from_json(&v).unwrap(), (vec![], None));
        let bad = json::parse(r#"{"labels":[1]}"#).unwrap();
        assert!(labels_from_json(&bad).is_err());

        let wire = request_from_json(&request_to_json(None, None, None)).unwrap();
        assert!(wire.done);
        assert_eq!(wire.seq, None);
        assert_eq!(wire.stratum, None);
        assert!(wire.triples.is_empty());

        // A stratified batch carries its stratum address.
        let request = AnnotationRequest {
            triples: Vec::new(),
            units: 2,
        };
        let stratum = WireStratum {
            index: 3,
            name: "coachesteam".into(),
        };
        let wire =
            request_from_json(&request_to_json(Some(&request), Some(9), Some(&stratum))).unwrap();
        assert!(!wire.done);
        assert_eq!(wire.seq, Some(9));
        assert_eq!(wire.stratum, Some(stratum));
    }
}
