//! The multi-tenant session registry: many named evaluation campaigns,
//! few locks, tiny dormant footprint.
//!
//! A [`SessionManager`] hosts any number of named evaluation campaigns
//! — plain, stratified or comparative, every kind behind one
//! `Box<dyn SessionEngine>` — over the datasets of a shared
//! [`DatasetRegistry`]. The registry of sessions is **sharded and
//! lock-striped**: an id hashes to one of N shards, each guarded by its
//! own mutex, so concurrent traffic on different campaigns contends
//! only 1/N of the time and every operation holds exactly one shard
//! lock (no lock order, no deadlock surface).
//!
//! Sessions move through two in-memory states plus one on-disk state:
//!
//! ```text
//!   create ──► Live ──submit──► Finished
//!               │ ▲                │
//!     suspend / │ │ resume         │ evict
//!       evict   ▼ │                ▼
//!           (disk only) ◄──────────┘
//! ```
//!
//! Suspending (or evicting) a running session writes its binary
//! snapshot plus a small JSON meta record to the [`SnapshotStore`] and
//! drops the engine, so a dormant campaign costs ~KBs of disk and zero
//! RAM. Resume (explicit, or lazily on the next poll, submit or delta
//! batch) re-validates the snapshot's design/KG/config/method
//! fingerprints before the session touches traffic again, and restores
//! the exact sampling/posterior trajectory, bit for bit.

use crate::api::{SessionSpec, StratifySpec};
use crate::json::Json;
use crate::metrics::{Metrics, ShardSessions};
use crate::store::{valid_session_id, SnapshotStore, StoredSession};
use crate::{api, json};
use kgae_core::{
    compared_methods, AnnotationRequest, DeltaBatch, DeltaOutcome, EngineOutcome, EngineSpec,
    MethodReport, MonitorReport, PreparedDesign, SamplingDesign, SessionEngine, SessionError,
    SessionStatus, SessionStatusView, StopReason, StratumReport,
};
use kgae_graph::stratify::Stratification;
use kgae_graph::{CompactKg, KnowledgeGraph};
use kgae_intervals::{KernelCache, KernelCacheStats};
use kgae_sampling::driver::DesignSpec;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on stage-1 units a single poll may request. Cluster
/// designs sample with replacement — their unit streams never exhaust —
/// so the engine would otherwise chase an absurd batch size forever
/// while holding the session's shard lock.
pub const MAX_BATCH_UNITS: u64 = 4096;

/// Service-level failure, mapped onto HTTP status codes by the server.
#[derive(Debug)]
pub enum ServiceError {
    /// No session with this id, in memory or on disk.
    UnknownSession(String),
    /// `create` on an id that already exists.
    SessionExists(String),
    /// The spec names a dataset the registry doesn't host.
    UnknownDataset(String),
    /// The id violates the `[A-Za-z0-9._-]{1,64}` contract.
    InvalidId(String),
    /// A syntactically valid request the session cannot serve.
    BadRequest(String),
    /// The operation needs the outstanding request answered first.
    RequestOutstanding(String),
    /// The session already finished; its result is immutable.
    AlreadyFinished(String),
    /// The operation needs a suspended session (e.g. snapshot export).
    NotSuspended(String),
    /// Labels arrived with a fencing seq that no longer matches the
    /// outstanding request — another driver already advanced the
    /// session past that batch.
    StaleRequest(String),
    /// A protocol/state error surfaced by the evaluation engine.
    Session(SessionError),
    /// A stored record failed validation.
    Corrupt(String),
    /// Snapshot-store I/O failed.
    Io(std::io::Error),
    /// Admission refused: the quota scope is full. Freed by deleting a
    /// session; clients should back off for `retry_after` seconds.
    QuotaExceeded {
        /// Human description of the scope that filled up (a tenant, or
        /// the whole server).
        scope: String,
        /// The configured ceiling.
        limit: usize,
        /// Seconds a client should wait before retrying.
        retry_after: u64,
    },
    /// The stored session failed deep validation and was moved to the
    /// store's quarantine directory; its bytes are preserved for
    /// inspection but it can no longer be served.
    Quarantined(String),
    /// The server is draining for shutdown and refuses new sessions.
    Draining {
        /// Seconds a client should wait before retrying (elsewhere).
        retry_after: u64,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            ServiceError::SessionExists(id) => write!(f, "session {id:?} already exists"),
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            ServiceError::InvalidId(id) => write!(
                f,
                "invalid session id {id:?} (1-64 characters of [A-Za-z0-9._-], \
                 not starting with a dot)"
            ),
            ServiceError::BadRequest(msg) => write!(f, "{msg}"),
            ServiceError::RequestOutstanding(id) => write!(
                f,
                "session {id:?} has an outstanding annotation request; submit its labels first"
            ),
            ServiceError::AlreadyFinished(id) => write!(f, "session {id:?} already finished"),
            ServiceError::NotSuspended(id) => write!(f, "session {id:?} is not suspended"),
            ServiceError::StaleRequest(id) => write!(
                f,
                "session {id:?}: the labels target a superseded annotation request \
                 (another driver already advanced the session); re-poll and re-label"
            ),
            ServiceError::Session(e) => write!(f, "session engine: {e}"),
            ServiceError::Corrupt(msg) => write!(f, "corrupt stored session: {msg}"),
            ServiceError::Io(e) => write!(f, "snapshot store I/O: {e}"),
            ServiceError::QuotaExceeded { scope, limit, .. } => write!(
                f,
                "{scope} is at its session quota ({limit}); delete a session or retry later"
            ),
            ServiceError::Quarantined(id) => write!(
                f,
                "session {id:?} failed validation and was quarantined; its files were \
                 preserved under the store's quarantine directory for inspection"
            ),
            ServiceError::Draining { .. } => {
                write!(
                    f,
                    "server is draining for shutdown; not accepting new sessions"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SessionError> for ServiceError {
    fn from(e: SessionError) -> Self {
        ServiceError::Session(e)
    }
}

impl From<std::io::Error> for ServiceError {
    /// A record the store could not frame is corrupt (and quarantined
    /// where rehydration meets it); every other failure is I/O.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::InvalidData {
            ServiceError::Corrupt(e.to_string())
        } else {
            ServiceError::Io(e)
        }
    }
}

impl ServiceError {
    /// The HTTP status code this failure maps to.
    #[must_use]
    pub fn http_status(&self) -> u16 {
        match self {
            ServiceError::UnknownSession(_) | ServiceError::UnknownDataset(_) => 404,
            ServiceError::SessionExists(_)
            | ServiceError::RequestOutstanding(_)
            | ServiceError::AlreadyFinished(_)
            | ServiceError::NotSuspended(_)
            | ServiceError::StaleRequest(_) => 409,
            ServiceError::InvalidId(_) | ServiceError::BadRequest(_) => 400,
            ServiceError::Session(e) => match e {
                SessionError::RequestPending
                | SessionError::NoRequestPending
                | SessionError::LabelCountMismatch { .. } => 409,
                _ => 500,
            },
            ServiceError::Corrupt(_) | ServiceError::Io(_) => 500,
            ServiceError::Quarantined(_) => 410,
            ServiceError::QuotaExceeded { .. } => 429,
            ServiceError::Draining { .. } => 503,
        }
    }

    /// Stable machine-readable error code, carried on the wire as the
    /// `"code"` field of an error body so clients can branch without
    /// parsing prose.
    #[must_use]
    pub fn wire_code(&self) -> &'static str {
        match self {
            ServiceError::UnknownSession(_) => "unknown_session",
            ServiceError::SessionExists(_) => "session_exists",
            ServiceError::UnknownDataset(_) => "unknown_dataset",
            ServiceError::InvalidId(_) => "invalid_id",
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::RequestOutstanding(_) => "request_outstanding",
            ServiceError::AlreadyFinished(_) => "already_finished",
            ServiceError::NotSuspended(_) => "not_suspended",
            ServiceError::StaleRequest(_) => "stale_request",
            ServiceError::Session(_) => "engine",
            ServiceError::Corrupt(_) => "corrupt",
            ServiceError::Io(_) => "io",
            ServiceError::QuotaExceeded { .. } => "quota_exceeded",
            ServiceError::Quarantined(_) => "quarantined",
            ServiceError::Draining { .. } => "draining",
        }
    }

    /// The `Retry-After` value (seconds) this failure should carry, for
    /// the backpressure-shaped errors (quota, drain).
    #[must_use]
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServiceError::QuotaExceeded { retry_after, .. }
            | ServiceError::Draining { retry_after } => Some(*retry_after),
            _ => None,
        }
    }
}

/// Outcome type of every manager operation.
pub type ServiceResult<T> = Result<T, ServiceError>;

// ---------------------------------------------------------------------
// Dataset registry
// ---------------------------------------------------------------------

/// One hosted dataset: a KG plus its optional built-in stratification
/// (the partition `stratify: {"by": "predicate"}` sessions use).
#[derive(Debug)]
pub struct DatasetEntry {
    /// Registry name.
    pub name: String,
    /// The graph.
    pub kg: CompactKg,
    /// Built-in (predicate) partition, when the dataset has one.
    pub stratification: Option<Stratification>,
}

/// The KGs a server hosts, by name. Built once at startup; sessions
/// borrow the graphs for the manager's whole lifetime.
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: Vec<DatasetEntry>,
}

impl DatasetRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The four real-KG twins of paper Table 1 (YAGO, NELL, DBPEDIA,
    /// FACTBENCH) plus `nell-pred` — the NELL twin with simulated
    /// predicate structure and a built-in per-predicate stratification.
    /// All generated deterministically — every server instance hosts
    /// bit-identical graphs.
    #[must_use]
    pub fn standard() -> Self {
        let mut registry = Self::new();
        registry.insert("yago", kgae_graph::datasets::yago());
        registry.insert("nell", kgae_graph::datasets::nell());
        registry.insert("dbpedia", kgae_graph::datasets::dbpedia());
        registry.insert("factbench", kgae_graph::datasets::factbench());
        let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
        registry.insert_stratified("nell-pred", kg, strat);
        registry
    }

    /// Adds (or replaces) a dataset under `name`, without a built-in
    /// stratification.
    pub fn insert(&mut self, name: &str, kg: CompactKg) {
        self.insert_entry(DatasetEntry {
            name: name.to_string(),
            kg,
            stratification: None,
        });
    }

    /// Adds (or replaces) a dataset with a built-in stratification.
    ///
    /// # Panics
    ///
    /// Panics if the stratification does not cover exactly `kg`'s
    /// triples.
    pub fn insert_stratified(&mut self, name: &str, kg: CompactKg, strat: Stratification) {
        assert_eq!(
            strat.num_triples(),
            kg.num_triples(),
            "stratification covers a different KG"
        );
        self.insert_entry(DatasetEntry {
            name: name.to_string(),
            kg,
            stratification: Some(strat),
        });
    }

    fn insert_entry(&mut self, entry: DatasetEntry) {
        match self.entries.iter_mut().find(|e| e.name == entry.name) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// The dataset named `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&CompactKg> {
        self.entries.iter().find(|e| e.name == name).map(|e| &e.kg)
    }

    /// The built-in stratification of dataset `name`, if it has one.
    #[must_use]
    pub fn stratification(&self, name: &str) -> Option<&Stratification> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .and_then(|e| e.stratification.as_ref())
    }

    /// Hosted datasets, in insertion order.
    #[must_use]
    pub fn entries(&self) -> &[DatasetEntry] {
        &self.entries
    }
}

// ---------------------------------------------------------------------
// Session slots and views
// ---------------------------------------------------------------------

/// Where a session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// In memory, accepting polls and labels.
    Running,
    /// On disk only — zero in-memory footprint — whether `suspend` or
    /// `evict` put it there.
    Evicted,
    /// Stopped; the final result is available.
    Finished,
}

impl SessionState {
    /// Wire name (`"running"`, `"evicted"`, ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Running => "running",
            SessionState::Evicted => "evicted",
            SessionState::Finished => "finished",
        }
    }

    /// Inverse of [`SessionState::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "running" => Some(SessionState::Running),
            "evicted" => Some(SessionState::Evicted),
            "finished" => Some(SessionState::Finished),
            _ => None,
        }
    }
}

/// A point-in-time external view of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionView {
    /// Session id.
    pub id: String,
    /// Dataset name.
    pub dataset: String,
    /// Canonical design name (`"twcs:3"`, `"stratified:width-greedy"`).
    pub design: String,
    /// Canonical method name (`"ahpd"`).
    pub method: String,
    /// Where the session lives right now.
    pub state: SessionState,
    /// Labels currently owed on an outstanding request (0 when none).
    pub pending_labels: u64,
    /// Fencing seq of the outstanding request (`None` when no request
    /// is outstanding). Echo it on submit to guard against racing
    /// drivers.
    pub pending_seq: Option<u64>,
    /// The stratum of the outstanding request (stratified sessions with
    /// labels owed).
    pub pending_stratum: Option<(u32, String)>,
    /// The engine status — the headline view for every engine kind
    /// (pooled for stratified sessions, the primary method's for
    /// comparative ones). An evicted session reports the status of its
    /// stored snapshot, resumed by the running binary.
    pub status: SessionStatus,
    /// Per-stratum rows (stratified sessions only).
    pub strata: Option<Vec<StratumReport>>,
    /// Per-method rows (comparative sessions only).
    pub methods: Option<Vec<MethodReport>>,
    /// Monitoring report — epoch, drift rows, alarms (monitor sessions
    /// only; omitted on the brief poll/submit views).
    pub monitor: Option<MonitorReport>,
    /// Snapshot size on disk, for an evicted session mid-campaign.
    pub snapshot_bytes: Option<u64>,
}

/// One entry of [`SessionManager::list`].
#[derive(Debug, Clone, PartialEq)]
pub enum ListedSession {
    /// A session in memory: its full view.
    Held(Box<SessionView>),
    /// A session only on disk ([`SessionState::Evicted`], whether
    /// suspended or evicted), as the store's index knows it;
    /// [`SessionManager::status`] derives its view.
    Stored {
        /// Session id.
        id: String,
        /// Why the session stopped; `None` while it is suspended.
        reason: Option<StopReason>,
    },
}

impl ListedSession {
    /// The session id.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            ListedSession::Held(view) => &view.id,
            ListedSession::Stored { id, .. } => id,
        }
    }
}

struct Live<'a> {
    spec: SessionSpec,
    /// The engine behind the slot, whichever kind the spec denotes.
    /// Every lifecycle path (poll, submit, status, suspend, evict,
    /// finalize) is written once against this trait object.
    engine: Box<dyn SessionEngine + 'a>,
    /// The outstanding annotation request, kept so a re-poll (e.g. an
    /// annotator that lost the response) is served the identical batch
    /// instead of a protocol error.
    pending: Option<AnnotationRequest>,
    /// The stratum of the outstanding request (stratified sessions).
    pending_stratum: Option<(u32, String)>,
    /// Fencing token: incremented for every freshly issued batch. A
    /// submit carrying a stale seq is rejected instead of silently
    /// applying old labels to a newer batch. Persisted in the same
    /// record as the snapshot, so a rehydrated session re-issues a seq
    /// only for the batch first issued under it.
    seq: u64,
    /// Last request activity (create/poll/submit/resume), the clock the
    /// janitor's TTL aging reads. Status reads deliberately do not
    /// refresh it — monitoring must not keep a session warm.
    touched: Instant,
}

impl Live<'_> {
    fn pending_labels(&self) -> u64 {
        self.pending.as_ref().map_or(0, |r| r.triples.len() as u64)
    }

    /// Writes the session to `store` as suspended: the snapshot plus a
    /// meta record of the spec and the fencing seq, in one atomic save
    /// — one record file, so a restart restores the seq and the engine
    /// state it fences as a pair, and a failed save leaves the previous
    /// pair in place. Refused while labels are owed. Returns the
    /// snapshot.
    fn persist(&self, store: &SnapshotStore, id: &str) -> ServiceResult<Vec<u8>> {
        if self.engine.has_pending_request() {
            return Err(ServiceError::RequestOutstanding(id.to_string()));
        }
        let snapshot = self.engine.snapshot()?;
        let mut meta = meta_head(&self.spec, "suspended");
        meta.set("seq", Json::int(self.seq));
        store.save(id, &meta.encode(), Some(&snapshot))?;
        Ok(snapshot)
    }
}

struct FinishedSlot {
    spec: SessionSpec,
    outcome: EngineOutcome,
    /// When this result last saw activity (see [`Live::touched`]).
    touched: Instant,
}

impl FinishedSlot {
    /// The meta-only record that persists this result.
    fn meta(&self) -> String {
        let outcome = &self.outcome;
        let mut doc = meta_head(&self.spec, "finished");
        doc.set("reason", Json::str(api::stop_reason_name(outcome.reason)));
        doc.set("result", api::result_to_json(&outcome.result));
        if let Some(strata) = &outcome.strata {
            doc.set("strata", api::strata_to_json(strata));
        }
        if let Some(methods) = &outcome.methods {
            doc.set("methods", api::methods_to_json(methods));
        }
        doc.encode()
    }
}

enum Slot<'a> {
    Live(Box<Live<'a>>),
    Finished(Box<FinishedSlot>),
}

/// A finished session's view: its outcome as a stopped status.
fn finished_view(outcome: &EngineOutcome) -> SessionStatusView {
    SessionStatusView {
        primary: SessionStatus::stopped(&outcome.result, outcome.reason),
        strata: outcome.strata.clone(),
        methods: outcome.methods.clone(),
        monitor: None,
    }
}

impl Slot<'_> {
    fn spec(&self) -> &SessionSpec {
        match self {
            Slot::Live(live) => &live.spec,
            Slot::Finished(finished) => &finished.spec,
        }
    }

    fn touched(&self) -> Instant {
        match self {
            Slot::Live(live) => live.touched,
            Slot::Finished(finished) => finished.touched,
        }
    }

    fn touch(&mut self) {
        let now = Instant::now();
        match self {
            Slot::Live(live) => live.touched = now,
            Slot::Finished(finished) => finished.touched = now,
        }
    }

    /// The full view, per-row breakdowns included.
    fn view(&self) -> SessionView {
        self.view_impl(false)
    }

    /// The poll/submit hot-path view: live engines report the headline
    /// status only — no per-stratum/per-method rows, each of which
    /// costs an interval construction per call on a unit-granular
    /// stream. Finished slots return their outcome's rows unchanged (a
    /// clone, not a computation).
    fn view_brief(&self) -> SessionView {
        self.view_impl(true)
    }

    fn view_impl(&self, brief: bool) -> SessionView {
        let (state, view) = match self {
            Slot::Live(live) => {
                // One status call: a stratified/comparative status
                // computes every row's interval, so the view must
                // not pay twice — and the brief view not at all.
                let view = if brief {
                    SessionStatusView {
                        primary: live.engine.headline(),
                        strata: None,
                        methods: None,
                        monitor: None,
                    }
                } else {
                    live.engine.status()
                };
                (SessionState::Running, view)
            }
            Slot::Finished(finished) => (SessionState::Finished, finished_view(&finished.outcome)),
        };
        let live = match self {
            Slot::Live(live) => Some(live),
            _ => None,
        };
        let spec = self.spec();
        SessionView {
            id: spec.id.clone(),
            dataset: spec.dataset.clone(),
            design: spec.design.canonical_name(),
            method: spec.method.canonical_name(),
            state,
            pending_labels: live.map_or(0, |live| live.pending_labels()),
            pending_seq: live.and_then(|live| live.pending.as_ref().map(|_| live.seq)),
            pending_stratum: live.and_then(|live| live.pending_stratum.clone()),
            status: view.primary,
            strata: view.strata,
            methods: view.methods,
            monitor: view.monitor,
            snapshot_bytes: None,
        }
    }
}

// ---------------------------------------------------------------------
// Meta records
// ---------------------------------------------------------------------

// A record's meta holds only what resume cannot derive: the spec, the
// state, and a suspended session's fencing seq or a finished session's
// outcome. Fields an older layout also stored (a cached status and row
// views) are ignored on read.

/// The spec and state (`"suspended"` or `"finished"`) every meta record
/// leads with.
fn meta_head(spec: &SessionSpec, state: &str) -> Json {
    Json::obj(vec![("spec", spec.to_json()), ("state", Json::str(state))])
}

enum MetaRecord {
    /// A suspended session, with its fencing seq (0 when absent).
    Suspended {
        spec: SessionSpec,
        seq: u64,
    },
    Finished(FinishedSlot),
}

fn meta_decode(id: &str, meta: &str) -> ServiceResult<MetaRecord> {
    let corrupt = |msg: String| ServiceError::Corrupt(format!("session {id:?}: {msg}"));
    let doc = json::parse(meta).map_err(|e| corrupt(e.to_string()))?;
    let spec = SessionSpec::from_json(
        doc.get("spec")
            .ok_or_else(|| corrupt("missing spec".into()))?,
    )
    .map_err(|e| corrupt(e.to_string()))?;
    if spec.id != id {
        return Err(corrupt(format!("meta names id {:?}", spec.id)));
    }
    match doc.get("state").and_then(Json::as_str) {
        Some("suspended") => {
            let seq = match doc.get("seq") {
                None => 0,
                Some(field) => field
                    .as_u64()
                    .ok_or_else(|| corrupt("seq is not an integer".into()))?,
            };
            return Ok(MetaRecord::Suspended { spec, seq });
        }
        Some("finished") => {}
        _ => return Err(corrupt("missing or unknown state".into())),
    }
    let reason = doc
        .get("reason")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("finished record without a reason".into()))
        .and_then(|name| api::stop_reason_from_name(name).map_err(|e| corrupt(e.to_string())))?;
    let result = api::result_from_json(
        doc.get("result")
            .ok_or_else(|| corrupt("finished record without a result".into()))?,
    )
    .map_err(|e| corrupt(e.to_string()))?;
    let strata = match doc.get("strata") {
        None | Some(Json::Null) => None,
        Some(field) => Some(api::strata_from_json(field).map_err(|e| corrupt(e.to_string()))?),
    };
    let methods = match doc.get("methods") {
        None | Some(Json::Null) => None,
        Some(field) => Some(api::methods_from_json(field).map_err(|e| corrupt(e.to_string()))?),
    };
    Ok(MetaRecord::Finished(FinishedSlot {
        spec,
        outcome: EngineOutcome {
            reason,
            result,
            strata,
            methods,
        },
        touched: Instant::now(),
    }))
}

// ---------------------------------------------------------------------
// The manager
// ---------------------------------------------------------------------

/// Admission-control knobs for a [`SessionManager`]. `None` means
/// unlimited. Quotas count every session that exists under a tenant —
/// running, evicted or finished — and are released by
/// [`SessionManager::delete`], or when a read quarantines the session's
/// record, so a full quota is an explicit signal to clean up, not a
/// transient hiccup.
#[derive(Debug, Clone, Copy)]
pub struct ManagerLimits {
    /// Ceiling on sessions per tenant (the spec's `tenant` field;
    /// specs without one share the default tenant's quota).
    pub max_sessions_per_tenant: Option<usize>,
    /// Ceiling on sessions across all tenants.
    pub max_total_sessions: Option<usize>,
    /// `Retry-After` seconds attached to quota/drain refusals.
    pub retry_after_secs: u64,
}

impl Default for ManagerLimits {
    fn default() -> Self {
        Self {
            max_sessions_per_tenant: None,
            max_total_sessions: None,
            retry_after_secs: 1,
        }
    }
}

/// Live session census backing quota admission: one counter per tenant
/// plus the server-wide total, kept exact under a dedicated mutex.
#[derive(Debug, Default)]
struct Occupancy {
    per_tenant: HashMap<String, usize>,
    total: usize,
}

/// The tenant bucket a spec's sessions count against (the shared
/// default bucket when the spec names none).
fn tenant_key(spec: &SessionSpec) -> &str {
    spec.tenant.as_deref().unwrap_or("")
}

fn tenant_scope(tenant: &str) -> String {
    if tenant.is_empty() {
        "the default tenant".to_string()
    } else {
        format!("tenant {tenant:?}")
    }
}

/// What [`SessionManager::drain`] did, per session id (each list
/// sorted). A clean drain has an empty `failed`.
#[derive(Debug, Default)]
pub struct DrainReport {
    /// Sessions persisted as suspended (one record with a snapshot),
    /// resumable bit-identically after restart.
    pub suspended: Vec<String>,
    /// Sessions whose outstanding annotation batch was withdrawn via
    /// the exact-rollback path before suspension — a post-restart
    /// re-poll regenerates the identical batch.
    pub cancelled: Vec<String>,
    /// Finished sessions persisted as meta-only result records.
    pub finished: Vec<String>,
    /// Sessions that could not be persisted, with the error text.
    /// They stay in memory (and are lost when the process exits).
    pub failed: Vec<(String, String)>,
}

impl DrainReport {
    /// `true` when every session was persisted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Sharded, lock-striped host for named evaluation sessions. See the
/// module docs for the state machine.
pub struct SessionManager<'a> {
    registry: &'a DatasetRegistry,
    shards: Box<[Mutex<HashMap<String, Slot<'a>>>]>,
    store: SnapshotStore,
    prepared: Mutex<HashMap<(String, SamplingDesign), Arc<PreparedDesign>>>,
    limits: ManagerLimits,
    occupancy: Mutex<Occupancy>,
    draining: std::sync::atomic::AtomicBool,
    /// Lifecycle counters; absent until
    /// [`SessionManager::set_metrics`] attaches a registry.
    metrics: Option<Arc<Metrics>>,
    /// The process-wide posterior-kernel cache, injected into every
    /// engine this manager builds or rehydrates — all tenants share one
    /// memo table (keys are self-describing, so cross-tenant sharing is
    /// sound and cross-campaign hits are the point).
    kernel: Arc<KernelCache>,
}

impl<'a> SessionManager<'a> {
    /// A manager over `registry`, spilling dormant sessions into
    /// `store`, with `shards` lock stripes (clamped to ≥ 1) and no
    /// admission limits.
    #[must_use]
    pub fn new(registry: &'a DatasetRegistry, store: SnapshotStore, shards: usize) -> Self {
        Self::with_limits(registry, store, shards, ManagerLimits::default())
    }

    /// [`SessionManager::new`] with admission limits. Quota counters
    /// are seeded from the store's index, so a restarted server enforces
    /// the same quotas its predecessor did — suspended campaigns on disk
    /// keep their reservations.
    #[must_use]
    pub fn with_limits(
        registry: &'a DatasetRegistry,
        store: SnapshotStore,
        shards: usize,
        limits: ManagerLimits,
    ) -> Self {
        let shards = shards.max(1);
        let mut occupancy = Occupancy::default();
        // Every stored id takes a quota slot.
        for (_, entry) in store.list() {
            occupancy.total += 1;
            *occupancy.per_tenant.entry(entry.tenant).or_insert(0) += 1;
        }
        Self {
            registry,
            shards: (0..shards)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            store,
            prepared: Mutex::new(HashMap::new()),
            limits,
            occupancy: Mutex::new(occupancy),
            draining: std::sync::atomic::AtomicBool::new(false),
            metrics: None,
            kernel: Arc::new(KernelCache::new()),
        }
    }

    /// Counter snapshot of the shared posterior-kernel cache, for
    /// metrics exposition.
    #[must_use]
    pub fn kernel_stats(&self) -> KernelCacheStats {
        self.kernel.stats()
    }

    /// Attaches a metrics registry to this manager **and** its store,
    /// turning on lifecycle counters (created/suspended/…/429) and the
    /// store's durability counters. Call before serving traffic.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.store.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
    }

    /// Bumps one lifecycle counter, when a registry is attached.
    fn bump(&self, pick: fn(&Metrics) -> &std::sync::atomic::AtomicU64) {
        self.bump_by(pick, 1);
    }

    /// Adds `n` to one lifecycle counter, when a registry is attached.
    fn bump_by(&self, pick: fn(&Metrics) -> &std::sync::atomic::AtomicU64, n: u64) {
        if let Some(metrics) = &self.metrics {
            pick(metrics).fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// The admission limits this manager enforces.
    #[must_use]
    pub fn limits(&self) -> ManagerLimits {
        self.limits
    }

    /// The dataset registry this manager serves.
    #[must_use]
    pub fn registry(&self) -> &'a DatasetRegistry {
        self.registry
    }

    /// The snapshot store backing suspended sessions.
    #[must_use]
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Which shard `id` hashes to — also the `shard` label of the
    /// `kgae_sessions` gauge.
    fn shard_index(&self, id: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, id: &str) -> &Mutex<HashMap<String, Slot<'a>>> {
        &self.shards[self.shard_index(id)]
    }

    /// Point-in-time census of every session, per shard and lifecycle
    /// state — the source of the `kgae_sessions` gauges. Exact by
    /// construction (each shard is counted under its lock; store-only
    /// ids count as evicted), so the gauges can never drift.
    #[must_use]
    pub fn census(&self) -> Vec<ShardSessions> {
        let mut census = vec![ShardSessions::default(); self.shards.len()];
        let mut seen = std::collections::HashSet::new();
        for (index, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("shard lock");
            for (id, slot) in shard.iter() {
                seen.insert(id.clone());
                match slot {
                    Slot::Live(_) => census[index].live += 1,
                    Slot::Finished(_) => census[index].finished += 1,
                }
            }
        }
        for (id, _) in self.store.list() {
            if !seen.contains(&id) {
                census[self.shard_index(&id)].evicted += 1;
            }
        }
        census
    }

    /// In-memory sessions idle past `ttl`, with the state they held at
    /// scan time (running or finished) — the janitor's aging worklist.
    /// Live sessions with an outstanding annotation request are skipped
    /// (labels are owed; a suspend would be refused anyway).
    pub(crate) fn idle_sessions(&self, ttl: Duration) -> Vec<(String, SessionState)> {
        let now = Instant::now();
        let mut idle = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (id, slot) in shard.iter() {
                if now.saturating_duration_since(slot.touched()) < ttl {
                    continue;
                }
                let state = match slot {
                    Slot::Live(live) => {
                        if live.engine.has_pending_request() {
                            continue;
                        }
                        SessionState::Running
                    }
                    Slot::Finished(_) => SessionState::Finished,
                };
                idle.push((id.clone(), state));
            }
        }
        idle.sort_by(|a, b| a.0.cmp(&b.0));
        idle
    }

    /// Takes one quota slot for `tenant`, or refuses with
    /// [`ServiceError::QuotaExceeded`]. Check-and-increment is atomic
    /// under the occupancy lock.
    fn admit(&self, tenant: &str) -> ServiceResult<()> {
        let mut occupancy = self.occupancy.lock().expect("occupancy lock");
        if let Some(limit) = self.limits.max_total_sessions {
            if occupancy.total >= limit {
                return Err(ServiceError::QuotaExceeded {
                    scope: "the server".to_string(),
                    limit,
                    retry_after: self.limits.retry_after_secs,
                });
            }
        }
        if let Some(limit) = self.limits.max_sessions_per_tenant {
            if occupancy.per_tenant.get(tenant).copied().unwrap_or(0) >= limit {
                return Err(ServiceError::QuotaExceeded {
                    scope: tenant_scope(tenant),
                    limit,
                    retry_after: self.limits.retry_after_secs,
                });
            }
        }
        occupancy.total += 1;
        *occupancy.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Returns `tenant`'s quota slot (saturating — a release without a
    /// matching admit cannot underflow the census).
    fn release(&self, tenant: &str) {
        let mut occupancy = self.occupancy.lock().expect("occupancy lock");
        occupancy.total = occupancy.total.saturating_sub(1);
        if let Some(count) = occupancy.per_tenant.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                occupancy.per_tenant.remove(tenant);
            }
        }
    }

    /// Sessions currently counted against quotas: `(total, this
    /// tenant's count)`.
    #[must_use]
    pub fn occupancy(&self, tenant: &str) -> (usize, usize) {
        let occupancy = self.occupancy.lock().expect("occupancy lock");
        (
            occupancy.total,
            occupancy.per_tenant.get(tenant).copied().unwrap_or(0),
        )
    }

    /// Refuses operations on a quarantined id with
    /// [`ServiceError::Quarantined`] (the wire's 410: the id existed,
    /// its bytes are preserved, but it is gone as a servable session).
    fn check_quarantined(&self, id: &str) -> ServiceResult<()> {
        if self.store.is_quarantined(id) {
            return Err(ServiceError::Quarantined(id.to_string()));
        }
        Ok(())
    }

    /// Ids quarantined by the startup sweep or by deep validation
    /// failures since, sorted.
    #[must_use]
    pub fn quarantined_sessions(&self) -> Vec<String> {
        self.store.quarantined_ids()
    }

    /// Converts a deep-validation failure during rehydration into a
    /// quarantine: the store's index refuses the id from now on, the
    /// session's files move into the store's quarantine directory (best
    /// effort — the index is the authority for serving decisions), the
    /// quota slot of the tenant the index named is released, and the
    /// caller gets [`ServiceError::Quarantined`]. Non-corruption errors
    /// (I/O, protocol) pass through untouched.
    fn quarantine_on_corruption(&self, id: &str, e: ServiceError) -> ServiceError {
        let corrupt = matches!(
            &e,
            ServiceError::Corrupt(_)
                | ServiceError::Session(
                    SessionError::CorruptSnapshot(_) | SessionError::SnapshotMismatch(_)
                )
        );
        if !corrupt {
            return e;
        }
        // Only the call that takes the id out of the index releases it.
        if let (Some(entry), _) = self.store.quarantine(id, &e.to_string()) {
            self.release(&entry.tenant);
        }
        ServiceError::Quarantined(id.to_string())
    }

    /// Flips the manager into drain mode: [`SessionManager::create`]
    /// refuses with [`ServiceError::Draining`] (503) from now on.
    /// Existing sessions keep serving until [`SessionManager::drain`]
    /// persists them.
    pub fn begin_drain(&self) {
        self.draining
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether drain mode is on.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Graceful shutdown sweep: enters drain mode, then persists every
    /// in-memory session to the store — running sessions are
    /// snapshotted as suspended (withdrawing an outstanding annotation
    /// batch first via the exact-rollback cancel, so nothing blocks on
    /// absent annotators), finished sessions become meta-only result
    /// records. After a clean drain the store alone reconstructs every
    /// campaign bit-identically; sessions listed in
    /// [`DrainReport::failed`] could not be saved and stay in memory.
    pub fn drain(&self) -> DrainReport {
        self.begin_drain();
        let mut report = DrainReport::default();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            let ids: Vec<String> = shard.keys().cloned().collect();
            for id in ids {
                let Some(slot) = shard.get_mut(&id) else {
                    continue;
                };
                match slot {
                    Slot::Finished(finished) => {
                        match self.store.save(&id, &finished.meta(), None) {
                            Ok(()) => {
                                shard.remove(&id);
                                report.finished.push(id);
                            }
                            Err(e) => report.failed.push((id, e.to_string())),
                        }
                    }
                    Slot::Live(live) => {
                        if live.engine.has_pending_request() {
                            match live.engine.cancel_request() {
                                Ok(()) => {
                                    live.pending = None;
                                    live.pending_stratum = None;
                                    report.cancelled.push(id.clone());
                                }
                                Err(e) => {
                                    report.failed.push((id, e.to_string()));
                                    continue;
                                }
                            }
                        }
                        match live.persist(&self.store, &id) {
                            Ok(_) => {
                                shard.remove(&id);
                                report.suspended.push(id);
                            }
                            Err(e) => report.failed.push((id, e.to_string())),
                        }
                    }
                }
            }
        }
        report.suspended.sort();
        report.cancelled.sort();
        report.finished.sort();
        report.failed.sort();
        report
    }

    /// The per-(dataset, design) [`PreparedDesign`], built once and
    /// shared: every session over NELL/TWCS reuses one PPS alias table.
    fn prepared_for(
        &self,
        dataset: &str,
        design: SamplingDesign,
    ) -> ServiceResult<Arc<PreparedDesign>> {
        let kg = self
            .registry
            .get(dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(dataset.to_string()))?;
        let mut cache = self.prepared.lock().expect("prepared cache lock");
        Ok(cache
            .entry((dataset.to_string(), design))
            .or_insert_with(|| Arc::new(PreparedDesign::new(kg, design)))
            .clone())
    }

    /// Reconstructs the partition a stratified spec denotes — the
    /// dataset's built-in predicate partition, or a deterministic hash
    /// partition. Both rebuild bit-identically from the spec, which is
    /// what lets snapshots validate their stratification fingerprint.
    fn resolve_stratification(&self, spec: &SessionSpec) -> ServiceResult<Stratification> {
        let kg = self
            .registry
            .get(&spec.dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(spec.dataset.clone()))?;
        match spec.partition().expect("stratified specs have a partition") {
            StratifySpec::Predicate => self
                .registry
                .stratification(&spec.dataset)
                .cloned()
                .ok_or_else(|| {
                    ServiceError::BadRequest(format!(
                        "dataset {:?} has no built-in predicate stratification; \
                             use stratify mode \"hash\"",
                        spec.dataset
                    ))
                }),
            StratifySpec::Hash { strata, seed } => {
                if strata == 0 || u64::from(strata) > kg.num_triples() {
                    return Err(ServiceError::BadRequest(format!(
                        "hash stratification needs 1..={} strata, got {strata}",
                        kg.num_triples()
                    )));
                }
                Ok(Stratification::by_hash(kg, strata, seed))
            }
        }
    }

    /// Resolves the resources a spec denotes and hands the engine spec
    /// they make to `engine` — the single spec → engine path shared by
    /// `create` (fresh build) and rehydration (registry-dispatched
    /// resume). Fails before calling `engine` if the spec cannot be
    /// served.
    fn with_engine_spec<R>(
        &self,
        spec: &SessionSpec,
        engine: impl FnOnce(&EngineSpec<'a, '_>) -> R,
    ) -> ServiceResult<R> {
        let kg = self
            .registry
            .get(&spec.dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(spec.dataset.clone()))?;
        let (method, seed) = (&spec.method, spec.seed);
        Ok(match spec.design {
            DesignSpec::Stratified { .. } => engine(&EngineSpec::Stratified {
                kg,
                stratification: &self.resolve_stratification(spec)?,
                method,
                config: &spec
                    .stratified_config()
                    .expect("stratified design has a campaign config"),
                seed,
            }),
            DesignSpec::Compare { primary } => {
                // The primary is named by the design; the spec's method
                // field must agree so the wire has one source of truth.
                let expected = &compared_methods()[primary.roster_index()];
                if spec.method != *expected {
                    return Err(ServiceError::BadRequest(format!(
                        "design {:?} designates primary method {:?}; \
                         the \"method\" field says {:?}",
                        spec.design.canonical_name(),
                        expected.canonical_name(),
                        spec.method.canonical_name()
                    )));
                }
                engine(&EngineSpec::Comparative {
                    kg,
                    // The comparative wire design fixes the shared
                    // stream to SRS (the core engine also supports
                    // cluster streams).
                    prepared: &*self.prepared_for(&spec.dataset, SamplingDesign::Srs)?,
                    primary,
                    config: &spec.eval_config(),
                    seed,
                })
            }
            DesignSpec::Monitor { carry } => engine(&EngineSpec::Monitor {
                kg,
                method,
                config: &spec.eval_config(),
                // The wire carry is a whole pseudo-observation count;
                // the engine works in f64 evidence mass.
                carry_weight: carry as f64,
                seed,
            }),
            _ => {
                let design = SamplingDesign::try_from(spec.design)
                    .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
                engine(&EngineSpec::Plain {
                    kg,
                    prepared: &*self.prepared_for(&spec.dataset, design)?,
                    method,
                    config: &spec.eval_config(),
                    seed,
                })
            }
        })
    }

    fn build_live(&self, spec: &SessionSpec) -> ServiceResult<Live<'a>> {
        let mut engine = self.with_engine_spec(spec, |engine| engine.build())?;
        engine.set_kernel_cache(Arc::clone(&self.kernel));
        Ok(Live {
            spec: spec.clone(),
            engine,
            pending: None,
            pending_stratum: None,
            seq: 0,
            touched: Instant::now(),
        })
    }

    /// Loads a stored record into a slot (not yet inserted anywhere): a
    /// suspended record rehydrates with the fencing seq stored beside
    /// its snapshot.
    fn slot_from_store(&self, id: &str, record: &StoredSession) -> ServiceResult<Slot<'a>> {
        let (spec, seq) = match meta_decode(id, &record.meta)? {
            MetaRecord::Finished(finished) => return Ok(Slot::Finished(Box::new(finished))),
            MetaRecord::Suspended { spec, seq } => (spec, seq),
        };
        let snapshot = record.snapshot.as_deref().ok_or_else(|| {
            ServiceError::Corrupt(format!("session {id:?}: suspended without a snapshot"))
        })?;
        // `create` refused every spec the registry cannot build, so a
        // stored one that fails is damaged or was written against
        // another registry: this manager cannot serve it either way.
        // Registry-dispatched: the snapshot's record tag is validated
        // against the engine kind the spec denotes before any
        // kind-specific parsing, and every fingerprint after that. The
        // shared kernel cache goes in before the replay.
        let engine = self
            .with_engine_spec(&spec, |engine| {
                engine.resume_with_kernel(snapshot, Some(Arc::clone(&self.kernel)))
            })
            .map_err(|e| {
                ServiceError::Corrupt(format!("session {id:?}: stored spec cannot be served: {e}"))
            })??;
        Ok(Slot::Live(Box::new(Live {
            spec,
            engine,
            pending: None,
            pending_stratum: None,
            seq,
            touched: Instant::now(),
        })))
    }

    /// Brings the slot for `id` into the [`Slot::Live`] state inside an
    /// already-held shard, rehydrating a session that lives only on
    /// disk from its one stored record.
    /// [`ServiceError::AlreadyFinished`] leaves the finished slot in the
    /// map so the caller can still read its view. A stored record that
    /// fails deep validation is quarantined (the caller gets
    /// [`ServiceError::Quarantined`]) instead of surfacing as a 500
    /// forever.
    fn ensure_live(&self, shard: &mut HashMap<String, Slot<'a>>, id: &str) -> ServiceResult<()> {
        match shard.get(id) {
            Some(Slot::Live(_)) => return Ok(()),
            Some(Slot::Finished(finished)) => {
                return Err(ServiceError::AlreadyFinished(finished.spec.id.clone()))
            }
            None => {}
        }
        let slot = match self.store.load(id) {
            Ok(Some(record)) => self.slot_from_store(id, &record),
            Ok(None) => return Err(ServiceError::UnknownSession(id.to_string())),
            Err(e) => Err(e.into()),
        }
        .map_err(|e| self.quarantine_on_corruption(id, e))?;
        let finished = matches!(slot, Slot::Finished(_));
        shard.insert(id.to_string(), slot);
        if finished {
            return Err(ServiceError::AlreadyFinished(id.to_string()));
        }
        self.bump(|m| &m.sessions_resumed);
        Ok(())
    }

    /// Replaces a just-stopped live slot with its finished form.
    fn finalize(shard: &mut HashMap<String, Slot<'a>>, id: &str) {
        let Some(Slot::Live(live)) = shard.remove(id) else {
            unreachable!("finalize requires a live slot")
        };
        let outcome = live
            .engine
            .into_outcome()
            .expect("finalize requires a stopped engine");
        shard.insert(
            id.to_string(),
            Slot::Finished(Box::new(FinishedSlot {
                spec: live.spec,
                outcome,
                touched: Instant::now(),
            })),
        );
    }

    // -----------------------------------------------------------------
    // Public operations
    // -----------------------------------------------------------------

    /// Creates a session from `spec`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Draining`] in drain mode,
    /// [`ServiceError::InvalidId`], [`ServiceError::BadRequest`] unless
    /// `f64::EPSILON < α < 1` and ε is finite and positive (every
    /// interval's critical value needs `1 − α/2` strictly inside
    /// `(1/2, 1)`), [`ServiceError::Quarantined`] on a
    /// quarantined id (quarantined bytes must be inspected and cleared
    /// out-of-band before the id can be reused),
    /// [`ServiceError::SessionExists`] (in memory or on disk),
    /// [`ServiceError::UnknownDataset`],
    /// [`ServiceError::QuotaExceeded`] when a tenant or server quota is
    /// full.
    pub fn create(&self, spec: &SessionSpec) -> ServiceResult<SessionView> {
        if self.is_draining() {
            self.bump(|m| &m.draining_refusals);
            return Err(ServiceError::Draining {
                retry_after: self.limits.retry_after_secs,
            });
        }
        if !valid_session_id(&spec.id) {
            return Err(ServiceError::InvalidId(spec.id.clone()));
        }
        let in_range = f64::EPSILON < spec.alpha
            && spec.alpha < 1.0
            && spec.epsilon.is_finite()
            && spec.epsilon > 0.0;
        if !in_range {
            return Err(ServiceError::BadRequest(format!(
                "alpha must lie in (2^-52, 1) and epsilon must be finite and positive, \
                 got alpha {} and epsilon {}",
                spec.alpha, spec.epsilon
            )));
        }
        self.check_quarantined(&spec.id)?;
        let live = self.build_live(spec)?;
        let mut shard = self.shard(&spec.id).lock().expect("shard lock");
        if shard.contains_key(&spec.id) || self.store.contains(&spec.id) {
            return Err(ServiceError::SessionExists(spec.id.clone()));
        }
        // Admission happens after all other checks while the shard lock
        // pins the insert: a taken slot is always matched by a session.
        self.admit(tenant_key(spec))
            .inspect_err(|_| self.bump(|m| &m.quota_refusals))?;
        let slot = Slot::Live(Box::new(live));
        let view = slot.view();
        shard.insert(spec.id.clone(), slot);
        self.bump(|m| &m.sessions_created);
        Ok(view)
    }

    /// Polls a session for its next annotation batch (at most
    /// `max_units` stage-1 units, clamped to
    /// [`MAX_BATCH_UNITS`] — with-replacement cluster streams never
    /// exhaust, so an unbounded batch would sample forever). `None`
    /// means the session stopped — the view carries the reason.
    ///
    /// **Idempotent while labels are owed**: re-polling a session with
    /// an outstanding request returns the identical batch again (at its
    /// original size), so an annotator that lost the response can
    /// recover instead of wedging the campaign.
    ///
    /// The returned view is the **headline** view: per-stratum /
    /// per-method rows are omitted on this hot path (each row costs an
    /// interval construction); read them via [`SessionManager::status`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`],
    /// [`ServiceError::AlreadyFinished`], engine protocol errors
    /// ([`ServiceError::Session`]), or rehydration failures.
    pub fn next_request(
        &self,
        id: &str,
        max_units: u64,
    ) -> ServiceResult<(Option<AnnotationRequest>, SessionView)> {
        self.check_quarantined(id)?;
        let max_units = max_units.clamp(1, MAX_BATCH_UNITS);
        let mut shard = self.shard(id).lock().expect("shard lock");
        match self.ensure_live(&mut shard, id) {
            Ok(()) => {}
            Err(ServiceError::AlreadyFinished(_)) => {
                // A poll on a finished session isn't an error — it's the
                // protocol's way of saying "done". Report it.
                let view = shard.get(id).expect("finished slot in map").view();
                return Ok((None, view));
            }
            Err(e) => return Err(e),
        }
        let Some(Slot::Live(live)) = shard.get_mut(id) else {
            unreachable!("ensure_live left a live slot")
        };
        live.touched = Instant::now();
        if let Some(outstanding) = &live.pending {
            let request = outstanding.clone();
            let view = shard.get(id).expect("slot exists").view_brief();
            return Ok((Some(request), view));
        }
        let polled = live.engine.next_request(max_units)?;
        let request = match polled {
            Some(polled) => {
                live.seq += 1;
                live.pending = Some(polled.request.clone());
                live.pending_stratum = polled.stratum;
                Some(polled.request)
            }
            None => {
                live.pending = None;
                live.pending_stratum = None;
                if live.engine.stop_reason().is_some() {
                    // Stream exhausted: the session stopped inside the
                    // poll; surface it as Finished.
                    Self::finalize(&mut shard, id);
                    self.bump(|m| &m.sessions_finished);
                }
                // Otherwise the engine owes no labels without having
                // stopped — a monitor in its watching state. The slot
                // stays live: a later delta batch may re-open it.
                None
            }
        };
        let view = shard.get(id).expect("slot exists").view_brief();
        Ok((request, view))
    }

    /// Submits labels for the outstanding request, in request order.
    ///
    /// `seq` is the fencing token from the poll that produced the
    /// labels ([`SessionView::pending_seq`]): when supplied, the submit
    /// only applies if that batch is still the outstanding one, so two
    /// drivers racing on one session can never smuggle stale labels
    /// onto a newer batch. `None` skips the check (single-driver
    /// callers).
    ///
    /// Like polls, the returned view is the **headline** view (no
    /// per-stratum / per-method rows).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`],
    /// [`ServiceError::AlreadyFinished`],
    /// [`ServiceError::StaleRequest`], label-count/protocol errors
    /// ([`ServiceError::Session`]).
    pub fn submit(
        &self,
        id: &str,
        labels: &[bool],
        seq: Option<u64>,
    ) -> ServiceResult<SessionView> {
        self.check_quarantined(id)?;
        let mut shard = self.shard(id).lock().expect("shard lock");
        if let Err(e) = self.ensure_live(&mut shard, id) {
            // A *fenced* submit against a finished session is the
            // replay of the very batch that finished it (the fence can
            // no longer match anything): answer the same stale-fence
            // 409 a live replay gets, which clients treat as proof the
            // original landed. Unfenced submits keep the informative
            // `already_finished`.
            if seq.is_some() && matches!(e, ServiceError::AlreadyFinished(_)) {
                return Err(ServiceError::StaleRequest(id.to_string()));
            }
            return Err(e);
        }
        let Some(Slot::Live(live)) = shard.get_mut(id) else {
            unreachable!("ensure_live left a live slot")
        };
        if let Some(seq) = seq {
            if live.pending.is_none() || seq != live.seq {
                return Err(ServiceError::StaleRequest(id.to_string()));
            }
        }
        live.engine.submit(labels)?;
        live.touched = Instant::now();
        live.pending = None;
        live.pending_stratum = None;
        if live.engine.stop_reason().is_some() {
            Self::finalize(&mut shard, id);
            self.bump(|m| &m.sessions_finished);
        }
        Ok(shard.get(id).expect("slot exists").view_brief())
    }

    /// Applies a KG delta batch to a monitor session: removed triples'
    /// labels are retired from the evidence, additions join the sampled
    /// population, and the monitor re-appraises its credible interval —
    /// re-opening annotation only when the interval no longer meets the
    /// MoE target.
    ///
    /// An outstanding annotation batch is withdrawn first via the
    /// exact-rollback cancel: its fencing seq dies with it, so a driver
    /// still holding that batch gets [`ServiceError::StaleRequest`]
    /// (409) on submit and must re-poll against the post-delta
    /// population.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] for non-monitor sessions or a
    /// rejected batch (out-of-range/duplicate removes),
    /// [`ServiceError::UnknownSession`],
    /// [`ServiceError::AlreadyFinished`], or rehydration failures.
    pub fn apply_deltas(
        &self,
        id: &str,
        batch: &DeltaBatch,
    ) -> ServiceResult<(DeltaOutcome, SessionView)> {
        self.check_quarantined(id)?;
        let mut shard = self.shard(id).lock().expect("shard lock");
        self.ensure_live(&mut shard, id)?;
        let Some(Slot::Live(live)) = shard.get_mut(id) else {
            unreachable!("ensure_live left a live slot")
        };
        if live.engine.has_pending_request() {
            live.engine.cancel_request()?;
            live.pending = None;
            live.pending_stratum = None;
        }
        let outcome = live.engine.apply_deltas(batch).map_err(|e| match e {
            SessionError::DeltasUnsupported => ServiceError::BadRequest(format!(
                "session {id:?} does not accept deltas; only \"monitor\" designs do"
            )),
            SessionError::DeltaRejected(reject) => {
                ServiceError::BadRequest(format!("delta batch rejected: {reject}"))
            }
            other => ServiceError::Session(other),
        })?;
        live.touched = Instant::now();
        if outcome.reopened {
            self.bump(|m| &m.monitor_campaigns_reopened);
        }
        self.bump_by(|m| &m.monitor_labels_retired, outcome.retired_labels);
        Ok((outcome, shard.get(id).expect("slot exists").view()))
    }

    /// The session's current view. A session only on disk is not
    /// rehydrated: its stored record is loaded into a scratch slot — a
    /// suspended snapshot resumed into an engine by the same path
    /// rehydration takes — whose view is reported as evicted. The
    /// scratch engine never enters the shard, does not count as a
    /// resume and leaves the TTL clock alone.
    ///
    /// For a session only on disk, the shard lock is dropped before the
    /// store is read, so a `suspend`, `resume` or `evict` of the same id
    /// may persist concurrently. The read is still one committed record:
    /// a save replaces the whole file by one atomic rename and the load
    /// reads one file, so the view's status and `snapshot_bytes` always
    /// come from the same persist (the latest one, or one just
    /// superseded).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`], or
    /// [`ServiceError::Quarantined`] for a stored record that cannot
    /// resume, as rehydration would answer.
    pub fn status(&self, id: &str) -> ServiceResult<SessionView> {
        self.check_quarantined(id)?;
        let shard = self.shard(id).lock().expect("shard lock");
        if let Some(slot) = shard.get(id) {
            return Ok(slot.view());
        }
        drop(shard);
        match self.store.load(id) {
            Ok(Some(record)) => self.slot_from_store(id, &record).map(|slot| SessionView {
                state: SessionState::Evicted,
                snapshot_bytes: record.snapshot.as_ref().map(|s| s.len() as u64),
                ..slot.view()
            }),
            Ok(None) => return Err(ServiceError::UnknownSession(id.to_string())),
            Err(e) => Err(e.into()),
        }
        .map_err(|e| self.quarantine_on_corruption(id, e))
    }

    /// Suspends a running session: its record to disk, its engine
    /// dropped. Returns the engine's view taken just before the drop,
    /// as evicted with the record's snapshot size — the view
    /// [`SessionManager::status`] derives from that record. Idempotent
    /// on a session that lives only on disk.
    ///
    /// # Errors
    ///
    /// [`ServiceError::RequestOutstanding`] while labels are owed,
    /// [`ServiceError::AlreadyFinished`] after the stop,
    /// [`ServiceError::UnknownSession`], or store I/O failures (which
    /// keep the session in memory and the previous record on disk).
    pub fn suspend(&self, id: &str) -> ServiceResult<SessionView> {
        self.check_quarantined(id)?;
        let mut shard = self.shard(id).lock().expect("shard lock");
        let view = match shard.get(id) {
            Some(Slot::Finished(finished)) => {
                return Err(ServiceError::AlreadyFinished(finished.spec.id.clone()))
            }
            Some(slot @ Slot::Live(live)) => {
                let snapshot = live.persist(&self.store, id)?;
                SessionView {
                    state: SessionState::Evicted,
                    snapshot_bytes: Some(snapshot.len() as u64),
                    ..slot.view()
                }
            }
            None => {
                drop(shard);
                return self.status(id);
            }
        };
        shard.remove(id);
        self.bump(|m| &m.sessions_suspended);
        Ok(view)
    }

    /// Brings an evicted session back to memory, re-validating the
    /// snapshot fingerprints. Idempotent on live and finished sessions.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`], or
    /// [`ServiceError::Quarantined`] for a stored record that fails
    /// validation (corrupt, mismatched or an unsupported version).
    pub fn resume(&self, id: &str) -> ServiceResult<SessionView> {
        self.check_quarantined(id)?;
        let mut shard = self.shard(id).lock().expect("shard lock");
        match self.ensure_live(&mut shard, id) {
            Ok(()) | Err(ServiceError::AlreadyFinished(_)) => {}
            Err(e) => return Err(e),
        }
        let slot = shard.get_mut(id).expect("slot exists");
        slot.touch();
        Ok(slot.view())
    }

    /// Drops a session's last in-memory bytes, persisting it first
    /// (running sessions are written as [`SessionManager::suspend`]
    /// writes them; finished results as records without a snapshot). A
    /// failed write keeps the slot in memory and the previous record on
    /// disk. Idempotent on a session that lives only on disk.
    ///
    /// # Errors
    ///
    /// [`ServiceError::RequestOutstanding`] while labels are owed,
    /// [`ServiceError::UnknownSession`], or store I/O failures.
    pub fn evict(&self, id: &str) -> ServiceResult<()> {
        self.check_quarantined(id)?;
        let mut shard = self.shard(id).lock().expect("shard lock");
        match shard.get(id) {
            Some(Slot::Live(live)) => {
                live.persist(&self.store, id)?;
            }
            Some(Slot::Finished(finished)) => self.store.save(id, &finished.meta(), None)?,
            None if self.store.contains(id) => return Ok(()),
            None => return Err(ServiceError::UnknownSession(id.to_string())),
        }
        shard.remove(id);
        self.bump(|m| &m.sessions_evicted);
        Ok(())
    }

    /// Removes a session everywhere — memory and disk. Destructive and
    /// unconditional (an outstanding request is abandoned).
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownSession`] when nothing exists under `id`;
    /// store I/O failures.
    pub fn delete(&self, id: &str) -> ServiceResult<()> {
        let mut shard = self.shard(id).lock().expect("shard lock");
        let held = shard
            .remove(id)
            .map(|slot| tenant_key(slot.spec()).to_string());
        // A disk-only session's quota owner is in the store's index.
        let stored = self.store.remove(id)?.map(|entry| entry.tenant);
        match held.or(stored) {
            Some(tenant) => {
                self.release(&tenant);
                self.bump(|m| &m.sessions_deleted);
                Ok(())
            }
            None => Err(ServiceError::UnknownSession(id.to_string())),
        }
    }

    /// The stored snapshot bytes of a session that lives only on disk
    /// mid-campaign — the exact bytes a resume would rehydrate from.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotSuspended`] for sessions in memory and
    /// finished records, [`ServiceError::UnknownSession`], store I/O
    /// failures.
    pub fn snapshot_bytes(&self, id: &str) -> ServiceResult<Vec<u8>> {
        self.check_quarantined(id)?;
        let shard = self.shard(id).lock().expect("shard lock");
        if shard.contains_key(id) {
            return Err(ServiceError::NotSuspended(id.to_string()));
        }
        // Shard still held: the snapshot on disk cannot change under us.
        let Some(record) = self.store.load(id)? else {
            return Err(ServiceError::UnknownSession(id.to_string()));
        };
        record
            .snapshot
            .ok_or_else(|| ServiceError::NotSuspended(id.to_string()))
    }

    /// Every known session, sorted by id: the view of each one in
    /// memory, and each one only on disk as the store's index knows it.
    /// No record is read, resumed or quarantined to list it, so a
    /// damaged record stays listed until a per-id read quarantines it.
    #[must_use]
    pub fn list(&self) -> Vec<ListedSession> {
        let mut listed = Vec::new();
        let mut held = std::collections::HashSet::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (id, slot) in shard.iter() {
                held.insert(id.clone());
                listed.push(ListedSession::Held(Box::new(slot.view())));
            }
        }
        for (id, entry) in self.store.list() {
            if !held.contains(&id) {
                let reason = entry.reason;
                listed.push(ListedSession::Stored { id, reason });
            }
        }
        listed.sort_by(|a, b| a.id().cmp(b.id()));
        listed
    }
}

// The whole point: one manager, many threads.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<SessionManager<'static>>();
};
