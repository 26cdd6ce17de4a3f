//! Hand-rolled observability primitives: an atomic metrics registry
//! with a Prometheus text encoder, plus structured per-request logs.
//!
//! Everything here is std-only. Counters, gauges, and fixed-bucket
//! latency histograms are plain [`AtomicU64`]s — recording a request is
//! a handful of relaxed atomic adds on the worker thread, cheap enough
//! to leave on in production. One [`Metrics`] registry is shared
//! (`Arc`) between the reactor, the [`crate::manager`], the
//! [`crate::store`], and the [`crate::janitor`]; `GET /metrics` encodes
//! it on demand in the Prometheus text exposition format
//! (`text/plain; version=0.0.4`).
//!
//! Two design choices matter for exact reconciliation (the
//! `service_load` metrics leg asserts scraped counters against
//! client-side ground truth):
//!
//! * A request's own counter is bumped **after** its response body is
//!   built, so a `/metrics` scrape reports exactly the requests that
//!   completed before it — the scrape never counts itself.
//! * Session-state gauges are not incrementally maintained; the scrape
//!   asks the manager for a point-in-time census
//!   ([`crate::SessionManager::census`]), so the gauges can never
//!   drift from the truth.
//!
//! Histogram bucket bounds are in microseconds internally (request
//! service times live in the µs–ms range) but encoded with `le` labels
//! in seconds, per Prometheus convention. The `_sum` is accumulated in
//! **nanoseconds** and encoded as seconds, so even a stream of sub-µs
//! `healthz` hits produces a nonzero sum — CI asserts that.

use crate::json::Json;
use kgae_intervals::KernelCacheStats;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::SystemTime;

/// The route classes the server answers: each request is classified
/// once, and `kgae_service::server` dispatches on the class. `Other`
/// collects everything that falls through to 404 (and any unroutable
/// method/path pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `GET /v1/datasets`.
    Datasets,
    /// `GET /v1/sessions`.
    SessionsList,
    /// `POST /v1/sessions`.
    SessionCreate,
    /// `GET /v1/sessions/{id}`.
    SessionStatus,
    /// `DELETE /v1/sessions/{id}`.
    SessionDelete,
    /// `POST /v1/sessions/{id}/next`.
    Next,
    /// `POST /v1/sessions/{id}/labels`.
    Labels,
    /// `POST /v1/sessions/{id}/suspend`.
    Suspend,
    /// `POST /v1/sessions/{id}/resume`.
    Resume,
    /// `POST /v1/sessions/{id}/evict`.
    Evict,
    /// `GET /v1/sessions/{id}/snapshot`.
    Snapshot,
    /// `POST /v1/sessions/{id}/deltas`.
    Deltas,
    /// Anything else.
    Other,
}

/// Every route, in the order metric families are encoded.
pub const ROUTES: [Route; 15] = [
    Route::Healthz,
    Route::Metrics,
    Route::Datasets,
    Route::SessionsList,
    Route::SessionCreate,
    Route::SessionStatus,
    Route::SessionDelete,
    Route::Next,
    Route::Labels,
    Route::Suspend,
    Route::Resume,
    Route::Evict,
    Route::Snapshot,
    Route::Deltas,
    Route::Other,
];

impl Route {
    /// The `route` label value.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Datasets => "datasets",
            Route::SessionsList => "sessions_list",
            Route::SessionCreate => "session_create",
            Route::SessionStatus => "session_status",
            Route::SessionDelete => "session_delete",
            Route::Next => "next",
            Route::Labels => "labels",
            Route::Suspend => "suspend",
            Route::Resume => "resume",
            Route::Evict => "evict",
            Route::Snapshot => "snapshot",
            Route::Deltas => "deltas",
            Route::Other => "other",
        }
    }

    /// Classifies a request line into its route class and the session
    /// id its path names (`/v1/sessions/{id}[/...]`, whatever the
    /// route). The server dispatches on this: a pair classified `Other`
    /// is answered 404.
    #[must_use]
    pub fn classify<'p>(method: &str, path: &'p str) -> (Route, Option<&'p str>) {
        let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let route = match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => Route::Healthz,
            ("GET", ["metrics"]) => Route::Metrics,
            ("GET", ["v1", "datasets"]) => Route::Datasets,
            ("GET", ["v1", "sessions"]) => Route::SessionsList,
            ("POST", ["v1", "sessions"]) => Route::SessionCreate,
            ("GET", ["v1", "sessions", _]) => Route::SessionStatus,
            ("DELETE", ["v1", "sessions", _]) => Route::SessionDelete,
            ("POST", ["v1", "sessions", _, "next"]) => Route::Next,
            ("POST", ["v1", "sessions", _, "labels"]) => Route::Labels,
            ("POST", ["v1", "sessions", _, "suspend"]) => Route::Suspend,
            ("POST", ["v1", "sessions", _, "resume"]) => Route::Resume,
            ("POST", ["v1", "sessions", _, "evict"]) => Route::Evict,
            ("GET", ["v1", "sessions", _, "snapshot"]) => Route::Snapshot,
            ("POST", ["v1", "sessions", _, "deltas"]) => Route::Deltas,
            _ => Route::Other,
        };
        let id = match segments.as_slice() {
            ["v1", "sessions", id, ..] => Some(*id),
            _ => None,
        };
        (route, id)
    }

    fn index(self) -> usize {
        ROUTES
            .iter()
            .position(|&r| r == self)
            .expect("route listed")
    }
}

/// Response statuses with their own counter slot; anything else lands
/// in the trailing `"other"` slot.
const STATUS_CODES: [u16; 10] = [200, 201, 400, 404, 409, 410, 413, 429, 500, 503];
const STATUS_SLOTS: usize = STATUS_CODES.len() + 1;

fn status_slot(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUS_CODES.len())
}

fn status_label(slot: usize) -> String {
    match STATUS_CODES.get(slot) {
        Some(code) => code.to_string(),
        None => "other".into(),
    }
}

/// Histogram bucket upper bounds, in microseconds. The encoder emits
/// them as seconds (`le` labels from [`LE_LABELS`]); the final `+Inf`
/// bucket is implicit in the extra slot.
pub const BUCKET_BOUNDS_MICROS: [u64; 12] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
];

/// The `le` label values matching [`BUCKET_BOUNDS_MICROS`], in seconds,
/// plus the trailing `+Inf`.
pub const LE_LABELS: [&str; 13] = [
    "0.00005", "0.0001", "0.00025", "0.0005", "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05",
    "0.1", "0.25", "+Inf",
];

/// A fixed-bucket latency histogram. Buckets store per-bucket (not
/// cumulative) counts; the encoder cumulates. The sum is kept in
/// nanoseconds so sub-microsecond observations still move it.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_MICROS.len() + 1],
    sum_nanos: AtomicU64,
}

impl Histogram {
    /// Records one observation of `nanos` nanoseconds.
    pub fn observe_nanos(&self, nanos: u64) {
        let micros = nanos / 1_000;
        let slot = BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_MICROS.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        // A clock too coarse to see the request still saw a request.
        self.sum_nanos.fetch_add(nanos.max(1), Ordering::Relaxed);
    }

    /// Total observation count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, in nanoseconds.
    #[must_use]
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }
}

/// One shard's session occupancy at scrape time, split by lifecycle
/// state. Produced by [`crate::SessionManager::census`]; `evicted`
/// counts store records whose id hashes to this shard but which are in
/// memory nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSessions {
    /// Sessions live in memory with a running engine.
    pub live: u64,
    /// Sessions suspended in memory (dormant stub + snapshot on disk).
    pub suspended: u64,
    /// Sessions finished but still held in memory.
    pub finished: u64,
    /// Sessions existing only in the store.
    pub evicted: u64,
}

/// The service-wide metrics registry. One instance is shared by every
/// layer; all mutation is relaxed-atomic and wait-free.
#[derive(Debug)]
pub struct Metrics {
    requests: Vec<[AtomicU64; STATUS_SLOTS]>,
    response_bytes: Vec<AtomicU64>,
    latency: Vec<Histogram>,
    /// Connections currently registered in the reactor slab.
    pub(crate) connections_open: AtomicU64,
    /// High-water mark of the reactor slab length.
    pub(crate) slab_high_water: AtomicU64,
    /// Connections reaped at their keep-alive deadline for idleness.
    pub(crate) timer_reaps: AtomicU64,
    /// Times the reactor's self-pipe waker fired.
    pub(crate) waker_wakeups: AtomicU64,
    /// Payload bytes durably written (counted after `fsync` succeeds).
    pub(crate) store_bytes_written: AtomicU64,
    /// Successful `fsync` calls in the snapshot store.
    pub(crate) store_fsyncs: AtomicU64,
    /// Records quarantined at runtime (corruption found in service).
    pub(crate) store_quarantined: AtomicU64,
    /// Records quarantined by the recovery sweep at store open.
    pub(crate) store_recovery_quarantined: AtomicU64,
    /// Sessions created.
    pub(crate) sessions_created: AtomicU64,
    /// Live sessions suspended to disk.
    pub(crate) sessions_suspended: AtomicU64,
    /// Suspended/evicted sessions rehydrated.
    pub(crate) sessions_resumed: AtomicU64,
    /// Sessions dropped from memory (state persisted first).
    pub(crate) sessions_evicted: AtomicU64,
    /// Sessions that reached a terminal engine state.
    pub(crate) sessions_finished: AtomicU64,
    /// Sessions deleted everywhere.
    pub(crate) sessions_deleted: AtomicU64,
    /// Monitor campaigns re-opened by interval degradation after a
    /// delta batch.
    pub(crate) monitor_campaigns_reopened: AtomicU64,
    /// Monitor ledger labels retired because their triples were
    /// removed.
    pub(crate) monitor_labels_retired: AtomicU64,
    /// Creates refused 429 over quota.
    pub(crate) quota_refusals: AtomicU64,
    /// Requests refused 503 while draining.
    pub(crate) draining_refusals: AtomicU64,
    /// Janitor ticks completed.
    pub(crate) janitor_ticks: AtomicU64,
    /// Idle live sessions the janitor aged to disk.
    pub(crate) janitor_aged_suspended: AtomicU64,
    /// Idle dormant/finished sessions the janitor dropped from memory.
    pub(crate) janitor_aged_evicted: AtomicU64,
    /// Stale temp files the janitor removed.
    pub(crate) janitor_gc_tmp: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh registry with every series at zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            requests: (0..ROUTES.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            response_bytes: (0..ROUTES.len()).map(|_| AtomicU64::new(0)).collect(),
            latency: (0..ROUTES.len()).map(|_| Histogram::default()).collect(),
            connections_open: AtomicU64::new(0),
            slab_high_water: AtomicU64::new(0),
            timer_reaps: AtomicU64::new(0),
            waker_wakeups: AtomicU64::new(0),
            store_bytes_written: AtomicU64::new(0),
            store_fsyncs: AtomicU64::new(0),
            store_quarantined: AtomicU64::new(0),
            store_recovery_quarantined: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            sessions_suspended: AtomicU64::new(0),
            sessions_resumed: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            sessions_finished: AtomicU64::new(0),
            sessions_deleted: AtomicU64::new(0),
            monitor_campaigns_reopened: AtomicU64::new(0),
            monitor_labels_retired: AtomicU64::new(0),
            quota_refusals: AtomicU64::new(0),
            draining_refusals: AtomicU64::new(0),
            janitor_ticks: AtomicU64::new(0),
            janitor_aged_suspended: AtomicU64::new(0),
            janitor_aged_evicted: AtomicU64::new(0),
            janitor_gc_tmp: AtomicU64::new(0),
        }
    }

    /// Records one completed request: counter, latency histogram, and
    /// response-byte counter for its route. Called by the reactor's
    /// worker **after** the response is built, so a `/metrics` scrape
    /// never includes itself.
    pub fn record_request(&self, route: Route, status: u16, nanos: u64, response_bytes: u64) {
        let r = route.index();
        self.requests[r][status_slot(status)].fetch_add(1, Ordering::Relaxed);
        self.response_bytes[r].fetch_add(response_bytes, Ordering::Relaxed);
        self.latency[r].observe_nanos(nanos);
    }

    /// Encodes the registry in the Prometheus text exposition format.
    /// `census` supplies the point-in-time per-shard session gauges
    /// (pass `&[]` to omit them, e.g. in unit tests without a manager);
    /// `kernel` supplies the shared posterior-kernel cache counters
    /// (`None` omits the `kgae_kernel_cache_*` family). The kernel
    /// series are derived from one [`KernelCacheStats`] snapshot, so
    /// `hits + misses == lookups` reconciles exactly in every scrape.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn encode(&self, census: &[ShardSessions], kernel: Option<&KernelCacheStats>) -> String {
        let mut out = String::with_capacity(8 * 1024);
        self.encode_requests(&mut out);
        self.encode_latency(&mut out);
        encode_sessions(&mut out, census);
        if let Some(stats) = kernel {
            encode_kernel_cache(&mut out, stats);
        }
        let counters: [(&str, &str, u64); 23] = [
            (
                "kgae_reactor_connections_open",
                "gauge Connections currently registered in the reactor slab.",
                self.connections_open.load(Ordering::Relaxed),
            ),
            (
                "kgae_reactor_slab_high_water",
                "gauge High-water mark of the reactor connection slab.",
                self.slab_high_water.load(Ordering::Relaxed),
            ),
            (
                "kgae_reactor_timer_reaps_total",
                "counter Idle connections reaped at their keep-alive deadline.",
                self.timer_reaps.load(Ordering::Relaxed),
            ),
            (
                "kgae_reactor_waker_wakeups_total",
                "counter Self-pipe waker firings observed by the event loop.",
                self.waker_wakeups.load(Ordering::Relaxed),
            ),
            (
                "kgae_store_bytes_written_total",
                "counter Payload bytes durably written by the snapshot store.",
                self.store_bytes_written.load(Ordering::Relaxed),
            ),
            (
                "kgae_store_fsyncs_total",
                "counter Successful fsync calls in the snapshot store.",
                self.store_fsyncs.load(Ordering::Relaxed),
            ),
            (
                "kgae_store_quarantined_total",
                "counter Records quarantined at runtime for corruption.",
                self.store_quarantined.load(Ordering::Relaxed),
            ),
            (
                "kgae_store_recovery_quarantined_total",
                "counter Records quarantined by the recovery sweep at open.",
                self.store_recovery_quarantined.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_created_total",
                "counter Sessions created.",
                self.sessions_created.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_suspended_total",
                "counter Live sessions suspended to disk.",
                self.sessions_suspended.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_resumed_total",
                "counter Suspended or evicted sessions rehydrated.",
                self.sessions_resumed.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_evicted_total",
                "counter Sessions dropped from memory with state persisted.",
                self.sessions_evicted.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_finished_total",
                "counter Sessions that reached a terminal engine state.",
                self.sessions_finished.load(Ordering::Relaxed),
            ),
            (
                "kgae_sessions_deleted_total",
                "counter Sessions deleted from memory and store.",
                self.sessions_deleted.load(Ordering::Relaxed),
            ),
            (
                "kgae_monitor_campaigns_reopened_total",
                "counter Monitor campaigns re-opened by interval degradation.",
                self.monitor_campaigns_reopened.load(Ordering::Relaxed),
            ),
            (
                "kgae_monitor_labels_retired_total",
                "counter Monitor ledger labels retired by triple removals.",
                self.monitor_labels_retired.load(Ordering::Relaxed),
            ),
            (
                "kgae_quota_refusals_total",
                "counter Creates refused 429 over a session quota.",
                self.quota_refusals.load(Ordering::Relaxed),
            ),
            (
                "kgae_draining_refusals_total",
                "counter Requests refused 503 while the server drains.",
                self.draining_refusals.load(Ordering::Relaxed),
            ),
            (
                "kgae_faults_injected_total",
                "counter Failpoints that fired (fault-injection builds).",
                crate::fault::injections(),
            ),
            (
                "kgae_janitor_ticks_total",
                "counter Janitor maintenance ticks completed.",
                self.janitor_ticks.load(Ordering::Relaxed),
            ),
            (
                "kgae_janitor_aged_suspended_total",
                "counter Idle live sessions the janitor suspended to disk.",
                self.janitor_aged_suspended.load(Ordering::Relaxed),
            ),
            (
                "kgae_janitor_aged_evicted_total",
                "counter Idle in-memory sessions the janitor evicted.",
                self.janitor_aged_evicted.load(Ordering::Relaxed),
            ),
            (
                "kgae_janitor_gc_files_total",
                "counter Stale temp files removed.",
                self.janitor_gc_tmp.load(Ordering::Relaxed),
            ),
        ];
        for (name, kind_help, value) in counters {
            let (kind, help) = kind_help.split_once(' ').expect("kind help");
            push_header(&mut out, name, kind, help);
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    fn encode_requests(&self, out: &mut String) {
        push_header(
            out,
            "kgae_requests_total",
            "counter",
            "Requests handled, by route and response status.",
        );
        for (r, route) in ROUTES.iter().enumerate() {
            for slot in 0..STATUS_SLOTS {
                let value = self.requests[r][slot].load(Ordering::Relaxed);
                if value == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "kgae_requests_total{{route=\"{}\",status=\"{}\"}} {value}\n",
                    escape_label_value(route.name()),
                    status_label(slot),
                ));
            }
        }
        push_header(
            out,
            "kgae_response_bytes_total",
            "counter",
            "Response body bytes written, by route.",
        );
        for (r, route) in ROUTES.iter().enumerate() {
            let value = self.response_bytes[r].load(Ordering::Relaxed);
            if value == 0 {
                continue;
            }
            out.push_str(&format!(
                "kgae_response_bytes_total{{route=\"{}\"}} {value}\n",
                escape_label_value(route.name()),
            ));
        }
    }

    fn encode_latency(&self, out: &mut String) {
        push_header(
            out,
            "kgae_request_duration_seconds",
            "histogram",
            "Request service time measured in the reactor worker.",
        );
        for (r, route) in ROUTES.iter().enumerate() {
            let hist = &self.latency[r];
            if hist.count() == 0 {
                continue;
            }
            let route = escape_label_value(route.name());
            let mut cumulative = 0u64;
            for (slot, le) in LE_LABELS.iter().enumerate() {
                cumulative += hist.buckets[slot].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "kgae_request_duration_seconds_bucket{{route=\"{route}\",le=\"{le}\"}} \
                     {cumulative}\n",
                ));
            }
            out.push_str(&format!(
                "kgae_request_duration_seconds_sum{{route=\"{route}\"}} {}\n",
                format_seconds(hist.sum_nanos()),
            ));
            out.push_str(&format!(
                "kgae_request_duration_seconds_count{{route=\"{route}\"}} {cumulative}\n",
            ));
        }
    }
}

fn encode_sessions(out: &mut String, census: &[ShardSessions]) {
    push_header(
        out,
        "kgae_sessions",
        "gauge",
        "Sessions by shard and lifecycle state at scrape time.",
    );
    for (shard, counts) in census.iter().enumerate() {
        for (state, value) in [
            ("live", counts.live),
            ("suspended", counts.suspended),
            ("finished", counts.finished),
            ("evicted", counts.evicted),
        ] {
            out.push_str(&format!(
                "kgae_sessions{{shard=\"{shard}\",state=\"{state}\"}} {value}\n",
            ));
        }
    }
}

/// The shared posterior-kernel cache family. All six series come from
/// the same stats snapshot and `lookups` is emitted as `hits + misses`,
/// so the scrape-level reconciliation
/// `hits_total + misses_total == lookups_total` holds exactly — any
/// drift means an encoder bug, not scrape timing.
fn encode_kernel_cache(out: &mut String, stats: &KernelCacheStats) {
    let series: [(&str, &str, u64); 6] = [
        (
            "kgae_kernel_cache_lookups_total",
            "counter Posterior-kernel solves requested (hits + misses).",
            stats.lookups(),
        ),
        (
            "kgae_kernel_cache_hits_total",
            "counter Posterior-kernel solves answered from the memo table.",
            stats.hits,
        ),
        (
            "kgae_kernel_cache_misses_total",
            "counter Posterior-kernel solves that ran the solver.",
            stats.misses,
        ),
        (
            "kgae_kernel_cache_evictions_total",
            "counter Memoized kernel entries dropped by shard-clearing evictions.",
            stats.evictions,
        ),
        (
            "kgae_kernel_cache_insertions_total",
            "counter Kernel entries inserted into the memo table.",
            stats.insertions,
        ),
        (
            "kgae_kernel_cache_entries",
            "gauge Kernel entries resident at scrape time.",
            stats.entries,
        ),
    ];
    for (name, kind_help, value) in series {
        let (kind, help) = kind_help.split_once(' ').expect("kind help");
        push_header(out, name, kind, help);
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
}

fn push_header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!(
        "# HELP {name} {}\n# TYPE {name} {kind}\n",
        escape_help(help)
    ));
}

/// Nanoseconds → decimal seconds with nine fractional digits, without
/// a trip through floating point (keeps the encoding exact and stable).
fn format_seconds(nanos: u64) -> String {
    let mut s = format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes HELP text: backslash and newline (quotes are legal there).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Structured request logs
// ---------------------------------------------------------------------

/// Output shape of the request log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFormat {
    /// One JSON object per line (machine-readable).
    Json,
    /// One human-readable line.
    Text,
}

impl LogFormat {
    /// Parses `"json"` / `"text"`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "json" => Some(LogFormat::Json),
            "text" => Some(LogFormat::Text),
            _ => None,
        }
    }
}

/// Log verbosity floor. A request line's own level derives from its
/// status: 5xx → `error`, 4xx → `warn`, everything else → `info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// No request lines at all.
    Off,
    /// Only 5xx responses.
    Error,
    /// 4xx and 5xx responses.
    Warn,
    /// Every request.
    Info,
}

impl LogLevel {
    /// Parses `"off"` / `"error"` / `"warn"` / `"info"`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            _ => None,
        }
    }

    fn of_status(status: u16) -> Self {
        match status {
            500.. => LogLevel::Error,
            400..=499 => LogLevel::Warn,
            _ => LogLevel::Info,
        }
    }

    fn name(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
        }
    }
}

/// One request's log record.
#[derive(Debug, Clone)]
pub struct LogEntry<'a> {
    /// Milliseconds since the Unix epoch.
    pub unix_millis: u64,
    /// Route class name (see [`Route::name`]).
    pub route: &'a str,
    /// Tenant, when the request names one (session creates).
    pub tenant: Option<&'a str>,
    /// Session id, when the path names one.
    pub session: Option<&'a str>,
    /// Response status.
    pub status: u16,
    /// Response body bytes.
    pub bytes: u64,
    /// Service time in microseconds.
    pub micros: u64,
    /// Executing worker's id.
    pub worker: usize,
}

/// A per-request structured log writing one line per request to
/// stderr. Construction picks format and level once; emission is a
/// single buffered write, atomic per line.
#[derive(Debug)]
pub struct RequestLog {
    format: LogFormat,
    level: LogLevel,
}

impl RequestLog {
    /// A log with the given shape and verbosity floor.
    #[must_use]
    pub fn new(format: LogFormat, level: LogLevel) -> Self {
        Self { format, level }
    }

    /// Whether a request with this status would emit a line — callers
    /// use it to skip building the entry entirely.
    #[must_use]
    pub fn would_log(&self, status: u16) -> bool {
        self.level != LogLevel::Off && LogLevel::of_status(status) <= self.level
    }

    /// Emits one line for `entry` if its level clears the floor.
    pub fn record(&self, entry: &LogEntry<'_>) {
        if !self.would_log(entry.status) {
            return;
        }
        eprintln!("{}", render_entry(entry, self.format));
    }
}

/// Renders a log entry in the given format (the pure core of
/// [`RequestLog::record`], pinned by unit tests).
#[must_use]
pub fn render_entry(entry: &LogEntry<'_>, format: LogFormat) -> String {
    let ts = iso8601_millis(entry.unix_millis);
    let level = LogLevel::of_status(entry.status);
    match format {
        LogFormat::Json => Json::obj(vec![
            ("ts", Json::Str(ts)),
            ("level", Json::str(level.name())),
            ("route", Json::str(entry.route)),
            ("tenant", entry.tenant.map_or(Json::Null, Json::str)),
            ("session", entry.session.map_or(Json::Null, Json::str)),
            ("status", Json::int(u64::from(entry.status))),
            ("bytes", Json::int(entry.bytes)),
            ("micros", Json::int(entry.micros)),
            ("worker", Json::int(entry.worker as u64)),
        ])
        .encode(),
        LogFormat::Text => format!(
            "{ts} {} {} session={} tenant={} status={} bytes={} micros={} worker={}",
            level.name().to_uppercase(),
            entry.route,
            entry.session.unwrap_or("-"),
            entry.tenant.unwrap_or("-"),
            entry.status,
            entry.bytes,
            entry.micros,
            entry.worker,
        ),
    }
}

/// Milliseconds since the Unix epoch, now.
#[must_use]
pub fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Proleptic-Gregorian civil date from days since 1970-01-01
/// (Hinnant's `civil_from_days`, std has no calendar).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    (if m <= 2 { y + 1 } else { y }, m as u32, d as u32)
}

/// `2026-08-08T12:34:56.789Z`-style UTC timestamp from epoch millis.
#[must_use]
pub fn iso8601_millis(unix_millis: u64) -> String {
    let secs = (unix_millis / 1_000) as i64;
    let millis = unix_millis % 1_000;
    let (year, month, day) = civil_from_days(secs.div_euclid(86_400));
    let tod = secs.rem_euclid(86_400);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3_600,
        (tod / 60) % 60,
        tod % 60,
    )
}

/// A small, stable id for the calling worker thread, assigned on first
/// use — log lines carry it so one worker's requests can be followed.
#[must_use]
pub fn worker_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_names_the_route_and_the_session() {
        for (method, path, expect) in [
            ("GET", "/healthz", Route::Healthz),
            ("GET", "/metrics", Route::Metrics),
            ("GET", "/v1/datasets", Route::Datasets),
            ("GET", "/v1/sessions", Route::SessionsList),
            ("POST", "/v1/sessions", Route::SessionCreate),
            ("GET", "/v1/sessions/abc", Route::SessionStatus),
            ("DELETE", "/v1/sessions/abc", Route::SessionDelete),
            ("POST", "/v1/sessions/abc/next", Route::Next),
            ("POST", "/v1/sessions/abc/labels", Route::Labels),
            ("POST", "/v1/sessions/abc/suspend", Route::Suspend),
            ("POST", "/v1/sessions/abc/resume", Route::Resume),
            ("POST", "/v1/sessions/abc/evict", Route::Evict),
            ("GET", "/v1/sessions/abc/snapshot", Route::Snapshot),
            ("POST", "/v1/sessions/abc/deltas", Route::Deltas),
            ("GET", "/v1/sessions/abc/deltas", Route::Other),
            ("POST", "/healthz", Route::Other),
            ("GET", "/v1/sessions/abc/nope", Route::Other),
            ("PUT", "/v1/sessions", Route::Other),
        ] {
            let id = path.strip_prefix("/v1/sessions/").map(|rest| &rest[..3]);
            assert_eq!(
                Route::classify(method, path),
                (expect, id),
                "{method} {path}"
            );
        }
    }

    #[test]
    fn text_grammar_help_type_and_series_lines() {
        let metrics = Metrics::new();
        metrics.record_request(Route::Healthz, 200, 1_500, 64);
        metrics.record_request(Route::Healthz, 200, 700_000, 64);
        metrics.record_request(Route::SessionCreate, 429, 9_000, 80);
        let census = [ShardSessions {
            live: 2,
            suspended: 1,
            finished: 0,
            evicted: 3,
        }];
        let kernel = kgae_intervals::KernelCacheStats {
            hits: 7,
            misses: 3,
            evictions: 1,
            insertions: 3,
            entries: 2,
        };
        let text = metrics.encode(&census, Some(&kernel));
        // Every series line's family has HELP and TYPE lines, in that
        // order, before the first sample.
        let mut seen_families: Vec<&str> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split(' ').next().unwrap();
                assert!(!seen_families.contains(&family), "duplicate HELP {family}");
                seen_families.push(family);
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap();
                assert_eq!(
                    seen_families.last(),
                    Some(&family),
                    "TYPE must follow its HELP"
                );
                let kind = parts.next().unwrap();
                assert!(["counter", "gauge", "histogram"].contains(&kind), "{kind}");
            } else {
                assert!(!line.is_empty(), "no blank lines in the exposition");
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                let family = series.split('{').next().unwrap();
                let base = family
                    .strip_suffix("_bucket")
                    .or_else(|| family.strip_suffix("_sum"))
                    .or_else(|| family.strip_suffix("_count"))
                    .filter(|base| seen_families.contains(base))
                    .unwrap_or(family);
                assert!(seen_families.contains(&base), "sample before HELP: {line}");
                value.parse::<f64>().expect("numeric value");
            }
        }
        assert!(text.contains("kgae_requests_total{route=\"healthz\",status=\"200\"} 2\n"));
        assert!(text.contains("kgae_requests_total{route=\"session_create\",status=\"429\"} 1\n"));
        assert!(text.contains("kgae_sessions{shard=\"0\",state=\"live\"} 2\n"));
        assert!(text.contains("kgae_sessions{shard=\"0\",state=\"evicted\"} 3\n"));
        // The kernel-cache families are present and the lookup counter is
        // derived as hits + misses, so the exposition reconciles exactly.
        assert!(text.contains("kgae_kernel_cache_lookups_total 10\n"));
        assert!(text.contains("kgae_kernel_cache_hits_total 7\n"));
        assert!(text.contains("kgae_kernel_cache_misses_total 3\n"));
        assert!(text.contains("kgae_kernel_cache_evictions_total 1\n"));
        assert!(text.contains("kgae_kernel_cache_insertions_total 3\n"));
        assert!(text.contains("kgae_kernel_cache_entries 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches_inf() {
        let metrics = Metrics::new();
        // 1.5µs, 700µs, and one past the last bound (300ms).
        metrics.record_request(Route::Next, 200, 1_500, 10);
        metrics.record_request(Route::Next, 200, 700_000_000, 10);
        metrics.record_request(Route::Next, 200, 300_000_000, 10);
        let text = metrics.encode(&[], None);
        let mut last = 0u64;
        let mut inf = None;
        let mut count = None;
        for line in text.lines() {
            if line.starts_with("kgae_request_duration_seconds_bucket{route=\"next\"") {
                let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(value >= last, "buckets must be cumulative: {line}");
                last = value;
                if line.contains("le=\"+Inf\"") {
                    inf = Some(value);
                }
            }
            if line.starts_with("kgae_request_duration_seconds_count{route=\"next\"") {
                count = Some(line.rsplit(' ').next().unwrap().parse::<u64>().unwrap());
            }
        }
        assert_eq!(inf, Some(3), "+Inf bucket holds every observation");
        assert_eq!(count, inf, "_count equals the +Inf bucket");
        // Sum is encoded in seconds from a nanosecond accumulator.
        assert!(
            text.contains("kgae_request_duration_seconds_sum{route=\"next\"} 1.0000015\n"),
            "{text}"
        );
    }

    #[test]
    fn sub_microsecond_observations_still_move_the_sum() {
        let hist = Histogram::default();
        hist.observe_nanos(0);
        assert_eq!(hist.count(), 1);
        assert!(hist.sum_nanos() >= 1, "zero-duration requests still count");
    }

    #[test]
    fn label_escaping_is_pinned() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(
            escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote, newline"
        );
        assert_eq!(escape_help("x\\y\nz\"q"), "x\\\\y\\nz\"q");
    }

    #[test]
    fn format_seconds_is_exact_decimal() {
        assert_eq!(format_seconds(0), "0.0");
        assert_eq!(format_seconds(1), "0.000000001");
        assert_eq!(format_seconds(1_500), "0.0000015");
        assert_eq!(format_seconds(2_000_000_000), "2.0");
        assert_eq!(format_seconds(1_234_567_890), "1.23456789");
    }

    #[test]
    fn log_lines_render_both_formats() {
        let entry = LogEntry {
            unix_millis: 1_754_611_200_123, // 2025-08-08T00:00:00.123Z
            route: "next",
            tenant: Some("acme"),
            session: Some("s-1"),
            status: 200,
            bytes: 512,
            micros: 830,
            worker: 3,
        };
        let json = render_entry(&entry, LogFormat::Json);
        let doc = crate::json::parse(&json).expect("log line parses as JSON");
        assert_eq!(doc.get("route").and_then(Json::as_str), Some("next"));
        assert_eq!(doc.get("status").and_then(Json::as_u64), Some(200));
        assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("acme"));
        assert_eq!(
            doc.get("ts").and_then(Json::as_str),
            Some("2025-08-08T00:00:00.123Z")
        );
        let text = render_entry(&entry, LogFormat::Text);
        assert!(
            text.starts_with("2025-08-08T00:00:00.123Z INFO next "),
            "{text}"
        );
        assert!(text.contains("status=200"), "{text}");
        // 4xx renders at warn, 5xx at error.
        let warn = render_entry(
            &LogEntry {
                status: 404,
                tenant: None,
                session: None,
                ..entry.clone()
            },
            LogFormat::Text,
        );
        assert!(warn.contains(" WARN "), "{warn}");
        assert!(warn.contains("session=- tenant=-"), "{warn}");
    }

    #[test]
    fn level_floor_filters_by_status() {
        let info = RequestLog::new(LogFormat::Json, LogLevel::Info);
        let warn = RequestLog::new(LogFormat::Json, LogLevel::Warn);
        let error = RequestLog::new(LogFormat::Json, LogLevel::Error);
        let off = RequestLog::new(LogFormat::Json, LogLevel::Off);
        for status in [200, 201] {
            assert!(info.would_log(status));
            assert!(!warn.would_log(status));
        }
        for status in [404, 429] {
            assert!(info.would_log(status) && warn.would_log(status));
            assert!(!error.would_log(status));
        }
        assert!(error.would_log(500));
        for status in [200, 404, 500] {
            assert!(!off.would_log(status));
        }
    }

    #[test]
    fn iso8601_handles_epoch_and_leap_years() {
        assert_eq!(iso8601_millis(0), "1970-01-01T00:00:00.000Z");
        // 2024-02-29T12:00:00Z — a leap day.
        assert_eq!(
            iso8601_millis(1_709_208_000_000),
            "2024-02-29T12:00:00.000Z"
        );
    }
}
