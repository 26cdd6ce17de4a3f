//! # kgae-client
//!
//! The annotator's side of the session service: a typed, keep-alive
//! HTTP/JSON client for every `kgae-serve` endpoint. One [`Client`]
//! owns one connection and pipelines request → response cycles on it,
//! transparently reconnecting once when the server reclaims an idle
//! connection — the calling pattern of a long-running annotation
//! worker.
//!
//! Attach a [`RetryPolicy`] ([`Client::with_retry`]) and transient
//! failures — dropped connections, lost responses, and the server's
//! own 429/503 backpressure answers — are retried on a capped
//! exponential backoff with seeded jitter, honoring any `Retry-After`
//! the server sends. Label submission stays exactly-once throughout:
//! its fencing seq means a replay either lands once or is refused as
//! stale, and the stale refusal after a lost response is itself proof
//! the labels landed.
//!
//! ```no_run
//! use kgae_client::Client;
//! use kgae_service::api::SessionSpec;
//!
//! let mut client = Client::connect("127.0.0.1:7707").unwrap();
//! let spec = SessionSpec::from_json(
//!     &kgae_service::json::parse(
//!         r#"{"id":"c1","dataset":"nell","design":"srs","method":"ahpd","seed":7}"#,
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//! client.create(&spec).unwrap();
//! loop {
//!     let batch = client.next_request("c1", 16).unwrap();
//!     if batch.done {
//!         break;
//!     }
//!     let labels = vec![true; batch.triples.len()]; // annotate...
//!     client.submit("c1", &labels).unwrap();
//! }
//! ```
//!
//! The whole stack also runs in-process, which is how the doctests and
//! smoke tests exercise real TCP without an external server:
//!
//! ```
//! use kgae_client::Client;
//! use kgae_service::{DatasetRegistry, Server, SessionManager, SnapshotStore};
//!
//! let registry = DatasetRegistry::standard();
//! let dir = std::env::temp_dir().join(format!("kgae-doc-client-{}", std::process::id()));
//! let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
//! let server = Server::bind("127.0.0.1:0", 2).unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.handle().unwrap();
//! std::thread::scope(|scope| {
//!     scope.spawn(|| server.run(&manager));
//!     let mut client = Client::connect(addr).unwrap();
//!     let health = client.health_info().unwrap();
//!     assert!(health.ok && health.name == "kgae-serve");
//!     assert_eq!(client.datasets().unwrap().len(), 5);
//!     handle.shutdown();
//! });
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use kgae_core::{
    DeltaBatch, DeltaOutcome, MethodReport, MonitorReport, SessionStatus, StratumReport,
};
use kgae_service::api::{self, SessionSpec, WireRequest};
use kgae_service::http;
use kgae_service::json::{self, Json};
use kgae_service::manager::SessionState;
use kgae_service::store::from_hex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, read, write).
    Io(std::io::Error),
    /// The server answered with an error status; the payload is the
    /// decoded `error` message (or raw body).
    Api {
        /// HTTP status code.
        status: u16,
        /// The server's error message.
        message: String,
        /// The machine-readable `code` field of the error body
        /// (e.g. `"stale_request"`, `"quota_exceeded"`), when present.
        code: Option<String>,
        /// The `Retry-After` header in seconds, when the server sent
        /// one (429 quota and 503 drain refusals do).
        retry_after: Option<u64>,
    },
    /// The response body did not decode as the expected shape.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Api {
                status,
                message,
                code: Some(code),
                ..
            } => write!(f, "server ({status} {code}): {message}"),
            ClientError::Api {
                status, message, ..
            } => write!(f, "server ({status}): {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Outcome type of every client call.
pub type ClientResult<T> = Result<T, ClientError>;

/// Retry schedule for transient failures: capped exponential backoff
/// with deterministic seeded jitter and an overall wall-clock deadline.
///
/// Attach one with [`Client::with_retry`]. Idempotent calls — polls,
/// status reads, suspend/resume/evict, create/delete — then retry
/// transparently on transport failures and on the server's explicit
/// 429/503 backpressure answers; label submission replays only under
/// the protection of its fencing seq (see [`Client::submit`]). When a
/// refusal names its own pause via a `Retry-After` header, that value
/// replaces the computed backoff for the step.
///
/// The jitter stream is seeded, so a given `(policy, failure sequence)`
/// pair reproduces the same pauses run after run — retry timing stays
/// out of the nondeterminism budget of crash tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1: a value of 1
    /// means "never retry").
    pub max_attempts: u32,
    /// Pause before the first retry; doubles on each further retry.
    pub base_delay: Duration,
    /// Ceiling on any single computed pause (a server `Retry-After`
    /// is honored even beyond it — the server knows its own drain).
    pub max_delay: Duration,
    /// Wall-clock budget across all attempts; once a pause would cross
    /// it, the last error is returned even if attempts remain.
    pub deadline: Duration,
    /// Seed of the jitter stream — same seed, same schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            deadline: Duration::from_secs(60),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A near-immediate schedule for tests and local tooling: retries
    /// land within milliseconds instead of pacing a production queue.
    #[must_use]
    pub fn aggressive() -> Self {
        Self {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            deadline: Duration::from_secs(10),
            jitter_seed: 0,
        }
    }

    /// The pause before retry number `retry` (0-based). A server
    /// `Retry-After` wins outright; otherwise the backoff doubles from
    /// [`base_delay`](Self::base_delay), caps at
    /// [`max_delay`](Self::max_delay), and jitters uniformly into the
    /// upper half of the capped value so synchronized clients spread
    /// out instead of stampeding a restarting server.
    fn pause(&self, retry: u32, retry_after: Option<u64>, jitter: &mut SmallRng) -> Duration {
        if let Some(secs) = retry_after {
            return Duration::from_secs(secs);
        }
        let capped = self
            .base_delay
            .saturating_mul(1u32 << retry.min(20))
            .min(self.max_delay);
        let half = capped.div_f64(2.0);
        half + half.mul_f64(jitter.next_f64())
    }
}

/// A session's wire-level view, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionInfo {
    /// Session id.
    pub id: String,
    /// Dataset name.
    pub dataset: String,
    /// Canonical design name.
    pub design: String,
    /// Canonical method name.
    pub method: String,
    /// Lifecycle state.
    pub state: SessionState,
    /// Labels currently owed on an outstanding request.
    pub pending_labels: u64,
    /// Fencing seq of the outstanding request, echoed on submit.
    pub pending_seq: Option<u64>,
    /// The engine status (the pooled view for stratified sessions, the
    /// primary method's for comparative ones).
    pub status: SessionStatus,
    /// Per-stratum rows (stratified sessions only).
    pub strata: Option<Vec<StratumReport>>,
    /// Per-method rows (comparative sessions only).
    pub methods: Option<Vec<MethodReport>>,
    /// Monitoring report — epoch, drift rows, alarms (monitor sessions
    /// only; the poll/submit hot-path views omit it).
    pub monitor: Option<MonitorReport>,
    /// Snapshot size on disk, for suspended/evicted sessions.
    pub snapshot_bytes: Option<u64>,
}

fn info_from_json(v: &Json) -> ClientResult<SessionInfo> {
    let field = |key: &str| -> ClientResult<String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol(format!("missing field {key:?}")))
    };
    let state = SessionState::from_name(&field("state")?)
        .ok_or_else(|| ClientError::Protocol("unknown session state".into()))?;
    let status = api::status_from_json(
        v.get("status")
            .ok_or_else(|| ClientError::Protocol("missing field \"status\"".into()))?,
    )
    .map_err(|e| ClientError::Protocol(e.to_string()))?;
    let snapshot_bytes = match v.get("snapshot_bytes") {
        None | Some(Json::Null) => None,
        Some(field) => Some(
            field
                .as_u64()
                .ok_or_else(|| ClientError::Protocol("non-integer snapshot_bytes".into()))?,
        ),
    };
    let strata = match v.get("strata") {
        None | Some(Json::Null) => None,
        Some(field) => {
            Some(api::strata_from_json(field).map_err(|e| ClientError::Protocol(e.to_string()))?)
        }
    };
    let methods = match v.get("methods") {
        None | Some(Json::Null) => None,
        Some(field) => {
            Some(api::methods_from_json(field).map_err(|e| ClientError::Protocol(e.to_string()))?)
        }
    };
    let monitor = match v.get("monitor") {
        None | Some(Json::Null) => None,
        Some(field) => Some(
            api::monitor_report_from_json(field)
                .map_err(|e| ClientError::Protocol(e.to_string()))?,
        ),
    };
    Ok(SessionInfo {
        id: field("id")?,
        dataset: field("dataset")?,
        design: field("design")?,
        method: field("method")?,
        state,
        pending_labels: v.get("pending_labels").and_then(Json::as_u64).unwrap_or(0),
        pending_seq: match v.get("pending_seq") {
            None | Some(Json::Null) => None,
            Some(field) => field.as_u64(),
        },
        status,
        strata,
        methods,
        monitor,
        snapshot_bytes,
    })
}

/// Build info the server reports on `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthInfo {
    /// Liveness flag.
    pub ok: bool,
    /// Server name (`"kgae-serve"`).
    pub name: String,
    /// Server semantic version.
    pub version: String,
}

/// A hosted dataset's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Registry name.
    pub name: String,
    /// Triple count.
    pub triples: u64,
    /// Cluster count.
    pub clusters: u64,
}

/// A typed connection to one `kgae-serve` instance.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
    timeout: Duration,
    /// Fencing seq of the last poll per session, attached to submits so
    /// the server can reject labels for a superseded batch.
    last_seq: std::collections::HashMap<String, u64>,
    /// When the connection last completed a request/response cycle;
    /// connections older than the server's idle budget are refreshed
    /// proactively so non-retryable calls never race the reclaim.
    last_used: std::time::Instant,
    /// Optional schedule for retrying transient failures; `None` keeps
    /// the bare single-reconnect behavior.
    retry: Option<RetryPolicy>,
    /// Jitter stream backing [`RetryPolicy::pause`].
    jitter: SmallRng,
    /// Requests this client has successfully written to the server,
    /// counting every retry and reconnect replay separately — the
    /// client-side truth a `/metrics` scrape must reconcile with.
    requests_sent: u64,
}

/// How long the server keeps an idle keep-alive connection
/// (`kgae_service::server::IDLE_TIMEOUT`), minus safety margin. A
/// connection idle longer than this is rebuilt before the next call
/// rather than risking a write to a reclaimed socket — which matters
/// most for label submission, the one call that is not blindly
/// retried.
const CONNECTION_REFRESH_AFTER: Duration = Duration::from_secs(25);

impl Client {
    /// Connects to the server at `addr` (e.g. `"127.0.0.1:7707"`).
    ///
    /// # Errors
    ///
    /// Resolution/connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolved to nothing".into()))?;
        let mut client = Self {
            addr,
            reader: None,
            timeout: Duration::from_secs(30),
            last_seq: std::collections::HashMap::new(),
            last_used: std::time::Instant::now(),
            retry: None,
            jitter: SmallRng::seed_from_u64(0),
            requests_sent: 0,
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Attaches a retry schedule (builder-style); see [`RetryPolicy`]
    /// for what becomes retryable. Resets the jitter stream to the
    /// policy's seed.
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.jitter = SmallRng::seed_from_u64(policy.jitter_seed);
        self.retry = Some(policy);
        self
    }

    fn reconnect(&mut self) -> ClientResult<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        self.reader = Some(BufReader::new(stream));
        Ok(())
    }

    /// One request/response cycle under the retry policy, when one is
    /// attached. Transport failures that provably never reached the
    /// server always retry; lost responses retry only when `retry_read`
    /// says re-execution is safe; 429/503 refusals retry honoring the
    /// server's `Retry-After`. Without a policy this is exactly one
    /// [`Client::call_once`].
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        retry_read: bool,
    ) -> ClientResult<Json> {
        let Some(policy) = self.retry.clone() else {
            return self
                .call_once(method, path, body, retry_read)
                .map_err(|(e, _)| e);
        };
        let started = std::time::Instant::now();
        let mut retry = 0u32;
        loop {
            let (err, ambiguous) = match self.call_once(method, path, body, retry_read) {
                Ok(doc) => return Ok(doc),
                Err(pair) => pair,
            };
            let (retryable, retry_after) = match &err {
                // Never reached the server: always safe to re-send.
                ClientError::Io(_) if !ambiguous => (true, None),
                // Lost response: re-send only if re-execution is safe.
                ClientError::Io(_) | ClientError::Protocol(_) => (ambiguous && retry_read, None),
                // Explicit "try again later" from the server.
                ClientError::Api {
                    status,
                    retry_after,
                    ..
                } => (matches!(*status, 429 | 503), *retry_after),
            };
            if !retryable || retry + 1 >= policy.max_attempts {
                return Err(err);
            }
            let pause = policy.pause(retry, retry_after, &mut self.jitter);
            if started.elapsed() + pause >= policy.deadline {
                return Err(err);
            }
            std::thread::sleep(pause);
            retry += 1;
        }
    }

    /// One request/response cycle with a single reconnect-and-retry on
    /// stale keep-alive connections. The error carries an *ambiguity*
    /// flag: `true` means the request may have executed server-side and
    /// only the response was lost.
    ///
    /// A failed **write** never reached the server, so every call may
    /// retry it. A failed **read** is ambiguous — the server may have
    /// executed the request and only the response was lost — so the
    /// retry is taken only when `retry_read` says re-execution is safe.
    /// Every endpoint here is safe except label submission: polls
    /// re-serve the identical outstanding batch, suspend/resume/evict
    /// are idempotent, create/delete replays fail with distinguishable
    /// 409/404s — but a blindly replayed submit would double-apply
    /// labels ([`Client::submit`] replays only under its fencing seq).
    fn call_once(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        retry_read: bool,
    ) -> Result<Json, (ClientError, bool)> {
        let response = self.transport_once(method, path, body, retry_read)?;
        // A response arrived, so the request executed; decode failures
        // are not ambiguous.
        Self::decode(&response).map_err(|e| (e, false))
    }

    /// The transport half of [`Client::call_once`]: writes the request
    /// (rebuilding a stale keep-alive connection once) and reads the
    /// raw response without interpreting its body.
    fn transport_once(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        retry_read: bool,
    ) -> Result<http::Response, (ClientError, bool)> {
        if self.last_used.elapsed() >= CONNECTION_REFRESH_AFTER {
            // The server has likely reclaimed this idle connection;
            // rebuild it up front instead of discovering mid-call.
            self.reader = None;
        }
        for attempt in 0..2 {
            if self.reader.is_none() {
                self.reconnect().map_err(|e| (e, false))?;
            }
            let reader = self.reader.as_mut().expect("connected");
            if let Err(e) = http::write_request(reader.get_mut(), method, path, body) {
                self.reader = None;
                if attempt == 0 {
                    continue; // never reached the server: always retryable
                }
                return Err((ClientError::Io(e), false));
            }
            // The full request reached the kernel: whether or not a
            // response comes back, the server may execute it — this is
            // the client-side sent count scrapes reconcile against.
            self.requests_sent += 1;
            match http::read_response(reader) {
                Ok(response) => {
                    if !response.keep_alive {
                        self.reader = None;
                    }
                    self.last_used = std::time::Instant::now();
                    return Ok(response);
                }
                Err(
                    http::HttpError::Closed | http::HttpError::Io(_) | http::HttpError::IdleTimeout,
                ) if attempt == 0 && retry_read => {
                    // Stale connection: rebuild and retry once.
                    self.reader = None;
                }
                Err(http::HttpError::Closed) => {
                    self.reader = None;
                    return Err((
                        ClientError::Protocol(
                            "connection lost before the response; the request may or may not \
                             have been executed"
                                .into(),
                        ),
                        true,
                    ));
                }
                Err(http::HttpError::Io(e)) => {
                    self.reader = None;
                    return Err((ClientError::Io(e), true));
                }
                Err(e) => {
                    // Torn or over-limit response bytes: the request was
                    // written, so this is just as ambiguous as a close.
                    self.reader = None;
                    return Err((ClientError::Protocol(e.to_string()), true));
                }
            }
        }
        unreachable!("second attempt returns")
    }

    fn decode(response: &http::Response) -> ClientResult<Json> {
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
        let doc = json::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if (200..300).contains(&response.status) {
            return Ok(doc);
        }
        let message = doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or(text)
            .to_string();
        Err(ClientError::Api {
            status: response.status,
            message,
            code: doc.get("code").and_then(Json::as_str).map(str::to_string),
            retry_after: response.retry_after,
        })
    }

    /// How many requests this client has successfully written to the
    /// server, counting every retry and reconnect replay separately.
    /// This is the client-side ground truth the server's
    /// `kgae_requests_total` counters reconcile against (a request
    /// whose response was lost is still counted — the server may have
    /// executed it).
    #[must_use]
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// `GET /metrics`, parsed: every sample line of the Prometheus
    /// text exposition as a `series name (with labels) → value` map.
    /// `# HELP`/`# TYPE` comment lines are skipped; histogram buckets,
    /// sums and counts appear as ordinary series (e.g.
    /// `kgae_request_duration_seconds_count{route="next"}`).
    ///
    /// # Errors
    ///
    /// Transport failures, an API error (404 when the server runs with
    /// `--metrics off`), or an unparsable exposition.
    pub fn metrics(&mut self) -> ClientResult<std::collections::BTreeMap<String, f64>> {
        let response = self
            .transport_once("GET", "/metrics", "", true)
            .map_err(|(e, _)| e)?;
        if !(200..300).contains(&response.status) {
            // Error bodies are the ordinary JSON shape.
            return match Self::decode(&response) {
                Err(e) => Err(e),
                Ok(_) => Err(ClientError::Protocol(format!(
                    "metrics scrape failed with status {}",
                    response.status
                ))),
            };
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| ClientError::Protocol("non-UTF-8 metrics body".into()))?;
        let mut series = std::collections::BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // `name{labels} value` — the value never contains a space,
            // label values may, so split at the *last* space.
            let (name, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| ClientError::Protocol(format!("unparsable metric line {line:?}")))?;
            let value: f64 = value
                .parse()
                .map_err(|_| ClientError::Protocol(format!("non-numeric sample {line:?}")))?;
            series.insert(name.to_string(), value);
        }
        Ok(series)
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Transport/API failures.
    pub fn health(&mut self) -> ClientResult<()> {
        self.call("GET", "/healthz", "", true).map(|_| ())
    }

    /// `GET /healthz`, decoded: liveness plus the server's build info
    /// (name and version) — what deployment probes assert against.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn health_info(&mut self) -> ClientResult<HealthInfo> {
        let doc = self.call("GET", "/healthz", "", true)?;
        let field = |key: &str| -> ClientResult<String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ClientError::Protocol(format!("healthz missing {key:?}")))
        };
        Ok(HealthInfo {
            ok: doc.get("ok").and_then(Json::as_bool).unwrap_or(false),
            name: field("name")?,
            version: field("version")?,
        })
    }

    /// `GET /v1/datasets`.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn datasets(&mut self) -> ClientResult<Vec<DatasetInfo>> {
        let doc = self.call("GET", "/v1/datasets", "", true)?;
        doc.get("datasets")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("missing datasets array".into()))?
            .iter()
            .map(|d| {
                Ok(DatasetInfo {
                    name: d
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ClientError::Protocol("dataset without a name".into()))?
                        .to_string(),
                    triples: d.get("triples").and_then(Json::as_u64).unwrap_or(0),
                    clusters: d.get("clusters").and_then(Json::as_u64).unwrap_or(0),
                })
            })
            .collect()
    }

    /// `POST /v1/sessions` — creates a session.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn create(&mut self, spec: &SessionSpec) -> ClientResult<SessionInfo> {
        let body = spec.to_json().encode();
        let doc = self.call("POST", "/v1/sessions", &body, true)?;
        info_from_json(&doc)
    }

    /// `GET /v1/sessions/{id}` — the session's current view.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn status(&mut self, id: &str) -> ClientResult<SessionInfo> {
        let doc = self.call("GET", &format!("/v1/sessions/{id}"), "", true)?;
        info_from_json(&doc)
    }

    /// `GET /v1/sessions` — every session the server knows.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn sessions(&mut self) -> ClientResult<Vec<SessionInfo>> {
        let doc = self.call("GET", "/v1/sessions", "", true)?;
        doc.get("sessions")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("missing sessions array".into()))?
            .iter()
            .map(info_from_json)
            .collect()
    }

    /// `POST /v1/sessions/{id}/next` — polls for the next annotation
    /// batch (`done: true` once the session stopped).
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn next_request(&mut self, id: &str, batch: u64) -> ClientResult<WireRequest> {
        let body = Json::obj(vec![("batch", Json::int(batch))]).encode();
        let doc = self.call("POST", &format!("/v1/sessions/{id}/next"), &body, true)?;
        let request =
            api::request_from_json(&doc).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match request.seq {
            Some(seq) => {
                self.last_seq.insert(id.to_string(), seq);
            }
            None => {
                self.last_seq.remove(id);
            }
        }
        Ok(request)
    }

    /// `POST /v1/sessions/{id}/labels` — submits labels in request
    /// order, fenced with the seq of this client's last poll so stale
    /// labels can never land on a newer batch.
    ///
    /// Without a [`RetryPolicy`] this is the one call that is **not**
    /// retried when the response is lost (a blind replay would
    /// double-apply); on a transport error, check [`Client::status`] to
    /// see whether the labels landed. With a policy attached the fence
    /// makes the retry safe: a replayed submit either lands exactly
    /// once (the lost attempt never executed) or is refused with 409
    /// `stale_request` (it did execute) — and that refusal, arriving
    /// after a lost response, is resolved here by fetching the session
    /// view and returning it as success. Unfenced submits (no prior
    /// poll on this client) still refuse to replay an ambiguous loss.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn submit(&mut self, id: &str, labels: &[bool]) -> ClientResult<SessionInfo> {
        let mut pairs = vec![(
            "labels",
            Json::Arr(labels.iter().map(|&l| Json::Bool(l)).collect()),
        )];
        let seq = self.last_seq.get(id).copied();
        if let Some(seq) = seq {
            pairs.push(("seq", Json::int(seq)));
        }
        let body = Json::obj(pairs).encode();
        let path = format!("/v1/sessions/{id}/labels");
        let Some(policy) = self.retry.clone() else {
            // The one non-retryable read: a replayed submit could
            // double-apply, and without a policy nothing arbitrates.
            let doc = self
                .call_once("POST", &path, &body, false)
                .map_err(|(e, _)| e)?;
            return info_from_json(&doc);
        };
        let started = std::time::Instant::now();
        let mut retry = 0u32;
        // Set once a response was lost after the request may have
        // executed; from then on a stale-fence refusal is proof the
        // lost attempt landed, not a caller bug.
        let mut replayed_after_loss = false;
        loop {
            let (err, ambiguous) = match self.call_once("POST", &path, &body, false) {
                Ok(doc) => return info_from_json(&doc),
                Err(pair) => pair,
            };
            if replayed_after_loss {
                if let ClientError::Api {
                    status: 409,
                    code: Some(code),
                    ..
                } = &err
                {
                    if code == "stale_request" {
                        // The fence is stale because the lost submit
                        // landed; report where the session stands now.
                        return self.status(id);
                    }
                }
            }
            let (retryable, retry_after) = match &err {
                // Never reached the server: always safe to re-send.
                ClientError::Io(_) if !ambiguous => (true, None),
                // Lost response: replay only under a fence.
                ClientError::Io(_) | ClientError::Protocol(_) => (ambiguous && seq.is_some(), None),
                // Explicit "try again later" from the server.
                ClientError::Api {
                    status,
                    retry_after,
                    ..
                } => (matches!(*status, 429 | 503), *retry_after),
            };
            if !retryable || retry + 1 >= policy.max_attempts {
                return Err(err);
            }
            let pause = policy.pause(retry, retry_after, &mut self.jitter);
            if started.elapsed() + pause >= policy.deadline {
                return Err(err);
            }
            std::thread::sleep(pause);
            retry += 1;
            replayed_after_loss |= ambiguous;
        }
    }

    /// `POST /v1/sessions/{id}/deltas` — pushes a KG delta batch into a
    /// monitor session. Returns what the batch did (labels retired,
    /// annotation re-opened or still watching) plus the post-delta
    /// session view with its monitoring report.
    ///
    /// The fencing seq of any outstanding poll is deliberately kept: a
    /// delta withdraws the batch server-side, so a later [`Client::submit`]
    /// against it is refused 409 `stale_request` — the signal to
    /// re-poll. Applying a delta batch is **not** idempotent (a replay
    /// would double its adds), so a lost response is never blindly
    /// replayed even under a [`RetryPolicy`]; failed writes that
    /// provably never reached the server still retry.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures; 400 `bad_request` on a
    /// non-monitor session or a rejected batch.
    pub fn push_deltas(
        &mut self,
        id: &str,
        batch: &DeltaBatch,
    ) -> ClientResult<(DeltaOutcome, SessionInfo)> {
        let body = api::delta_batch_to_json(batch).encode();
        let doc = self.call("POST", &format!("/v1/sessions/{id}/deltas"), &body, false)?;
        let outcome =
            api::delta_outcome_from_json(&doc).map_err(|e| ClientError::Protocol(e.to_string()))?;
        let info = info_from_json(
            doc.get("session")
                .ok_or_else(|| ClientError::Protocol("missing session view".into()))?,
        )?;
        Ok((outcome, info))
    }

    /// `POST /v1/sessions/{id}/suspend` — spills the session to disk.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn suspend(&mut self, id: &str) -> ClientResult<SessionInfo> {
        let doc = self.call("POST", &format!("/v1/sessions/{id}/suspend"), "", true)?;
        info_from_json(&doc)
    }

    /// `POST /v1/sessions/{id}/resume` — rehydrates the session.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn resume(&mut self, id: &str) -> ClientResult<SessionInfo> {
        let doc = self.call("POST", &format!("/v1/sessions/{id}/resume"), "", true)?;
        info_from_json(&doc)
    }

    /// `POST /v1/sessions/{id}/evict` — drops the session's in-memory
    /// state (persisting it first).
    ///
    /// # Errors
    ///
    /// Transport/API failures.
    pub fn evict(&mut self, id: &str) -> ClientResult<()> {
        self.call("POST", &format!("/v1/sessions/{id}/evict"), "", true)
            .map(|_| ())
    }

    /// `DELETE /v1/sessions/{id}` — removes the session everywhere.
    ///
    /// # Errors
    ///
    /// Transport/API failures.
    pub fn delete(&mut self, id: &str) -> ClientResult<()> {
        self.call("DELETE", &format!("/v1/sessions/{id}"), "", true)
            .map(|_| ())
    }

    /// `GET /v1/sessions/{id}/snapshot` — the stored snapshot bytes of
    /// a suspended/evicted session, decoded from hex.
    ///
    /// # Errors
    ///
    /// Transport/API/decoding failures.
    pub fn snapshot(&mut self, id: &str) -> ClientResult<Vec<u8>> {
        let doc = self.call("GET", &format!("/v1/sessions/{id}/snapshot"), "", true)?;
        let hex = doc
            .get("hex")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("missing hex field".into()))?;
        from_hex(hex).ok_or_else(|| ClientError::Protocol("invalid hex payload".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(400),
            deadline: Duration::from_secs(60),
            jitter_seed: 42,
        };
        let mut first_rng = SmallRng::seed_from_u64(policy.jitter_seed);
        let mut second_rng = SmallRng::seed_from_u64(policy.jitter_seed);
        let first: Vec<Duration> = (0..6)
            .map(|i| policy.pause(i, None, &mut first_rng))
            .collect();
        let second: Vec<Duration> = (0..6)
            .map(|i| policy.pause(i, None, &mut second_rng))
            .collect();
        assert_eq!(first, second, "same seed, same schedule");
        for (i, pause) in first.iter().enumerate() {
            let capped = policy
                .base_delay
                .saturating_mul(1 << i)
                .min(policy.max_delay);
            assert!(
                *pause >= capped / 2 && *pause <= capped,
                "retry {i}: {pause:?} outside [{:?}, {capped:?}]",
                capped / 2
            );
        }
        // Steps 2.. sit in the cap's jitter band, not above it.
        assert!(first[5] >= Duration::from_millis(200) && first[5] <= Duration::from_millis(400));
    }

    #[test]
    fn server_retry_after_overrides_the_computed_backoff() {
        let policy = RetryPolicy::default();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(policy.pause(0, Some(3), &mut rng), Duration::from_secs(3));
        // Even past max_delay, and even when zero.
        assert_eq!(policy.pause(7, Some(30), &mut rng), Duration::from_secs(30));
        assert_eq!(policy.pause(7, Some(0), &mut rng), Duration::ZERO);
    }
}
