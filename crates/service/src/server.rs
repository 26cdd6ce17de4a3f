//! The network front: a readiness reactor ([`crate::reactor`])
//! multiplexing every connection on one event-loop thread, worker
//! threads executing ready requests, and the dispatch mapping each
//! request's [`Route`] onto [`SessionManager`] operations.
//!
//! The route table (one [`Route`] class each, see [`Route::classify`]):
//!
//! ```text
//! GET    /healthz                      liveness probe
//! GET    /v1/datasets                  hosted KGs
//! GET    /v1/sessions                  all sessions (live + dormant)
//! POST   /v1/sessions                  create  {id,dataset,design,method,seed,...}
//! GET    /v1/sessions/{id}             status
//! POST   /v1/sessions/{id}/next        poll    {"batch": n}
//! POST   /v1/sessions/{id}/labels      submit  {"labels": [bool,...]}
//! POST   /v1/sessions/{id}/suspend     spill to disk
//! POST   /v1/sessions/{id}/resume      rehydrate from disk
//! POST   /v1/sessions/{id}/evict       drop in-memory state
//! POST   /v1/sessions/{id}/deltas      apply KG churn  {removes,adds,predicate?}
//! GET    /v1/sessions/{id}/snapshot    stored snapshot bytes, hex
//! DELETE /v1/sessions/{id}             remove everywhere
//! ```
//!
//! Connections are keep-alive and cost no thread while idle: the
//! reactor holds each one as parser + buffer state and hands only
//! fully-parsed requests to the workers. `--workers` therefore bounds
//! *in-flight requests*, not connections — size it at the concurrency
//! the session manager should see (CPU count is a good default), even
//! with thousands of connections held open. Idle connections are
//! reclaimed by the reactor at the server's idle timeout
//! ([`IDLE_TIMEOUT`] by default, tunable per server with
//! [`Server::with_idle_timeout`]). Shutdown is event-driven —
//! [`ServerHandle::shutdown`] flips a flag and writes one waker byte;
//! the reactor reacts on the same iteration, no polling tick involved.

use crate::api::{SessionSpec, WireError};
use crate::json::Json;
use crate::manager::{ListedSession, ServiceError, SessionManager, SessionState, SessionView};
use crate::metrics::{Metrics, RequestLog, Route};
use crate::reactor::{self, Reply};
use crate::store::to_hex;
use crate::{api, http, json};
use kgae_graph::KnowledgeGraph;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default reaping deadline for connections without transport
/// progress: idle keep-alive sessions and stalled uploads alike.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    workers: usize,
    idle_timeout: Duration,
    shutdown: Arc<AtomicBool>,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    metrics: Option<Arc<Metrics>>,
    log: Option<Arc<RequestLog>>,
}

/// A clonable remote control for a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    wake_tx: Arc<UnixStream>,
}

impl ServerHandle {
    /// Asks the server to stop: flips the flag and writes one byte to
    /// the reactor's waker, which interrupts its `poll` immediately.
    /// In-flight requests finish their responses, idle connections
    /// close at once; when the last connection is gone, `Server::run`
    /// suspends every live session to disk via [`SessionManager::drain`]
    /// and returns the report — so a SIGTERM loses no campaign state.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut waker = &*self.wake_tx;
        let _ = waker.write(&[1]);
    }
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with
    /// `workers` request executors.
    ///
    /// # Errors
    ///
    /// Propagates bind (and waker-pair creation) failures.
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            workers: workers.max(1),
            idle_timeout: IDLE_TIMEOUT,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake_rx,
            wake_tx: Arc::new(wake_tx),
            metrics: None,
            log: None,
        })
    }

    /// Overrides the idle reaping deadline (default [`IDLE_TIMEOUT`]).
    /// Tests use short timeouts to exercise the reaper quickly.
    #[must_use]
    pub fn with_idle_timeout(mut self, idle_timeout: Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }

    /// Attaches the metrics registry: enables `GET /metrics` and turns
    /// on per-request counters, latency histograms, and the reactor's
    /// connection gauges. Share the same `Arc` with
    /// [`SessionManager::set_metrics`] so session and store counters
    /// land in the same exposition. Without this, `GET /metrics`
    /// answers 404.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attaches the structured request log: one line per executed
    /// request on stderr, filtered by the log's level floor.
    #[must_use]
    pub fn with_request_log(mut self, log: Arc<RequestLog>) -> Self {
        self.log = Some(log);
        self
    }

    /// The bound address (reports the real port after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown remote control.
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn handle(&self) -> std::io::Result<ServerHandle> {
        Ok(ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake_tx: Arc::clone(&self.wake_tx),
        })
    }

    /// Serves `manager` until [`ServerHandle::shutdown`] is called,
    /// then drains gracefully: the manager stops accepting creates
    /// (503 + `Retry-After`), in-flight requests finish, and every
    /// live session is persisted to the snapshot store — outstanding
    /// annotation batches are withdrawn via the exact-rollback cancel,
    /// so a post-restart re-poll regenerates them bit-identically.
    /// Returns the drain report.
    ///
    /// Blocks the calling thread driving the reactor; request
    /// execution runs on the workers (scoped threads, so `manager` may
    /// borrow from the caller's stack).
    pub fn run(self, manager: &SessionManager<'_>) -> crate::manager::DrainReport {
        let Server {
            listener,
            workers,
            idle_timeout,
            shutdown,
            wake_rx,
            wake_tx,
            metrics,
            log,
        } = self;
        let config = reactor::Config {
            workers,
            idle_timeout,
            metrics,
            log,
        };
        reactor::serve(
            listener,
            &wake_rx,
            &wake_tx,
            &shutdown,
            &config,
            || manager.begin_drain(),
            |request, route, id| match route {
                Route::SessionCreate => create(&request.body, manager),
                // Every other session route has its id in the path.
                _ => {
                    let id = id.unwrap_or_default();
                    let metrics = config.metrics.as_deref();
                    let answer = dispatch(request, route, id, manager, metrics);
                    (
                        answer.map_or_else(|refusal| refusal, |body| (200, body, None)),
                        None,
                    )
                }
            },
        );
        manager.drain()
    }
}

/// The service's semantic version, compiled in — what `GET /healthz`
/// and `kgae-serve --version` report.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The `GET /healthz` body: liveness plus build info, so deployment
/// probes can assert *what* is running, not just that something is.
#[must_use]
pub fn health_body() -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("name", Json::str("kgae-serve")),
        ("version", Json::str(VERSION)),
        ("api", Json::str("v1")),
    ])
    .encode()
}

/// A refused request: the error's status, coded body and `Retry-After`.
fn refuse(e: ServiceError) -> Reply {
    (
        e.http_status(),
        api::error_body_coded(&e.to_string(), e.wire_code()),
        e.retry_after(),
    )
}

/// A 400 naming what is wrong with the request.
fn bad_request(why: impl std::fmt::Display) -> Reply {
    (400, api::error_body(&why.to_string()), None)
}

fn view_body(view: SessionView) -> String {
    view_to_json(&view).encode()
}

/// Encodes a [`SessionView`] for the wire.
#[must_use]
pub fn view_to_json(view: &SessionView) -> Json {
    let mut doc = Json::obj(vec![
        ("id", Json::str(&view.id)),
        ("dataset", Json::str(&view.dataset)),
        ("design", Json::str(&view.design)),
        ("method", Json::str(&view.method)),
        ("state", Json::str(view.state.name())),
        ("pending_labels", Json::int(view.pending_labels)),
        (
            "pending_seq",
            view.pending_seq.map_or(Json::Null, Json::int),
        ),
        ("status", api::status_to_json(&view.status)),
        (
            "snapshot_bytes",
            view.snapshot_bytes.map_or(Json::Null, Json::int),
        ),
    ]);
    if let Some((index, name)) = &view.pending_stratum {
        doc.set(
            "pending_stratum",
            Json::obj(vec![
                ("index", Json::int(u64::from(*index))),
                ("name", Json::str(name)),
            ]),
        );
    }
    if let Some(strata) = &view.strata {
        doc.set("strata", api::strata_to_json(strata));
    }
    if let Some(methods) = &view.methods {
        doc.set("methods", api::methods_to_json(methods));
    }
    if let Some(monitor) = &view.monitor {
        doc.set("monitor", api::monitor_report_to_json(monitor));
    }
    doc
}

/// Encodes a listing entry for the wire: a session in memory as its
/// view, one only on disk as `{id, state: "evicted", reason?}`.
#[must_use]
pub fn listed_to_json(listed: &ListedSession) -> Json {
    match listed {
        ListedSession::Held(view) => view_to_json(view),
        ListedSession::Stored { id, reason } => {
            let mut doc = Json::obj(vec![
                ("id", Json::str(id)),
                ("state", Json::str(SessionState::Evicted.name())),
            ]);
            if let Some(reason) = reason {
                doc.set("reason", Json::str(api::stop_reason_name(*reason)));
            }
            doc
        }
    }
}

/// Decodes a listing entry from its wire form ([`listed_to_json`]): an
/// evicted entry is the store's, any other a view.
///
/// # Errors
///
/// [`WireError`] on a missing or mistyped field or an unknown state or
/// stop reason.
pub fn listed_from_json(v: &Json) -> Result<ListedSession, WireError> {
    if api::req_str(v, "state")? != SessionState::Evicted.name() {
        return view_from_json(v).map(|view| ListedSession::Held(Box::new(view)));
    }
    let reason = match v.get("reason") {
        None | Some(Json::Null) => None,
        Some(_) => Some(api::stop_reason_from_name(&api::req_str(v, "reason")?)?),
    };
    Ok(ListedSession::Stored {
        id: api::req_str(v, "id")?,
        reason,
    })
}

/// Decodes a [`SessionView`] from its wire form ([`view_to_json`]).
///
/// # Errors
///
/// [`WireError`] on a missing or mistyped field or an unknown state.
pub fn view_from_json(v: &Json) -> Result<SessionView, WireError> {
    let state = SessionState::from_name(&api::req_str(v, "state")?)
        .ok_or_else(|| api::wire_err("unknown session state"))?;
    let pending_stratum = match v.get("pending_stratum") {
        None | Some(Json::Null) => None,
        Some(field) => {
            let index = u32::try_from(api::req_u64(field, "index")?)
                .map_err(|_| api::wire_err("stratum index out of range"))?;
            Some((index, api::req_str(field, "name")?))
        }
    };
    let present = |key: &str| v.get(key).filter(|field| !matches!(field, Json::Null));
    Ok(SessionView {
        id: api::req_str(v, "id")?,
        dataset: api::req_str(v, "dataset")?,
        design: api::req_str(v, "design")?,
        method: api::req_str(v, "method")?,
        state,
        pending_labels: api::req_u64(v, "pending_labels")?,
        pending_seq: api::opt_u64(v, "pending_seq")?,
        pending_stratum,
        status: api::status_from_json(
            v.get("status")
                .ok_or_else(|| api::wire_err("missing field \"status\""))?,
        )?,
        strata: present("strata").map(api::strata_from_json).transpose()?,
        methods: present("methods").map(api::methods_from_json).transpose()?,
        monitor: present("monitor")
            .map(api::monitor_report_from_json)
            .transpose()?,
        snapshot_bytes: api::opt_u64(v, "snapshot_bytes")?,
    })
}

fn parse_body(body: &[u8]) -> Result<Json, Reply> {
    let text = std::str::from_utf8(body).map_err(|_| bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    json::parse(text).map_err(bad_request)
}

/// `POST /v1/sessions`. Hands back the spec it parsed, which names the
/// session and tenant for the request log.
fn create(body: &[u8], manager: &SessionManager<'_>) -> (Reply, Option<SessionSpec>) {
    let spec = parse_body(body).and_then(|doc| SessionSpec::from_json(&doc).map_err(bad_request));
    let spec = match spec {
        Ok(spec) => spec,
        Err(refusal) => return (refusal, None),
    };
    let reply = match manager.create(&spec) {
        Ok(view) => (201, view_body(view), None),
        Err(e) => refuse(e),
    };
    (reply, Some(spec))
}

/// Answers one request of any route but a create (`id` is the session
/// its path names): a 200 body, or a refusal.
fn dispatch(
    request: &http::Request,
    route: Route,
    id: &str,
    manager: &SessionManager<'_>,
    metrics: Option<&Metrics>,
) -> Result<String, Reply> {
    match route {
        Route::Healthz => Ok(health_body()),
        // The session gauges are a point-in-time census taken at scrape
        // time under the shard locks — they can never drift from the
        // manager's actual occupancy.
        Route::Metrics => metrics
            .map(|reg| reg.encode(&manager.census(), Some(&manager.kernel_stats())))
            .ok_or_else(|| (404, api::error_body("metrics not enabled"), None)),
        Route::Datasets => {
            let datasets: Vec<Json> = manager
                .registry()
                .entries()
                .iter()
                .map(|entry| {
                    Json::obj(vec![
                        ("name", Json::str(&entry.name)),
                        ("triples", Json::int(entry.kg.num_triples())),
                        ("clusters", Json::int(u64::from(entry.kg.num_clusters()))),
                        (
                            "strata",
                            entry
                                .stratification
                                .as_ref()
                                .map_or(Json::Null, |s| Json::int(u64::from(s.num_strata()))),
                        ),
                    ])
                })
                .collect();
            Ok(Json::obj(vec![("datasets", Json::Arr(datasets))]).encode())
        }
        Route::SessionsList => {
            let listed = manager.list().iter().map(listed_to_json).collect();
            Ok(Json::obj(vec![("sessions", Json::Arr(listed))]).encode())
        }
        Route::SessionStatus => manager.status(id).map(view_body).map_err(refuse),
        Route::SessionDelete => {
            manager.delete(id).map_err(refuse)?;
            Ok(Json::obj(vec![("deleted", Json::str(id))]).encode())
        }
        Route::Next => {
            let batch = match parse_body(&request.body)?.get("batch") {
                None | Some(Json::Null) => 1,
                Some(field) => field
                    .as_u64()
                    .ok_or_else(|| bad_request("\"batch\" must be a non-negative integer"))?,
            };
            let (request, view) = manager.next_request(id, batch).map_err(refuse)?;
            let stratum = view
                .pending_stratum
                .as_ref()
                .map(|(index, name)| api::WireStratum {
                    index: *index,
                    name: name.clone(),
                });
            let mut doc =
                api::request_to_json(request.as_ref(), view.pending_seq, stratum.as_ref());
            doc.set("session", view_to_json(&view));
            Ok(doc.encode())
        }
        Route::Labels => {
            let body = parse_body(&request.body)?;
            let (labels, seq) = api::labels_from_json(&body).map_err(bad_request)?;
            manager
                .submit(id, &labels, seq)
                .map(view_body)
                .map_err(refuse)
        }
        Route::Suspend => manager.suspend(id).map(view_body).map_err(refuse),
        Route::Resume => manager.resume(id).map(view_body).map_err(refuse),
        Route::Evict => {
            manager.evict(id).map_err(refuse)?;
            Ok(Json::obj(vec![("evicted", Json::str(id))]).encode())
        }
        Route::Deltas => {
            let body = parse_body(&request.body)?;
            let batch = api::delta_batch_from_json(&body).map_err(bad_request)?;
            let (outcome, view) = manager.apply_deltas(id, &batch).map_err(refuse)?;
            let mut doc = api::delta_outcome_to_json(&outcome);
            doc.set("session", view_to_json(&view));
            Ok(doc.encode())
        }
        Route::Snapshot => {
            let bytes = manager.snapshot_bytes(id).map_err(refuse)?;
            Ok(Json::obj(vec![
                ("bytes", Json::int(bytes.len() as u64)),
                ("hex", Json::Str(to_hex(&bytes))),
            ])
            .encode())
        }
        _ => Err((404, api::error_body("no such route"), None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_core::{
        DriftReport, MethodReport, MonitorReport, SessionStatus, StopReason, StratumReport,
    };
    use kgae_intervals::Interval;

    fn status(stopped: Option<StopReason>) -> SessionStatus {
        SessionStatus {
            estimate: Some(0.875),
            interval: Some(Interval::new(0.8, 0.95)),
            observations: 120,
            annotated_triples: 118,
            stage1_draws: 40,
            cost_seconds: 3_456.5,
            stopped,
        }
    }

    fn round_trip(view: &SessionView) -> SessionView {
        let text = view_to_json(view).encode();
        view_from_json(&json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn view_round_trips_every_field() {
        let full = SessionView {
            id: "audit-1".into(),
            dataset: "nell".into(),
            design: "stratified:width-greedy".into(),
            method: "ahpd".into(),
            state: SessionState::Running,
            pending_labels: 8,
            pending_seq: Some(17),
            pending_stratum: Some((3, "worksFor".into())),
            status: status(None),
            strata: Some(vec![StratumReport {
                name: "worksFor".into(),
                weight: 0.125,
                size: 256,
                census: true,
                status: status(Some(StopReason::PopulationExhausted)),
            }]),
            methods: Some(vec![MethodReport {
                method: "wilson".into(),
                primary: false,
                converged: true,
                stopped_at: Some(96),
                estimate: Some(0.9),
                interval: Some(Interval::new(0.85, 0.95)),
            }]),
            monitor: Some(MonitorReport {
                epoch: 2,
                campaigns_reopened: 2,
                retired_labels: 5,
                watching: false,
                drift: vec![DriftReport {
                    predicate: "drift".into(),
                    adds: 20,
                    removes: 1_100,
                    retired_labels: 5,
                    alarm: true,
                }],
            }),
            snapshot_bytes: Some(4_096),
        };
        assert_eq!(round_trip(&full), full);

        let bare = SessionView {
            state: SessionState::Evicted,
            pending_labels: 0,
            pending_seq: None,
            pending_stratum: None,
            status: SessionStatus {
                estimate: None,
                interval: None,
                ..status(Some(StopReason::MoeSatisfied))
            },
            strata: None,
            methods: None,
            monitor: None,
            snapshot_bytes: None,
            ..full
        };
        assert_eq!(round_trip(&bare), bare);
    }

    #[test]
    fn view_decoding_refuses_a_malformed_document() {
        let mut doc = view_to_json(&SessionView {
            id: "s".into(),
            dataset: "nell".into(),
            design: "srs".into(),
            method: "wilson".into(),
            state: SessionState::Running,
            pending_labels: 0,
            pending_seq: None,
            pending_stratum: None,
            status: status(None),
            strata: None,
            methods: None,
            monitor: None,
            snapshot_bytes: None,
        });
        doc.set("state", Json::str("asleep"));
        assert!(view_from_json(&doc).is_err());
        doc.set("state", Json::str("running"));
        assert!(view_from_json(&doc).is_ok());
        doc.set("pending_stratum", Json::obj(vec![("index", Json::int(1))]));
        assert!(view_from_json(&doc).is_err());
    }
}
