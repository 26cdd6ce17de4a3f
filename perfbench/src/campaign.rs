//! One service campaign, written once against a [`Transport`]: over
//! HTTP through `kgae-client` ([`Http`]) for the measured run, and
//! straight into an in-process [`SessionManager`] ([`Local`]) for the
//! twin replay that checks every final status bit for bit and times the
//! manager, json and http layers without a socket in between.

use crate::gen::CampaignPlan;
use crate::Histogram;
use kgae_client::Client;
use kgae_core::{DeltaBatch, SessionStatus, StopReason};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, TripleId};
use kgae_service::api::{self, SessionSpec};
use kgae_service::http::{format_response, Parsed, RequestParser};
use kgae_service::json::{self, Json};
use kgae_service::manager::{SessionState, SessionView};
use kgae_service::server::view_to_json;
use kgae_service::SessionManager;
use std::hint::black_box;
use std::time::Instant;

/// The operations a campaign issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/sessions`.
    Create,
    /// Poll for the next batch.
    Next,
    /// Submit labels.
    Submit,
    /// Push a delta batch (monitors).
    Deltas,
    /// Suspend to disk.
    Suspend,
    /// Drop from memory.
    Evict,
    /// Explicit resume (replay-only snapshot check).
    Resume,
    /// Final status read.
    Status,
    /// Delete.
    Delete,
}

/// Number of [`Op`] variants.
pub const OPS: usize = 9;

impl Op {
    /// Metric-name fragment (`SessionManager` method name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Next => "next_request",
            Op::Submit => "submit",
            Op::Deltas => "apply_deltas",
            Op::Suspend => "suspend",
            Op::Evict => "evict",
            Op::Resume => "resume",
            Op::Status => "status",
            Op::Delete => "delete",
        }
    }
}

/// Per-request client-side latencies: all ops together and per-op
/// tallies.
#[derive(Clone, Default)]
pub struct OpTimes {
    /// Every request.
    pub all: Histogram,
    /// Calls and total ns per [`Op`].
    pub per_op: [Tally; OPS],
}

impl OpTimes {
    fn time<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        let ns = self.all.record_since(t0);
        self.per_op[op as usize].add(ns);
        value
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &OpTimes) {
        self.all.merge(&other.all);
        for (a, b) in self.per_op.iter_mut().zip(&other.per_op) {
            a.merge(*b);
        }
    }

    /// Requests timed.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.per_op.iter().map(|t| t.calls).sum()
    }
}

/// A session's final view, transport-neutral.
#[derive(Debug, Clone, PartialEq)]
pub struct Final {
    /// Lifecycle state.
    pub state: SessionState,
    /// Headline status.
    pub status: SessionStatus,
    /// Monitor sessions: whether it is watching (certified).
    pub watching: Option<bool>,
}

/// The protocol a campaign speaks.
pub trait Transport {
    /// Creates the session.
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String>;
    /// Polls; `None` once no labels are wanted.
    fn next(&mut self, id: &str, batch: u64) -> Result<Option<Vec<u64>>, String>;
    /// Submits labels; returns the session's state after them.
    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<SessionState, String>;
    /// Applies a delta batch to a monitor.
    fn push_deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String>;
    /// Suspends to disk.
    fn suspend(&mut self, id: &str) -> Result<(), String>;
    /// Evicts from memory.
    fn evict(&mut self, id: &str) -> Result<(), String>;
    /// Reads the final view.
    fn status(&mut self, id: &str) -> Result<Final, String>;
    /// Deletes the session.
    fn delete(&mut self, id: &str) -> Result<(), String>;
    /// Requests written to a server, for `/metrics` reconciliation (0
    /// when there is no server).
    fn requests_sent(&self) -> u64 {
        0
    }
}

/// One finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Campaign index.
    pub index: u64,
    /// Labels supplied (the paper's cost: one per annotated triple).
    pub annotations: u64,
    /// Requests issued.
    pub requests: u64,
    /// The final view, for the twin comparison.
    pub last: Final,
}

/// Drives `plan` to its end over `t`, oracle-labeling from `kg` (and a
/// delta-applying twin of it for monitors), and checks the gate: the
/// campaign stopped `MoeSatisfied` (a monitor: is watching again after
/// re-certifying) with MoE ≤ ε.
///
/// # Errors
///
/// Any refused or failed request, or a failed gate, as text.
pub fn drive(
    t: &mut dyn Transport,
    plan: &CampaignPlan,
    index: u64,
    kg: &CompactKg,
    times: &mut OpTimes,
) -> Result<CampaignResult, String> {
    let id = plan.spec.id.as_str();
    let requests_before = times.requests();
    let mut truth = DeltaKg::with_truth(kg, kg);
    let mut annotations = 0u64;
    let mut submits = 0u64;
    times.time(Op::Create, || t.create(&plan.spec))?;
    let mut delta = plan.delta.as_ref();
    loop {
        let batch = times.time(Op::Next, || t.next(id, plan.batch))?;
        let Some(triples) = batch else {
            // A monitor certified: absorb the drift, then re-certify.
            if let Some(d) = delta.take() {
                times.time(Op::Deltas, || t.push_deltas(id, d))?;
                truth
                    .apply(&d.removes, &d.adds)
                    .map_err(|e| format!("{id}: truth twin rejected the delta: {e}"))?;
                continue;
            }
            break;
        };
        let labels: Vec<bool> = triples
            .iter()
            .map(|&tr| truth.is_correct(TripleId(tr)))
            .collect();
        annotations += labels.len() as u64;
        let state = times.time(Op::Submit, || t.submit(id, &labels))?;
        submits += 1;
        if let Some(every) = plan.suspend_every {
            if submits.is_multiple_of(every) && state != SessionState::Finished {
                times.time(Op::Suspend, || t.suspend(id))?;
                times.time(Op::Evict, || t.evict(id))?;
            }
        }
    }
    let last = times.time(Op::Status, || t.status(id))?;
    let moe = last.status.interval.map_or(f64::INFINITY, |i| i.moe());
    let settled = match last.watching {
        Some(watching) => watching && delta.is_none(),
        None => {
            last.state == SessionState::Finished
                && last.status.stopped == Some(StopReason::MoeSatisfied)
        }
    };
    if !settled || moe > plan.spec.epsilon {
        return Err(format!(
            "{id} ({}): did not settle with MoE ≤ ε: state {:?}, stopped {:?}, MoE {moe}",
            plan.kind, last.state, last.status.stopped
        ));
    }
    times.time(Op::Delete, || t.delete(id))?;
    let requests = times.requests() - requests_before;
    Ok(CampaignResult {
        index,
        annotations,
        requests,
        last,
    })
}

/// The HTTP transport: a keep-alive `kgae-client` connection.
pub struct Http(pub Client);

impl Transport for Http {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String> {
        self.0
            .create(spec)
            .map(drop)
            .map_err(|e| format!("create {}: {e}", spec.id))
    }

    fn next(&mut self, id: &str, batch: u64) -> Result<Option<Vec<u64>>, String> {
        let request = self
            .0
            .next_request(id, batch)
            .map_err(|e| format!("next {id}: {e}"))?;
        Ok((!request.done).then(|| request.triples.iter().map(|t| t.triple).collect()))
    }

    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<SessionState, String> {
        self.0
            .submit(id, labels)
            .map(|info| info.state)
            .map_err(|e| format!("submit {id}: {e}"))
    }

    fn push_deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String> {
        self.0
            .push_deltas(id, batch)
            .map(drop)
            .map_err(|e| format!("deltas {id}: {e}"))
    }

    fn suspend(&mut self, id: &str) -> Result<(), String> {
        self.0
            .suspend(id)
            .map(drop)
            .map_err(|e| format!("suspend {id}: {e}"))
    }

    fn evict(&mut self, id: &str) -> Result<(), String> {
        self.0.evict(id).map_err(|e| format!("evict {id}: {e}"))
    }

    fn status(&mut self, id: &str) -> Result<Final, String> {
        let info = self.0.status(id).map_err(|e| format!("status {id}: {e}"))?;
        Ok(Final {
            state: info.state,
            status: info.status,
            watching: info.monitor.map(|m| m.watching),
        })
    }

    fn delete(&mut self, id: &str) -> Result<(), String> {
        self.0.delete(id).map_err(|e| format!("delete {id}: {e}"))
    }

    fn requests_sent(&self) -> u64 {
        self.0.requests_sent()
    }
}

/// Calls to one operation and their total time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Their total ns.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn add_since(&mut self, t0: Instant) {
        self.add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    fn merge(&mut self, other: Tally) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean ns per call (0 when never called).
    #[must_use]
    pub fn mean_ns(self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }
}

/// Wire-layer timings gathered by the in-process replay.
#[derive(Debug, Default, Clone)]
pub struct WireTimes {
    /// Response documents encoded.
    pub encode: Tally,
    /// Total bytes of the encoded documents.
    pub encoded_bytes: u64,
    /// Response bodies parsed back.
    pub parse: Tally,
    /// HTTP requests parsed.
    pub http_parse: Tally,
    /// HTTP responses formatted.
    pub http_format: Tally,
}

impl WireTimes {
    /// Adds `other`'s tallies.
    pub fn merge(&mut self, other: &WireTimes) {
        self.encode.merge(other.encode);
        self.encoded_bytes += other.encoded_bytes;
        self.parse.merge(other.parse);
        self.http_parse.merge(other.http_parse);
        self.http_format.merge(other.http_format);
    }

    /// Mean wire-layer ns per exchange: encode, parse, http parse and
    /// http format together.
    #[must_use]
    pub fn ns_per_exchange(&self) -> f64 {
        self.encode.mean_ns()
            + self.parse.mean_ns()
            + self.http_parse.mean_ns()
            + self.http_format.mean_ns()
    }
}

/// The in-process transport: the same calls straight into a
/// [`SessionManager`], each manager call timed on its own, and each
/// response additionally run through the json encoder/parser and the
/// HTTP parser/formatter exactly as the server would frame it.
///
/// With `check_snapshots`, every suspend is followed (outside the
/// manager timings' op sequence) by evict → resume → suspend, and the
/// snapshot bytes before and after must be identical.
pub struct Local<'m, 'a> {
    manager: &'m SessionManager<'a>,
    seq: Option<u64>,
    /// Per-op manager timings.
    pub manager_times: OpTimes,
    /// json/http timings.
    pub wire: WireTimes,
    /// Verify snapshot bytes across evict → resume.
    pub check_snapshots: bool,
    /// Snapshot byte-identity checks that passed.
    pub snapshot_checks: u64,
}

impl<'m, 'a> Local<'m, 'a> {
    /// A transport over `manager`.
    #[must_use]
    pub fn new(manager: &'m SessionManager<'a>, check_snapshots: bool) -> Self {
        Local {
            manager,
            seq: None,
            manager_times: OpTimes::default(),
            wire: WireTimes::default(),
            check_snapshots,
            snapshot_checks: 0,
        }
    }

    fn call<T>(&mut self, op: Op, f: impl FnOnce(&SessionManager<'a>) -> T) -> T {
        let manager = self.manager;
        self.manager_times.time(op, || f(manager))
    }

    /// Frames one exchange the way the server would: parse the request
    /// bytes, encode the response document, format the response, and
    /// parse the body back as a client does.
    fn wire(&mut self, method: &str, path: &str, request_body: &str, response: &Json) {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{request_body}",
            request_body.len()
        );
        let t0 = Instant::now();
        let mut parser = RequestParser::new();
        let parsed = parser.feed(raw.as_bytes());
        black_box(matches!(parsed, Ok((_, Parsed::Complete(_)))));
        self.wire.http_parse.add_since(t0);

        let t0 = Instant::now();
        let body = response.encode();
        self.wire.encode.add_since(t0);
        self.wire.encoded_bytes += body.len() as u64;

        let t0 = Instant::now();
        black_box(format_response(200, &body, true, &[]));
        self.wire.http_format.add_since(t0);

        let t0 = Instant::now();
        black_box(json::parse(&body).is_ok());
        self.wire.parse.add_since(t0);
    }

    fn view(&mut self, method: &str, path: &str, body: &str, view: &SessionView) {
        let doc = view_to_json(view);
        self.wire(method, path, body, &doc);
    }
}

fn err(op: &str, id: &str, e: impl std::fmt::Display) -> String {
    format!("{op} {id}: {e}")
}

impl Transport for Local<'_, '_> {
    fn create(&mut self, spec: &SessionSpec) -> Result<(), String> {
        let view = self
            .call(Op::Create, |m| m.create(spec))
            .map_err(|e| err("create", &spec.id, e))?;
        let body = spec.to_json().encode();
        self.view("POST", "/v1/sessions", &body, &view);
        Ok(())
    }

    fn next(&mut self, id: &str, batch: u64) -> Result<Option<Vec<u64>>, String> {
        let (request, view) = self
            .call(Op::Next, |m| m.next_request(id, batch))
            .map_err(|e| err("next", id, e))?;
        self.seq = view.pending_seq;
        let doc = api::request_to_json(request.as_ref(), view.pending_seq, None);
        self.wire("POST", &format!("/v1/sessions/{id}/next"), "", &doc);
        Ok(request.map(|r| r.triples.iter().map(|t| t.triple.0).collect()))
    }

    fn submit(&mut self, id: &str, labels: &[bool]) -> Result<SessionState, String> {
        let seq = self.seq.take();
        let view = self
            .call(Op::Submit, |m| m.submit(id, labels, seq))
            .map_err(|e| err("submit", id, e))?;
        let body = Json::obj(vec![(
            "labels",
            Json::Arr(labels.iter().map(|&l| Json::Bool(l)).collect()),
        )])
        .encode();
        self.view("POST", &format!("/v1/sessions/{id}/labels"), &body, &view);
        Ok(view.state)
    }

    fn push_deltas(&mut self, id: &str, batch: &DeltaBatch) -> Result<(), String> {
        let (_, view) = self
            .call(Op::Deltas, |m| m.apply_deltas(id, batch))
            .map_err(|e| err("deltas", id, e))?;
        let body = api::delta_batch_to_json(batch).encode();
        self.view("POST", &format!("/v1/sessions/{id}/deltas"), &body, &view);
        Ok(())
    }

    fn suspend(&mut self, id: &str) -> Result<(), String> {
        let view = self
            .call(Op::Suspend, |m| m.suspend(id))
            .map_err(|e| err("suspend", id, e))?;
        self.view("POST", &format!("/v1/sessions/{id}/suspend"), "", &view);
        Ok(())
    }

    fn evict(&mut self, id: &str) -> Result<(), String> {
        let before = if self.check_snapshots {
            Some(
                self.manager
                    .snapshot_bytes(id)
                    .map_err(|e| err("snapshot", id, e))?,
            )
        } else {
            None
        };
        self.call(Op::Evict, |m| m.evict(id))
            .map_err(|e| err("evict", id, e))?;
        self.wire(
            "POST",
            &format!("/v1/sessions/{id}/evict"),
            "",
            &Json::obj(vec![("ok", Json::Bool(true))]),
        );
        if let Some(before) = before {
            // evict → resume → suspend must reproduce the stored bytes.
            self.call(Op::Resume, |m| m.resume(id))
                .map_err(|e| err("resume", id, e))?;
            self.call(Op::Suspend, |m| m.suspend(id))
                .map_err(|e| err("re-suspend", id, e))?;
            let after = self
                .manager
                .snapshot_bytes(id)
                .map_err(|e| err("re-snapshot", id, e))?;
            if before != after {
                return Err(format!(
                    "{id}: snapshot bytes changed across evict → resume ({} vs {} bytes)",
                    before.len(),
                    after.len()
                ));
            }
            self.snapshot_checks += 1;
            self.call(Op::Evict, |m| m.evict(id))
                .map_err(|e| err("re-evict", id, e))?;
        }
        Ok(())
    }

    fn status(&mut self, id: &str) -> Result<Final, String> {
        let view = self
            .call(Op::Status, |m| m.status(id))
            .map_err(|e| err("status", id, e))?;
        self.view("GET", &format!("/v1/sessions/{id}"), "", &view);
        Ok(Final {
            state: view.state,
            status: view.status,
            watching: view.monitor.map(|m| m.watching),
        })
    }

    fn delete(&mut self, id: &str) -> Result<(), String> {
        self.call(Op::Delete, |m| m.delete(id))
            .map_err(|e| err("delete", id, e))?;
        self.wire(
            "DELETE",
            &format!("/v1/sessions/{id}"),
            "",
            &Json::obj(vec![("ok", Json::Bool(true))]),
        );
        Ok(())
    }
}
