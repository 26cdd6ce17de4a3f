//! The std-only readiness reactor: one event-loop thread multiplexes
//! every connection over POSIX `poll(2)` (via the vendored [`polling`]
//! shim), and `--workers` threads execute only **ready, fully-parsed**
//! requests. This replaces the thread-per-connection front where one
//! pool worker owned one keep-alive connection for its lifetime —
//! connection capacity is now bounded by file descriptors, and
//! `--workers` bounds *in-flight requests* instead.
//!
//! ```text
//!                        ┌───────────────────────────────┐
//!   accept ──────────────►          reactor thread       │
//!   readable ────────────► poll(2) → read → RequestParser│──ready Job──► workers
//!   writable ────────────► resume partial response writes│◄──Done+wake── (route → format)
//!   deadline heap ───────► reap idle keep-alive conns    │
//!   waker (UnixStream) ──► instant shutdown / completions│
//!                        └───────────────────────────────┘
//! ```
//!
//! Per connection the reactor holds a `Conn`: the resumable
//! [`RequestParser`] with its partial header/body state, an input
//! spillover buffer for pipelined bytes, and a write buffer with
//! partial-write resumption. Requests on one connection are strictly
//! serial (HTTP/1.1 semantics): while a request executes, the
//! connection is not polled for reads, so a flooding peer is
//! backpressured into its kernel socket buffer rather than into server
//! memory. A response is either written completely or the connection
//! dies — after any transport error mid-response the connection is
//! closed, never reused with a fresh response on top of a half-written
//! one.
//!
//! Idle keep-alive expiry lives in a heap of deadlines owned by the
//! loop: every byte of transport progress (read or write)
//! refreshes the connection's activity clock, so an *active* mid-body
//! upload is never reaped, while a connection sitting between requests
//! (or stalled mid-message) past the deadline is closed server-side.
//!
//! Shutdown is event-driven: [`crate::server::ServerHandle::shutdown`]
//! writes one byte to the waker, the loop observes the flag on the
//! same iteration, stops accepting, closes idle connections
//! immediately and lets in-flight requests finish their response
//! writes, so a no-session drain completes without any polling tick.

use crate::api::{self, SessionSpec};
use crate::http::{self, Parsed, RequestParser};
use crate::metrics::{self, Metrics, RequestLog, Route};
use polling::{PollFd, POLLIN, POLLOUT};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reactor tuning: how many request executors, how long a connection
/// may sit without transport progress before it is reaped, and where
/// (if anywhere) to report what happened.
pub(crate) struct Config {
    /// Worker threads executing ready requests — bounds in-flight
    /// requests, **not** connections.
    pub workers: usize,
    /// Keep-alive/stall deadline.
    pub idle_timeout: Duration,
    /// Shared metrics registry; request latency is measured around the
    /// worker's handler call and counted only once the response bytes
    /// exist (a `/metrics` scrape never counts itself).
    pub metrics: Option<Arc<Metrics>>,
    /// Structured request log (one line per executed request).
    pub log: Option<Arc<RequestLog>>,
}

/// A ready, fully-parsed request handed to the workers.
struct Job {
    token: usize,
    generation: u64,
    request: http::Request,
}

/// A serialized response handed back to the reactor for nonblocking
/// write. Empty `bytes` means "write nothing" (an injected connection
/// drop); `close` forces the connection shut after the flush.
struct Done {
    token: usize,
    generation: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Read size per readiness event.
const READ_CHUNK: usize = 16 * 1024;

/// One multiplexed connection and everything resumable about it.
struct Conn {
    stream: TcpStream,
    /// Resumable request decoder (partial line/header/body state).
    parser: RequestParser,
    /// Bytes read but not yet consumed by the parser — pipelined
    /// requests wait here while the current one executes.
    inbuf: Vec<u8>,
    /// The response being written, and how much of it already was.
    out: Vec<u8>,
    written: usize,
    /// A request is executing on a worker; reads pause.
    busy: bool,
    /// Close once `out` flushes (parse errors, `Connection: close`,
    /// drain, injected torn writes).
    close_after_flush: bool,
    /// The peer half-closed its write side. Responses already owed
    /// (and pipelined requests already buffered) still complete; the
    /// connection closes once nothing remains.
    read_closed: bool,
    /// Stale-event fence: slab tokens are reused, generations are not.
    generation: u64,
    /// Last transport progress (accepted / bytes read / bytes
    /// written); the deadline is measured from here.
    last_activity: Instant,
}

impl Conn {
    /// Poll for reads only between responses and while no request is
    /// in flight — serial HTTP semantics plus kernel-level
    /// backpressure against floods.
    fn wants_read(&self) -> bool {
        !self.busy && self.out.is_empty() && !self.read_closed
    }

    fn wants_write(&self) -> bool {
        self.written < self.out.len()
    }
}

/// Keep-alive deadlines: a min-heap of `(deadline, token, generation)`.
/// Entries are cancelled lazily — a popped `(token, generation)` that no
/// longer matches a live connection is ignored — and a live connection
/// holds one entry at a time, which [`Loop::on_timer`] re-arms.
#[derive(Default)]
struct Deadlines(BinaryHeap<Reverse<(Instant, usize, u64)>>);

impl Deadlines {
    fn arm(&mut self, deadline: Instant, token: usize, generation: u64) {
        self.0.push(Reverse((deadline, token, generation)));
    }

    /// Pops the earliest entry whose deadline passed before `now`. An
    /// entry re-armed at `now` itself waits for the next iteration.
    fn pop_due(&mut self, now: Instant) -> Option<(usize, u64)> {
        let Reverse((deadline, _, _)) = self.0.peek()?;
        if *deadline >= now {
            return None;
        }
        self.0
            .pop()
            .map(|Reverse((_, token, generation))| (token, generation))
    }

    /// How long `poll` may sleep before the earliest deadline, rounded
    /// up to a whole millisecond (at least one, so a deadline under a
    /// millisecond away does not spin the loop). `None` when nothing is
    /// armed: sleep until a waker byte.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let Reverse((deadline, _, _)) = self.0.peek()?;
        let nanos = deadline.saturating_duration_since(now).as_nanos();
        Some(Duration::from_millis(
            nanos.div_ceil(1_000_000).max(1) as u64
        ))
    }
}

/// A routed answer: status, JSON body, and the optional `Retry-After`
/// seconds (quota/drain refusals carry one).
pub(crate) type Reply = (u16, String, Option<u64>);

/// The reactor front door. Owns the listener and every connection;
/// `handler` answers one request, classified once as its [`Route`] and
/// session id, on a worker thread, and hands back the spec a create
/// parsed (it names the log line's session and tenant). `begin_drain`
/// runs exactly once, on the loop iteration that observes the shutdown
/// flag, *before* any connection is torn down (so refused requests see
/// drain 503s, not resets). Returns once every connection is closed and
/// all workers have exited — the caller then runs the manager's
/// persistence drain with no request racing it.
///
/// `wake_rx`/`wake_tx` are the two ends of a `UnixStream::pair`: the
/// loop polls `wake_rx`; [`crate::server::ServerHandle::shutdown`] and
/// the workers (on completion) write a byte to `wake_tx`.
pub(crate) fn serve<F>(
    listener: TcpListener,
    wake_rx: &UnixStream,
    wake_tx: &UnixStream,
    shutdown: &AtomicBool,
    config: &Config,
    begin_drain: impl FnOnce(),
    handler: F,
) where
    F: Fn(&http::Request, Route, Option<&str>) -> (Reply, Option<SessionSpec>) + Sync,
{
    let (job_tx, job_rx) = channel::<Job>();
    let (done_tx, done_rx) = channel::<Done>();
    let _ = wake_tx.set_nonblocking(true);
    let jobs = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| loop {
                // The receiver lock is held to pull a job, never while
                // executing one.
                let job = jobs.lock().expect("job receiver lock").recv();
                let Ok(job) = job else {
                    return; // the loop dropped the sender: drained
                };
                let done = execute(job, &handler, config);
                if done_tx.send(done).is_ok() {
                    // A full waker pipe already guarantees a wake-up;
                    // ignore WouldBlock (and a torn-down reactor) here.
                    let mut waker = wake_tx;
                    let _ = waker.write(&[1]);
                }
            });
        }
        event_loop(
            listener,
            wake_rx,
            shutdown,
            config,
            begin_drain,
            job_tx,
            &done_rx,
        );
    });
}

/// Executes one ready request on a worker: route it, serialize the
/// response, and record its metrics and structured log line.
fn execute<F>(job: Job, handler: &F, config: &Config) -> Done
where
    F: Fn(&http::Request, Route, Option<&str>) -> (Reply, Option<SessionSpec>),
{
    let keep_alive = job.request.keep_alive;
    let (route, session) = Route::classify(&job.request.method, &job.request.path);
    let started = Instant::now();
    let ((status, body, retry_after), spec) = handler(&job.request, route, session);
    let mut extra: Vec<(&str, String)> = Vec::new();
    if let Some(secs) = retry_after {
        extra.push(("Retry-After", secs.to_string()));
    }
    // Everything the service answers is JSON except a successful
    // metrics scrape, which speaks the Prometheus text format.
    let content_type = if route == Route::Metrics && status == 200 {
        "text/plain; version=0.0.4"
    } else {
        "application/json"
    };
    // Failpoint `conn.write`: the response dies *after* the manager
    // already applied the operation — torn sends a prefix, drop sends
    // nothing, and either way the connection closes, so the client's
    // lost-response retry path is exercised.
    #[cfg(feature = "fault-injection")]
    let injected = crate::fault::check(crate::fault::site::CONN_WRITE);
    #[cfg(not(feature = "fault-injection"))]
    let injected: Option<crate::fault::FaultAction> = None;
    let (bytes, close) = match injected {
        Some(crate::fault::FaultAction::Crash) => std::process::abort(),
        Some(crate::fault::FaultAction::Torn(n)) => {
            let mut bytes =
                http::format_response_with(status, &body, keep_alive, content_type, &extra);
            bytes.truncate(n);
            (bytes, true)
        }
        Some(_) => (Vec::new(), true),
        None => (
            http::format_response_with(status, &body, keep_alive, content_type, &extra),
            !keep_alive,
        ),
    };
    // Counted only now, with the response bytes already built: a
    // /metrics scrape observes every request but its own, so the
    // scraped totals reconcile exactly with client-side truth.
    let elapsed = started.elapsed();
    if let Some(reg) = &config.metrics {
        reg.record_request(route, status, elapsed.as_nanos() as u64, body.len() as u64);
    }
    if let Some(log) = config.log.as_deref().filter(|log| log.would_log(status)) {
        // A create names its session and tenant in the spec; every
        // other session route names its session in the path.
        let (session, tenant) = match &spec {
            Some(spec) => (Some(spec.id.as_str()), spec.tenant.as_deref()),
            None => (session, None),
        };
        log.record(&metrics::LogEntry {
            unix_millis: metrics::unix_millis_now(),
            route: route.name(),
            tenant,
            session,
            status,
            bytes: body.len() as u64,
            micros: elapsed.as_micros() as u64,
            worker: metrics::worker_id(),
        });
    }
    Done {
        token: job.token,
        generation: job.generation,
        bytes,
        close,
    }
}

/// Everything the event-loop thread owns.
struct Loop {
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    deadlines: Deadlines,
    idle_timeout: Duration,
    draining: bool,
    job_tx: Option<Sender<Job>>,
    /// Gauge/counter home for connection-lifecycle observability.
    metrics: Option<Arc<Metrics>>,
}

fn event_loop(
    listener: TcpListener,
    wake_rx: &UnixStream,
    shutdown: &AtomicBool,
    config: &Config,
    begin_drain: impl FnOnce(),
    job_tx: Sender<Job>,
    done_rx: &Receiver<Done>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let _ = wake_rx.set_nonblocking(true);
    let mut listener = Some(listener);
    let mut begin_drain = Some(begin_drain);
    let mut state = Loop::new(config, job_tx);
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) && !state.draining {
            state.draining = true;
            if let Some(hook) = begin_drain.take() {
                hook();
            }
            // Stop accepting: pending backlog connections are reset.
            listener = None;
            // Idle connections close now; in-flight requests finish
            // their response write first.
            for token in 0..state.slab.len() {
                let close_now = match &mut state.slab[token] {
                    Some(conn) if conn.busy || conn.wants_write() => {
                        conn.close_after_flush = true;
                        false
                    }
                    Some(_) => true,
                    None => false,
                };
                if close_now {
                    state.close(token);
                }
            }
        }
        if state.draining && state.live == 0 {
            // Dropping the job sender lets the workers drain and exit.
            state.job_tx = None;
            return;
        }

        fds.clear();
        tokens.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        let listener_at = listener.as_ref().map(|l| {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        let conns_at = fds.len();
        for (token, slot) in state.slab.iter().enumerate() {
            if let Some(conn) = slot {
                let mut events = 0;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                    tokens.push(token);
                }
            }
        }

        let timeout = state.deadlines.next_timeout(Instant::now());
        if polling::wait(&mut fds, timeout).is_err() {
            // poll(2) failing is unrecoverable for the loop: fall into
            // the drain path with what we hold rather than spin.
            shutdown.store(true, Ordering::SeqCst);
            continue;
        }

        if fds[0].readable() {
            if let Some(reg) = &state.metrics {
                reg.waker_wakeups.fetch_add(1, Ordering::Relaxed);
            }
            drain_waker(wake_rx);
        }
        while let Ok(done) = done_rx.try_recv() {
            state.complete(done);
        }
        if let (Some(at), Some(l)) = (listener_at, listener.as_ref()) {
            if fds[at].readable() {
                state.accept_all(l);
            }
        }
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[conns_at + i];
            if fd.writable() && state.slab[token].is_some() {
                state.on_writable(token);
            }
            if fd.readable() && state.slab[token].is_some() {
                state.on_readable(token);
            }
        }
        let now = Instant::now();
        while let Some((token, generation)) = state.deadlines.pop_due(now) {
            state.on_timer(token, generation, now);
        }
    }
}

fn drain_waker(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut wake_rx = wake_rx;
    while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
}

/// What [`Loop::drive_parser`] decided about the buffered bytes.
enum ParseStep {
    Dispatch(http::Request, u64),
    Reject(u16, &'static str),
    Kill,
}

impl Loop {
    fn new(config: &Config, job_tx: Sender<Job>) -> Self {
        Self {
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_generation: 0,
            deadlines: Deadlines::default(),
            idle_timeout: config.idle_timeout,
            draining: false,
            job_tx: Some(job_tx),
            metrics: config.metrics.clone(),
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.register(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // Transient (ECONNABORTED, EMFILE, ...): retry on the
                // next readiness round instead of spinning here.
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let now = Instant::now();
        self.next_generation += 1;
        let conn = Conn {
            stream,
            parser: RequestParser::new(),
            inbuf: Vec::new(),
            out: Vec::new(),
            written: 0,
            busy: false,
            close_after_flush: false,
            read_closed: false,
            generation: self.next_generation,
            last_activity: now,
        };
        let token = match self.free.pop() {
            Some(token) => {
                self.slab[token] = Some(conn);
                token
            }
            None => {
                self.slab.push(Some(conn));
                self.slab.len() - 1
            }
        };
        self.live += 1;
        if let Some(reg) = &self.metrics {
            reg.connections_open.fetch_add(1, Ordering::Relaxed);
            reg.slab_high_water
                .fetch_max(self.slab.len() as u64, Ordering::Relaxed);
        }
        self.deadlines
            .arm(now + self.idle_timeout, token, self.next_generation);
    }

    fn close(&mut self, token: usize) {
        if self.slab[token].take().is_some() {
            self.live -= 1;
            self.free.push(token);
            if let Some(reg) = &self.metrics {
                reg.connections_open.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn on_readable(&mut self, token: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.drive_parser(token);
        self.check_read_closed(token);
    }

    /// Feeds buffered bytes to the resumable parser: dispatch at most
    /// one request (serial per connection), or reject the message.
    fn drive_parser(&mut self, token: usize) {
        let step = {
            let draining = self.draining;
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            if conn.busy
                || !conn.out.is_empty()
                || conn.close_after_flush
                || draining
                || conn.inbuf.is_empty()
            {
                return;
            }
            match conn.parser.feed(&conn.inbuf) {
                Ok((consumed, Parsed::NeedMore)) => {
                    conn.inbuf.drain(..consumed);
                    return;
                }
                Ok((consumed, Parsed::Complete(request))) => {
                    conn.inbuf.drain(..consumed);
                    ParseStep::Dispatch(request, conn.generation)
                }
                Err(http::HttpError::TooLarge(what)) => ParseStep::Reject(413, what),
                Err(http::HttpError::Malformed(why)) => ParseStep::Reject(400, why),
                Err(_) => ParseStep::Kill,
            }
        };
        match step {
            ParseStep::Dispatch(request, generation) => {
                // Failpoint `conn.read`: the request is discarded
                // before it reaches the manager — the client sees a
                // dead connection and must retry an operation that was
                // never applied. Same site as the blocking front.
                #[cfg(feature = "fault-injection")]
                if let Some(action) = crate::fault::check(crate::fault::site::CONN_READ) {
                    match action {
                        crate::fault::FaultAction::Crash => std::process::abort(),
                        _ => {
                            self.close(token);
                            return;
                        }
                    }
                }
                if let Some(conn) = &mut self.slab[token] {
                    conn.busy = true;
                }
                let job = Job {
                    token,
                    generation,
                    request,
                };
                let sent = self.job_tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
                if !sent {
                    self.close(token);
                }
            }
            ParseStep::Reject(status, msg) => {
                self.respond(
                    token,
                    http::format_response(status, &api::error_body(msg), false, &[]),
                    true,
                );
            }
            ParseStep::Kill => self.close(token),
        }
    }

    /// Settles a half-closed connection once nothing is owed, on the
    /// parser's end-of-stream verdict: a clean
    /// [`http::HttpError::Closed`] between messages, a best-effort 400
    /// when the peer died mid-message.
    fn check_read_closed(&mut self, token: usize) {
        let verdict = {
            let Some(conn) = &self.slab[token] else {
                return;
            };
            if !conn.read_closed || conn.busy || !conn.out.is_empty() || !conn.inbuf.is_empty() {
                return;
            }
            conn.parser.eof()
        };
        match verdict {
            http::HttpError::Malformed(why) => {
                self.respond(
                    token,
                    http::format_response(400, &api::error_body(why), false, &[]),
                    true,
                );
            }
            _ => self.close(token),
        }
    }

    /// A worker finished a request: stage the serialized response (or
    /// the injected absence of one) for nonblocking write.
    fn complete(&mut self, done: Done) {
        let injected_drop = {
            let Some(conn) = &mut self.slab[done.token] else {
                return; // connection died while the request executed
            };
            if conn.generation != done.generation {
                return; // token was reused; response belongs to a ghost
            }
            conn.busy = false;
            done.bytes.is_empty()
        };
        if injected_drop {
            // The operation was applied; the response evaporates.
            self.close(done.token);
            return;
        }
        self.respond(done.token, done.bytes, done.close);
    }

    /// Stages `bytes` as the connection's response and attempts the
    /// write immediately (most responses flush in one syscall without
    /// another poll round).
    fn respond(&mut self, token: usize, bytes: Vec<u8>, close: bool) {
        {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            debug_assert!(conn.out.is_empty(), "one response at a time");
            conn.out = bytes;
            conn.written = 0;
            conn.close_after_flush |= close;
        }
        self.on_writable(token);
    }

    /// Resumes a partial response write; on completion either closes
    /// or re-enters keep-alive (and parses any pipelined bytes already
    /// buffered).
    fn on_writable(&mut self, token: usize) {
        enum Outcome {
            Flushed,
            Pending,
            Dead,
        }
        let outcome = {
            let Some(conn) = &mut self.slab[token] else {
                return;
            };
            loop {
                if conn.written >= conn.out.len() {
                    let _ = conn.stream.flush();
                    conn.out = Vec::new();
                    conn.written = 0;
                    conn.last_activity = Instant::now();
                    break Outcome::Flushed;
                }
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(0) => break Outcome::Dead,
                    Ok(n) => {
                        conn.written += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Outcome::Pending,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    // A half-written response cannot be resumed on a
                    // broken transport and must never be followed by
                    // another response: the connection dies here.
                    Err(_) => break Outcome::Dead,
                }
            }
        };
        match outcome {
            Outcome::Pending => {}
            Outcome::Dead => self.close(token),
            Outcome::Flushed => {
                let close_now = self.slab[token]
                    .as_ref()
                    .is_some_and(|conn| conn.close_after_flush);
                if close_now || self.draining {
                    self.close(token);
                    return;
                }
                // The connection's one deadline entry, still armed,
                // re-arms from the refreshed activity clock when due.
                self.drive_parser(token);
                self.check_read_closed(token);
            }
        }
    }

    /// A deadline passed for `(token, generation)`: reap if the
    /// connection has genuinely stalled, otherwise re-arm its one entry
    /// for the remainder.
    fn on_timer(&mut self, token: usize, generation: u64, now: Instant) {
        let rearm_at = {
            let Some(conn) = &self.slab[token] else {
                return;
            };
            if conn.generation != generation {
                return;
            }
            if conn.busy {
                // The server owes a response; the executor's latency
                // is not the peer's idleness. Check again in a while.
                Some(now + self.idle_timeout)
            } else {
                let deadline = conn.last_activity + self.idle_timeout;
                if now >= deadline {
                    // Idle past the keep-alive deadline, or stalled
                    // mid-message / mid-response with no transport
                    // progress for a full timeout: reclaim the fd.
                    None
                } else {
                    Some(deadline)
                }
            }
        };
        match rearm_at {
            Some(deadline) => self.deadlines.arm(deadline, token, generation),
            None => {
                if let Some(reg) = &self.metrics {
                    reg.timer_reaps.fetch_add(1, Ordering::Relaxed);
                }
                self.close(token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_pop_in_order_once_passed_and_bound_the_sleep() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut deadlines = Deadlines::default();
        assert_eq!(deadlines.next_timeout(t0), None, "nothing armed");
        deadlines.arm(t0 + ms(500), 0, 1);
        deadlines.arm(t0 + ms(150), 1, 2);
        assert_eq!(deadlines.next_timeout(t0), Some(ms(150)));
        // Sub-millisecond and already-passed deadlines sleep one whole
        // millisecond rather than spinning at a zero timeout.
        let sub_ms = Duration::from_micros(300);
        assert_eq!(deadlines.next_timeout(t0 + ms(150) - sub_ms), Some(ms(1)));
        assert_eq!(deadlines.next_timeout(t0 + ms(400)), Some(ms(1)));
        assert_eq!(
            deadlines.pop_due(t0 + ms(150)),
            None,
            "due only once passed"
        );
        assert_eq!(deadlines.pop_due(t0 + ms(600)), Some((1, 2)));
        assert_eq!(deadlines.pop_due(t0 + ms(600)), Some((0, 1)));
        assert_eq!(deadlines.pop_due(t0 + ms(600)), None);
    }

    #[test]
    fn timer_skips_stale_generations_and_rearms_busy_or_active_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let config = Config {
            workers: 1,
            idle_timeout: Duration::from_secs(30),
            metrics: None,
            log: None,
        };
        let mut state = Loop::new(&config, channel().0);
        state.register(listener.accept().unwrap().0); // token 0, generation 1
        let t0 = state.slab[0].as_ref().unwrap().last_activity;
        let at = |secs| t0 + Duration::from_secs(secs);
        // An entry whose token was reused since: ignored, not re-armed.
        state.on_timer(0, 0, at(31));
        // Busy: the server owes a response, so re-arm a timeout from now.
        state.slab[0].as_mut().unwrap().busy = true;
        state.on_timer(0, 1, at(31));
        // Progress 40 s in: re-arm a timeout after that progress.
        let conn = state.slab[0].as_mut().unwrap();
        (conn.busy, conn.last_activity) = (false, at(40));
        state.on_timer(0, 1, at(61));
        assert!(state.slab[0].is_some());
        // Idle past its deadline: reaped, and nothing re-arms.
        state.on_timer(0, 1, at(70));
        assert!(state.slab[0].is_none() && state.live == 0);
        let mut armed: Vec<Instant> = state.deadlines.0.iter().map(|e| e.0 .0).collect();
        armed.sort();
        assert_eq!(armed, vec![at(30), at(61), at(70)]);
    }
}
