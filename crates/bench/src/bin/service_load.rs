//! Load generator for the session service: boots a live `kgae-serve`
//! stack (or targets an already-running one), replays NELL annotation
//! streams from N concurrent HTTP clients, and reports
//! throughput/latency into `BENCH_eval.json` (schema_version 9).
//!
//! Every client completes whole evaluation campaigns — create → poll →
//! label (ground truth) → submit → converge — over real TCP with
//! keep-alive connections, exactly the traffic shape of a crowdsourcing
//! frontend. After the load phase, one session is driven through the
//! suspend → evict → resume path and must restore **bit-identically**:
//! the stored snapshot bytes before and after the disk round trip are
//! compared, the evicted session's view must equal its view before
//! `evict` apart from its state and snapshot size, and the interrupted
//! campaign's final status must equal an uninterrupted same-seed run.
//!
//! A second, fault-injected leg then reruns campaigns through a seeded
//! chaos proxy that tears and drops HTTP responses mid-flight; the
//! clients ride a [`RetryPolicy`] and the submit fence, and every
//! chaotic campaign's final status must equal a fault-free same-seed
//! twin — zero lost batches, zero double-applied batches. Its numbers
//! land in the `fault_load` row of `BENCH_eval.json`.
//!
//! A third leg exercises the readiness reactor the way thread-per-
//! connection never could: `--connections` (default 2000) mostly-idle
//! keep-alive connections are held open on a server with a handful of
//! workers while active clients run campaigns through the same event
//! loop. Request latency percentiles under that connection load, and
//! proof that every idle connection survived, land in the
//! `reactor_load` row.
//!
//! Two observability legs close the loop on the `/metrics` registry.
//! The reactor leg reruns with the registry recording and its p50 must
//! stay within noise of the metrics-off run (`metrics_overhead` row).
//! A reconciliation leg then replays campaigns against a server with a
//! deliberately tight session quota, scrapes `/metrics` before and
//! after, and requires every counter delta — requests, creations,
//! finishes, evictions, 429 refusals — to equal the count the clients
//! themselves kept (`metrics_reconciliation` row). An off-by-one at
//! any recording site fails the run.
//!
//! ```text
//! service_load [--clients N] [--reps R] [--batch B] [--workers W]
//!              [--fault-clients N] [--fault-reps R]
//!              [--connections N]       # reactor leg (default 2000)
//!              [--out PATH]            # load mode (default)
//! service_load --smoke [--port P]     # CI smoke: campaigns + parity +
//!                                      # stratified/monitor/chaos legs
//! service_load --reactor-smoke [--port P] [--connections N]
//!                                      # CI smoke: N idle conns, p99 gate,
//!                                      # /metrics reconciliation +
//!                                      # target/smoke-requests.count
//! ```
//!
//! Exits non-zero on any failure — a broken server cannot green-wash a
//! CI run.

use kgae_bench::arg_value;
use kgae_client::{Client, ClientError, RetryPolicy, SessionInfo};
use kgae_core::{DeltaBatch, StopReason};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, TripleId};
use kgae_service::api::SessionSpec;
use kgae_service::json::{self, Json};
use kgae_service::manager::{DatasetRegistry, SessionState};
use kgae_service::{ManagerLimits, Metrics, Server, SessionManager, SnapshotStore};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A seeded chaos proxy: forwards TCP byte streams between the clients
/// and the real server, but on a seeded schedule tears a server
/// response mid-bytes (forwarding a random prefix, possibly empty) and
/// kills the connection — exactly the ambiguous "did my request
/// execute?" failure the retry layer must survive. Requests reach the
/// server verbatim; only the response direction is faulted, so every
/// injected fault is a *lost response to an executed request*, the
/// worst case for exactly-once submission.
mod chaos {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    pub struct Proxy {
        addr: SocketAddr,
        faults: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    }

    impl Proxy {
        /// Boots the proxy on an ephemeral port in front of `upstream`.
        /// Each chunk read from the server fires a fault with
        /// probability `fault_prob`, drawn from one RNG seeded with
        /// `seed` (shared across connections, so the schedule is
        /// reproducible for a single client and statistically stable
        /// under concurrency).
        pub fn spawn(upstream: SocketAddr, seed: u64, fault_prob: f64) -> std::io::Result<Proxy> {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let faults = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let rng = Arc::new(Mutex::new(SmallRng::seed_from_u64(seed)));
            {
                let (faults, stop) = (Arc::clone(&faults), Arc::clone(&stop));
                std::thread::spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(down) = conn else { continue };
                        let Ok(up) = TcpStream::connect(upstream) else {
                            continue;
                        };
                        let (Ok(down2), Ok(up2)) = (down.try_clone(), up.try_clone()) else {
                            continue;
                        };
                        // Client → server: forwarded verbatim.
                        std::thread::spawn(move || pump(down, up, None));
                        // Server → client: rides the fault schedule.
                        let schedule = Some((Arc::clone(&rng), fault_prob, Arc::clone(&faults)));
                        std::thread::spawn(move || pump(up2, down2, schedule));
                    }
                });
            }
            Ok(Proxy { addr, faults, stop })
        }

        pub fn addr(&self) -> SocketAddr {
            self.addr
        }

        pub fn faults(&self) -> u64 {
            self.faults.load(Ordering::SeqCst)
        }
    }

    impl Drop for Proxy {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            // Unblock the accept loop so the thread notices the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    type Schedule = (Arc<Mutex<SmallRng>>, f64, Arc<AtomicU64>);

    fn pump(mut from: TcpStream, mut to: TcpStream, schedule: Option<Schedule>) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if let Some((rng, prob, faults)) = &schedule {
                let (fire, cut) = {
                    let mut rng = rng
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    (rng.gen_bool(*prob), rng.gen_range(0..n))
                };
                if fire {
                    faults.fetch_add(1, Ordering::SeqCst);
                    // Tear: a prefix (possibly empty) gets through,
                    // then the connection dies mid-response.
                    let _ = to.write_all(&buf[..cut]);
                    break;
                }
            }
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        // Killing both directions of both sockets also stops the
        // sibling pump thread for this connection.
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    }
}

fn spec(id: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        id: id.into(),
        dataset: "nell".into(),
        design: "srs".parse().expect("srs parses"),
        method: "ahpd".parse().expect("ahpd parses"),
        seed,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: None,
    }
}

/// Drives one campaign to convergence; returns the number of HTTP calls
/// and pushes per-call latencies (seconds).
fn run_campaign(
    client: &mut Client,
    kg: &CompactKg,
    id: &str,
    seed: u64,
    batch: u64,
    latencies: &mut Vec<f64>,
) -> Result<u64, String> {
    let mut calls = 0u64;
    let mut timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
        let t0 = Instant::now();
        f()?;
        latencies.push(t0.elapsed().as_secs_f64());
        calls += 1;
        Ok(())
    };
    timed(&mut || match client.create(&spec(id, seed)) {
        Ok(_) => Ok(()),
        // A replayed create after a lost response: 409 `session_exists`
        // proves the first one landed — confirm by reading it back.
        Err(ClientError::Api {
            status: 409,
            ref code,
            ..
        }) if code.as_deref() == Some("session_exists") => client
            .status(id)
            .map(|_| ())
            .map_err(|e| format!("create-verify {id}: {e}")),
        Err(e) => Err(format!("create {id}: {e}")),
    })?;
    loop {
        let mut done = false;
        let mut labels: Vec<bool> = Vec::new();
        timed(&mut || {
            let request = client
                .next_request(id, batch)
                .map_err(|e| format!("next {id}: {e}"))?;
            done = request.done;
            labels = request
                .triples
                .iter()
                .map(|t| kg.is_correct(TripleId(t.triple)))
                .collect();
            Ok(())
        })?;
        if done {
            break;
        }
        timed(&mut || {
            client
                .submit(id, &labels)
                .map(|_| ())
                .map_err(|e| format!("submit {id}: {e}"))
        })?;
    }
    let status = client.status(id).map_err(|e| format!("status {id}: {e}"))?;
    if status.state != SessionState::Finished
        || status.status.stopped != Some(StopReason::MoeSatisfied)
    {
        return Err(format!("campaign {id} did not converge: {status:?}"));
    }
    Ok(calls + 1)
}

/// Suspend → evict → resume on a mid-flight campaign; verifies snapshot
/// byte-identity across the disk round trip and final-status parity
/// with an uninterrupted same-seed campaign.
fn verify_suspend_evict_resume(addr: SocketAddr, kg: &CompactKg, batch: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let seed = 0x5E55_1011;
    client
        .create(&spec("parity-probe", seed))
        .map_err(|e| format!("create probe: {e}"))?;
    for _ in 0..3 {
        let request = client
            .next_request("parity-probe", batch)
            .map_err(|e| format!("probe next: {e}"))?;
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|t| kg.is_correct(TripleId(t.triple)))
            .collect();
        client
            .submit("parity-probe", &labels)
            .map_err(|e| format!("probe submit: {e}"))?;
    }
    client
        .suspend("parity-probe")
        .map_err(|e| format!("suspend: {e}"))?;
    let before = client
        .snapshot("parity-probe")
        .map_err(|e| format!("snapshot before: {e}"))?;
    let view = client
        .status("parity-probe")
        .map_err(|e| format!("status before evict: {e}"))?;
    client
        .evict("parity-probe")
        .map_err(|e| format!("evict: {e}"))?;
    // The evicted view is derived from the stored snapshot: it must
    // match the view before `evict` apart from where the session lives.
    let evicted = client
        .status("parity-probe")
        .map_err(|e| format!("status after evict: {e}"))?;
    let derived = SessionInfo {
        state: view.state,
        snapshot_bytes: view.snapshot_bytes,
        ..evicted.clone()
    };
    if evicted.state != SessionState::Evicted || derived != view {
        return Err(format!(
            "the evicted view differs from the view before evict:\n  before {view:?}\n  evicted {evicted:?}"
        ));
    }
    client
        .resume("parity-probe")
        .map_err(|e| format!("resume: {e}"))?;
    client
        .suspend("parity-probe")
        .map_err(|e| format!("re-suspend: {e}"))?;
    let after = client
        .snapshot("parity-probe")
        .map_err(|e| format!("snapshot after: {e}"))?;
    if before != after {
        return Err(format!(
            "snapshot bytes diverged across the disk round trip \
             ({} vs {} bytes)",
            before.len(),
            after.len()
        ));
    }
    client
        .resume("parity-probe")
        .map_err(|e| format!("resume 2: {e}"))?;

    // Drive both the interrupted probe and a straight twin to the end.
    let mut scratch = Vec::new();
    for (id, seed) in [("parity-probe", seed), ("parity-straight", seed)] {
        if id == "parity-straight" {
            run_campaign(&mut client, kg, id, seed, batch, &mut scratch)?;
        } else {
            loop {
                let request = client
                    .next_request(id, batch)
                    .map_err(|e| format!("{id} next: {e}"))?;
                if request.done {
                    break;
                }
                let labels: Vec<bool> = request
                    .triples
                    .iter()
                    .map(|t| kg.is_correct(TripleId(t.triple)))
                    .collect();
                client
                    .submit(id, &labels)
                    .map_err(|e| format!("{id} submit: {e}"))?;
            }
        }
    }
    let interrupted = client
        .status("parity-probe")
        .map_err(|e| format!("probe status: {e}"))?;
    let straight = client
        .status("parity-straight")
        .map_err(|e| format!("straight status: {e}"))?;
    if interrupted.status != straight.status {
        return Err(format!(
            "suspend→evict→resume changed the outcome:\n  interrupted {:?}\n  straight {:?}",
            interrupted.status, straight.status
        ));
    }
    eprintln!(
        "parity: suspend→evict→resume byte-identical ({} B snapshot), \
         evicted view equals the view before evict, \
         final status equals the uninterrupted twin",
        before.len()
    );
    Ok(())
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct LoadReport {
    clients: u64,
    sessions: u64,
    requests: u64,
    wall_seconds: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    batch: u64,
}

fn run_load(
    addr: SocketAddr,
    kg: &CompactKg,
    clients: u64,
    reps: u64,
    batch: u64,
) -> Result<LoadReport, String> {
    let t0 = Instant::now();
    let mut all_latencies: Vec<Vec<f64>> = Vec::new();
    let mut total_requests = 0u64;
    let outcomes: Vec<Result<(u64, Vec<f64>), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<(u64, Vec<f64>), String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("client {c} connect: {e}"))?;
                    let mut latencies = Vec::new();
                    let mut requests = 0u64;
                    for r in 0..reps {
                        let id = format!("load-c{c}-r{r}");
                        let seed = 0xBE5C_0000 + c * 1000 + r;
                        requests +=
                            run_campaign(&mut client, kg, &id, seed, batch, &mut latencies)?;
                    }
                    Ok((requests, latencies))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("load client thread"))
            .collect()
    });
    for outcome in outcomes {
        let (requests, latencies) = outcome?;
        total_requests += requests;
        all_latencies.push(latencies);
    }
    let wall_seconds = t0.elapsed().as_secs_f64();

    // A parity failure aborts the whole run (non-zero exit) before any
    // report is written, so a written report always reflects a pass.
    verify_suspend_evict_resume(addr, kg, batch)?;

    let mut latencies: Vec<f64> = all_latencies.into_iter().flatten().collect();
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    Ok(LoadReport {
        clients,
        sessions: clients * reps,
        requests: total_requests,
        wall_seconds,
        mean_ms: mean * 1e3,
        p50_ms: percentile(&latencies, 0.50) * 1e3,
        p99_ms: percentile(&latencies, 0.99) * 1e3,
        batch,
    })
}

struct FaultLoadReport {
    clients: u64,
    sessions: u64,
    faults: u64,
    fault_prob: f64,
}

fn chaos_seed(c: u64, r: u64) -> u64 {
    0xC4A0_0000 + c * 1000 + r
}

/// The retry posture for clients living behind the chaos proxy: fast,
/// persistent, and with per-client jitter streams so their backoff
/// schedules don't synchronize.
fn chaos_policy(c: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 16,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(50),
        deadline: Duration::from_secs(120),
        jitter_seed: 0xC4A0 + c,
    }
}

/// The fault-injected leg: `clients × reps` campaigns run behind the
/// chaos proxy with retry policies attached, then the same seeds rerun
/// fault-free on a direct connection. Every chaotic campaign's final
/// status must equal its twin's — a lost batch or a double-applied
/// batch diverges the observation count or the estimate, so equality is
/// the zero-lost / zero-duplicated proof.
fn run_fault_load(
    addr: SocketAddr,
    kg: &CompactKg,
    clients: u64,
    reps: u64,
    batch: u64,
) -> Result<FaultLoadReport, String> {
    const FAULT_PROB: f64 = 0.12;
    let proxy = chaos::Proxy::spawn(addr, 0xC4A0_5EED, FAULT_PROB)
        .map_err(|e| format!("chaos proxy: {e}"))?;
    let proxied = proxy.addr();
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(proxied)
                        .map_err(|e| format!("chaos client {c} connect: {e}"))?
                        .with_retry(chaos_policy(c));
                    let mut scratch = Vec::new();
                    for r in 0..reps {
                        let id = format!("chaos-c{c}-r{r}");
                        run_campaign(&mut client, kg, &id, chaos_seed(c, r), batch, &mut scratch)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("chaos client thread"))
            .collect()
    });
    for outcome in outcomes {
        outcome?;
    }
    let faults = proxy.faults();
    drop(proxy);
    if faults == 0 {
        return Err("chaos proxy injected zero faults — the leg proved nothing".into());
    }

    let mut direct = Client::connect(addr).map_err(|e| format!("twin connect: {e}"))?;
    let mut scratch = Vec::new();
    for c in 0..clients {
        for r in 0..reps {
            let twin_id = format!("chaos-twin-c{c}-r{r}");
            run_campaign(
                &mut direct,
                kg,
                &twin_id,
                chaos_seed(c, r),
                batch,
                &mut scratch,
            )?;
            let chaotic_id = format!("chaos-c{c}-r{r}");
            let chaotic = direct
                .status(&chaotic_id)
                .map_err(|e| format!("status {chaotic_id}: {e}"))?;
            let twin = direct
                .status(&twin_id)
                .map_err(|e| format!("status {twin_id}: {e}"))?;
            if chaotic.status != twin.status {
                return Err(format!(
                    "campaign {chaotic_id} diverged from its fault-free twin under \
                     injected faults (a batch was lost or double-applied):\n  \
                     chaotic {:?}\n  twin {:?}",
                    chaotic.status, twin.status
                ));
            }
        }
    }
    Ok(FaultLoadReport {
        clients,
        sessions: clients * reps,
        faults,
        fault_prob: FAULT_PROB,
    })
}

struct ReactorReport {
    connections: u64,
    active_clients: u64,
    workers: u64,
    sessions: u64,
    requests: u64,
    wall_seconds: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// One raw keep-alive health round trip on an already-open socket.
/// Used for the idle-connection fleet, where a full [`Client`] per
/// socket would be needless weight.
fn raw_health(conn: &mut TcpStream) -> Result<(), String> {
    conn.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .map_err(|e| format!("health write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(header_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let headers = String::from_utf8_lossy(&buf[..header_end]).to_ascii_lowercase();
            if !headers.starts_with("http/1.1 200") {
                return Err(format!(
                    "health status: {}",
                    headers.lines().next().unwrap_or("")
                ));
            }
            let content_length: usize = headers
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            let total = header_end + 4 + content_length;
            while buf.len() < total {
                match conn.read(&mut chunk) {
                    Ok(0) => return Err("connection closed mid-health-body".into()),
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    Err(e) => return Err(format!("health body read: {e}")),
                }
            }
            return Ok(());
        }
        match conn.read(&mut chunk) {
            Ok(0) => return Err("connection closed before health response".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("health read: {e}")),
        }
    }
}

/// Opens `n` keep-alive connections, each proven live with one health
/// round trip. They then sit idle — costing the reactor one slab slot
/// and zero threads — until verified and dropped by the caller.
fn open_idle_fleet(addr: SocketAddr, n: u64) -> Result<Vec<TcpStream>, String> {
    let mut fleet = Vec::with_capacity(n as usize);
    for i in 0..n {
        let mut conn = TcpStream::connect(addr)
            .map_err(|e| format!("idle conn {i}/{n}: connect: {e} (fd limit? raise ulimit -n)"))?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("idle conn {i}: timeout: {e}"))?;
        raw_health(&mut conn).map_err(|e| format!("idle conn {i}: {e}"))?;
        fleet.push(conn);
    }
    Ok(fleet)
}

/// Verifies every held connection still answers a request — the proof
/// that the server held all of them concurrently the whole time rather
/// than shedding quiet ones.
fn verify_idle_fleet(fleet: &mut [TcpStream]) -> Result<(), String> {
    for (i, conn) in fleet.iter_mut().enumerate() {
        raw_health(conn).map_err(|e| format!("idle conn {i} did not survive: {e}"))?;
    }
    Ok(())
}

/// The reactor leg: a server with a handful of workers holds
/// `connections` mostly-idle keep-alive connections while
/// `active_clients` clients run campaigns through the same event loop.
/// Latency percentiles are measured under that connection load; every
/// idle connection must still answer afterwards, and a sampled campaign
/// must finish status-identical to a sequential same-seed twin.
///
/// With `metrics_on` the whole run additionally records into a live
/// `/metrics` registry — the rerun the `metrics_overhead` row compares
/// against the bare run — and the reactor gauges must prove they saw
/// the fleet (slab high-water ≥ the connection count).
fn run_reactor_load(
    kg: &CompactKg,
    connections: u64,
    active_clients: u64,
    reps: u64,
    batch: u64,
    metrics_on: bool,
) -> Result<ReactorReport, String> {
    const REACTOR_WORKERS: usize = 4;
    let registry = DatasetRegistry::standard();
    let store_dir = std::env::temp_dir().join(format!(
        "kgae-reactor-load-{}-{}",
        if metrics_on { "on" } else { "off" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).map_err(|e| format!("store: {e}"))?;
    let metrics = metrics_on.then(|| Arc::new(Metrics::new()));
    let mut manager = SessionManager::new(&registry, store, 16);
    if let Some(reg) = &metrics {
        manager.set_metrics(Arc::clone(reg));
    }
    let manager = manager;
    // Idle reaping stays on (it is the subsystem under test elsewhere)
    // but far beyond the run's horizon, so a held connection can only
    // vanish through a real server defect.
    let mut server = Server::bind("127.0.0.1:0", REACTOR_WORKERS)
        .map_err(|e| format!("bind: {e}"))?
        .with_idle_timeout(Duration::from_secs(600));
    if let Some(reg) = &metrics {
        server = server.with_metrics(Arc::clone(reg));
    }
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let outcome = std::thread::scope(|scope| -> Result<ReactorReport, String> {
        let server_thread = scope.spawn(|| server.run(&manager));
        let result = (|| {
            let mut fleet = open_idle_fleet(addr, connections)?;
            let t0 = Instant::now();
            let outcomes: Vec<Result<(u64, Vec<f64>), String>> = std::thread::scope(|inner| {
                let handles: Vec<_> = (0..active_clients)
                    .map(|c| {
                        inner.spawn(move || -> Result<(u64, Vec<f64>), String> {
                            let mut client = Client::connect(addr)
                                .map_err(|e| format!("active client {c}: {e}"))?;
                            let mut latencies = Vec::new();
                            let mut requests = 0u64;
                            for r in 0..reps {
                                let id = format!("reactor-c{c}-r{r}");
                                let seed = 0x7EAC_0000 + c * 1000 + r;
                                requests += run_campaign(
                                    &mut client,
                                    kg,
                                    &id,
                                    seed,
                                    batch,
                                    &mut latencies,
                                )?;
                            }
                            Ok((requests, latencies))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("reactor load client thread"))
                    .collect()
            });
            let wall_seconds = t0.elapsed().as_secs_f64();
            let mut latencies = Vec::new();
            let mut requests = 0u64;
            for outcome in outcomes {
                let (calls, lats) = outcome?;
                requests += calls;
                latencies.extend(lats);
            }
            verify_idle_fleet(&mut fleet)?;
            drop(fleet);

            // Sequential twin: the c0-r0 campaign rerun alone must land
            // on the same final status it reached under 2000-connection
            // concurrency.
            let mut twin_client =
                Client::connect(addr).map_err(|e| format!("twin connect: {e}"))?;
            let mut scratch = Vec::new();
            run_campaign(
                &mut twin_client,
                kg,
                "reactor-twin",
                0x7EAC_0000,
                batch,
                &mut scratch,
            )?;
            let loaded = twin_client
                .status("reactor-c0-r0")
                .map_err(|e| format!("status reactor-c0-r0: {e}"))?;
            let twin = twin_client
                .status("reactor-twin")
                .map_err(|e| format!("status reactor-twin: {e}"))?;
            if loaded.status != twin.status {
                return Err(format!(
                    "campaign under connection load diverged from its sequential twin:\n  \
                     loaded {:?}\n  twin {:?}",
                    loaded.status, twin.status
                ));
            }

            // Metrics-on rerun: the reactor gauges must have watched
            // the fleet — a slab high-water below the connection count
            // means the instrumentation missed registrations.
            if metrics_on {
                let scrape = twin_client
                    .metrics()
                    .map_err(|e| format!("reactor scrape: {e}"))?;
                let high_water = scrape
                    .get("kgae_reactor_slab_high_water")
                    .copied()
                    .unwrap_or(0.0) as u64;
                if high_water < connections {
                    return Err(format!(
                        "reactor slab high-water {high_water} never covered the \
                         {connections}-connection fleet"
                    ));
                }
            }

            latencies.sort_by(f64::total_cmp);
            Ok(ReactorReport {
                connections,
                active_clients,
                workers: REACTOR_WORKERS as u64,
                sessions: active_clients * reps,
                requests,
                wall_seconds,
                p50_ms: percentile(&latencies, 0.50) * 1e3,
                p99_ms: percentile(&latencies, 0.99) * 1e3,
            })
        })();
        handle.shutdown();
        server_thread.join().expect("reactor load server thread");
        result
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    outcome
}

/// Sums every sample of one counter family in a parsed `/metrics`
/// scrape (map keys carry their label sets verbatim, so a family is a
/// bare name plus every `family{...}` labelled variant).
fn family_sum(scrape: &BTreeMap<String, f64>, family: &str) -> u64 {
    let labelled = format!("{family}{{");
    scrape
        .iter()
        .filter(|(name, _)| name.as_str() == family || name.starts_with(&labelled))
        .map(|(_, value)| value)
        .sum::<f64>()
        .round() as u64
}

/// One exactly-reconciled exposition counter, as a rounded integer.
fn scraped(scrape: &BTreeMap<String, f64>, name: &str) -> u64 {
    scrape.get(name).copied().unwrap_or(0.0).round() as u64
}

struct ReconReport {
    clients: u64,
    sessions: u64,
    http_requests: u64,
    evictions: u64,
    quota_refusals: u64,
}

/// The reconciliation leg: campaigns run against a metrics-enabled
/// server whose session quota leaves only `QUOTA_HEADROOM` slots of
/// slack, `/metrics` is scraped before and after, and every counter
/// delta must equal the count the clients kept themselves — requests
/// written to the socket, sessions created, campaigns finished,
/// evictions performed, 429 refusals observed. The first scrape is
/// recorded after its own response is built, so it shows up in the
/// second scrape's delta and the accounting closes exactly.
fn run_metrics_reconciliation(
    kg: &CompactKg,
    clients: u64,
    reps: u64,
    batch: u64,
) -> Result<ReconReport, String> {
    const QUOTA_HEADROOM: u64 = 2;
    const QUOTA_ATTEMPTS: u64 = 6;
    let registry = DatasetRegistry::standard();
    let store_dir = std::env::temp_dir().join(format!("kgae-recon-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).map_err(|e| format!("store: {e}"))?;
    let metrics = Arc::new(Metrics::new());
    let mut manager = SessionManager::with_limits(
        &registry,
        store,
        16,
        ManagerLimits {
            max_sessions_per_tenant: None,
            // Finished sessions hold their quota slot until deleted
            // (eviction moves bytes, not ownership), so after the
            // campaigns exactly QUOTA_HEADROOM creates can succeed.
            max_total_sessions: Some((clients * reps + QUOTA_HEADROOM) as usize),
            retry_after_secs: 1,
        },
    );
    manager.set_metrics(Arc::clone(&metrics));
    let manager = manager;
    let server = Server::bind("127.0.0.1:0", 4)
        .map_err(|e| format!("bind: {e}"))?
        .with_metrics(Arc::clone(&metrics));
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let outcome = std::thread::scope(|scope| -> Result<ReconReport, String> {
        let server_thread = scope.spawn(|| server.run(&manager));
        let result = (|| {
            let mut probe = Client::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
            let before = probe.metrics().map_err(|e| format!("scrape 1: {e}"))?;

            let outcomes: Vec<Result<u64, String>> = std::thread::scope(|inner| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        inner.spawn(move || -> Result<u64, String> {
                            let mut client = Client::connect(addr)
                                .map_err(|e| format!("recon client {c}: {e}"))?;
                            let mut scratch = Vec::new();
                            for r in 0..reps {
                                let id = format!("recon-c{c}-r{r}");
                                let seed = 0x4EC0_0000 + c * 1000 + r;
                                run_campaign(&mut client, kg, &id, seed, batch, &mut scratch)?;
                            }
                            Ok(client.requests_sent())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("recon client thread"))
                    .collect()
            });
            let mut campaign_sent = 0u64;
            for outcome in outcomes {
                campaign_sent += outcome?;
            }

            // Client-side eviction truth: one finished campaign per
            // client is pushed to disk.
            let mut evictions = 0u64;
            for c in 0..clients {
                probe
                    .evict(&format!("recon-c{c}-r0"))
                    .map_err(|e| format!("evict recon-c{c}-r0: {e}"))?;
                evictions += 1;
            }

            // Quota truth: the headroom admits a couple more creates,
            // then the ceiling answers 429 — counted exactly as the
            // client sees them (no retry policy, one error per send).
            let (mut quota_created, mut quota_refused) = (0u64, 0u64);
            for i in 0..QUOTA_ATTEMPTS {
                match probe.create(&spec(&format!("recon-quota-{i}"), 0x4EC0_4290 + i)) {
                    Ok(_) => quota_created += 1,
                    Err(ClientError::Api { status: 429, .. }) => quota_refused += 1,
                    Err(e) => return Err(format!("quota create {i}: {e}")),
                }
            }
            if quota_refused == 0 {
                return Err(
                    "quota ceiling never refused — the 429 counter went unexercised".into(),
                );
            }

            // Captured before the second scrape, which therefore counts
            // neither itself nor this read.
            let probe_sent = probe.requests_sent();
            let after = probe.metrics().map_err(|e| format!("scrape 2: {e}"))?;

            let requests_delta = family_sum(&after, "kgae_requests_total")
                - family_sum(&before, "kgae_requests_total");
            let delta = |name: &str| scraped(&after, name) - scraped(&before, name);
            let refused_line = "kgae_requests_total{route=\"session_create\",status=\"429\"}";
            for (what, registry_says, clients_counted) in [
                ("http requests", requests_delta, campaign_sent + probe_sent),
                (
                    "sessions created",
                    delta("kgae_sessions_created_total"),
                    clients * reps + quota_created,
                ),
                (
                    "sessions finished",
                    delta("kgae_sessions_finished_total"),
                    clients * reps,
                ),
                (
                    "sessions evicted",
                    delta("kgae_sessions_evicted_total"),
                    evictions,
                ),
                (
                    "quota refusals",
                    delta("kgae_quota_refusals_total"),
                    quota_refused,
                ),
                ("429-status creates", delta(refused_line), quota_refused),
            ] {
                if registry_says != clients_counted {
                    return Err(format!(
                        "metrics reconciliation: {what}: the registry says {registry_says}, \
                         the clients counted {clients_counted}"
                    ));
                }
            }
            Ok(ReconReport {
                clients,
                sessions: clients * reps,
                http_requests: requests_delta,
                evictions,
                quota_refusals: quota_refused,
            })
        })();
        handle.shutdown();
        server_thread.join().expect("recon server thread");
        result
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    outcome
}

/// The CI-sized reactor leg against an already-listening (or local)
/// server: `connections` idle keep-alive sockets held open, one
/// campaign driven through the loaded reactor with a hard p99 latency
/// gate, and every idle socket verified live afterwards. The server's
/// request counter is then reconciled against the exact number of
/// requests this function sent (the idle fleet costs two health round
/// trips per connection; everything else goes through the client), and
/// the counter value the *next* reader will see — CI scrapes `/metrics`
/// once more before SIGTERM — is written to
/// `target/smoke-requests.count`. Expects a freshly booted server with
/// metrics enabled (the default).
fn run_reactor_smoke(addr: SocketAddr, kg: &CompactKg, connections: u64) -> Result<(), String> {
    const P99_GATE_MS: f64 = 50.0;
    let mut fleet = open_idle_fleet(addr, connections)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut latencies = Vec::new();
    run_campaign(
        &mut client,
        kg,
        "reactor-smoke",
        0x7EAC_500E,
        16,
        &mut latencies,
    )?;
    verify_idle_fleet(&mut fleet)?;
    drop(fleet);
    client
        .delete("reactor-smoke")
        .map_err(|e| format!("delete reactor-smoke: {e}"))?;
    let sent_before_scrape = client.requests_sent();
    let scrape = client
        .metrics()
        .map_err(|e| format!("metrics scrape: {e}"))?;
    let counter = family_sum(&scrape, "kgae_requests_total");
    let expected = 2 * connections + sent_before_scrape;
    if counter != expected {
        return Err(format!(
            "kgae_requests_total says {counter} but the smoke sent {expected} requests \
             before the scrape ({connections} idle connections × 2 health probes + \
             {sent_before_scrape} client calls)"
        ));
    }
    // The scrape itself is recorded after its body is built, so the
    // next scraper reads `expected + 1`.
    let _ = std::fs::create_dir_all("target");
    std::fs::write("target/smoke-requests.count", format!("{}\n", expected + 1))
        .map_err(|e| format!("writing target/smoke-requests.count: {e}"))?;
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.50) * 1e3;
    let p99 = percentile(&latencies, 0.99) * 1e3;
    eprintln!(
        "reactor-smoke: {} idle keep-alive connections held and verified, campaign \
         converged ({} calls), poll/submit latency p50 {p50:.2} ms / p99 {p99:.2} ms, \
         kgae_requests_total reconciled at {counter}",
        connections,
        latencies.len(),
    );
    if p99 >= P99_GATE_MS {
        return Err(format!(
            "poll/submit p99 {p99:.2} ms breaches the {P99_GATE_MS} ms gate \
             under {connections} idle connections"
        ));
    }
    Ok(())
}

/// The `schema_version` `write_report` stamps into `BENCH_eval.json`.
const SCHEMA_VERSION: u64 = 9;

/// Merges the `service_load`, `fault_load`, `reactor_load`,
/// `metrics_overhead` and `metrics_reconciliation` rows into the
/// benchmark JSON, bumping it to [`SCHEMA_VERSION`] (creates a minimal
/// document when the file is absent).
fn write_report(
    out_path: &str,
    report: &LoadReport,
    fault: &FaultLoadReport,
    reactor: &ReactorReport,
    overhead: &ReactorReport,
    recon: &ReconReport,
) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(out_path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("parsing {out_path}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::obj(vec![
            ("benchmark", Json::str("evaluation_loop")),
            ("dataset", Json::str("NELL")),
        ]),
        Err(e) => return Err(format!("reading {out_path}: {e}")),
    };
    doc.set("schema_version", Json::int(SCHEMA_VERSION));
    doc.set(
        "service_load",
        Json::obj(vec![
            ("dataset", Json::str("NELL")),
            ("design", Json::str("srs")),
            ("method", Json::str("ahpd")),
            ("clients", Json::int(report.clients)),
            ("sessions_completed", Json::int(report.sessions)),
            ("http_requests", Json::int(report.requests)),
            ("batch", Json::int(report.batch)),
            (
                "sessions_per_sec",
                Json::Num(report.sessions as f64 / report.wall_seconds),
            ),
            (
                "requests_per_sec",
                Json::Num(report.requests as f64 / report.wall_seconds),
            ),
            ("latency_mean_ms", Json::Num(report.mean_ms)),
            ("latency_p50_ms", Json::Num(report.p50_ms)),
            ("latency_p99_ms", Json::Num(report.p99_ms)),
            // Always true in a written report: a parity failure exits
            // non-zero before reporting.
            ("suspend_evict_resume_bit_identical", Json::Bool(true)),
        ]),
    );
    doc.set(
        "fault_load",
        Json::obj(vec![
            ("dataset", Json::str("NELL")),
            ("design", Json::str("srs")),
            ("method", Json::str("ahpd")),
            (
                "fault",
                Json::str("seeded chaos proxy: responses torn/dropped mid-flight"),
            ),
            ("fault_prob", Json::Num(fault.fault_prob)),
            ("clients", Json::int(fault.clients)),
            ("sessions_completed", Json::int(fault.sessions)),
            ("faults_injected", Json::int(fault.faults)),
            ("campaigns_lost", Json::int(0)),
            ("campaigns_duplicated", Json::int(0)),
            // Always true in a written report: a twin divergence exits
            // non-zero before reporting.
            ("fault_free_twin_status_equal", Json::Bool(true)),
        ]),
    );
    doc.set(
        "reactor_load",
        Json::obj(vec![
            ("dataset", Json::str("NELL")),
            ("design", Json::str("srs")),
            ("method", Json::str("ahpd")),
            ("idle_connections", Json::int(reactor.connections)),
            (
                "peak_connections",
                Json::int(reactor.connections + reactor.active_clients),
            ),
            ("active_clients", Json::int(reactor.active_clients)),
            ("workers", Json::int(reactor.workers)),
            ("sessions_completed", Json::int(reactor.sessions)),
            ("http_requests", Json::int(reactor.requests)),
            (
                "requests_per_sec",
                Json::Num(reactor.requests as f64 / reactor.wall_seconds),
            ),
            ("latency_p50_ms", Json::Num(reactor.p50_ms)),
            ("latency_p99_ms", Json::Num(reactor.p99_ms)),
            // Always true in a written report: a shed connection or a
            // sequential-twin divergence exits non-zero before
            // reporting.
            ("idle_connections_survived", Json::Bool(true)),
            ("sequential_twin_status_equal", Json::Bool(true)),
        ]),
    );
    doc.set(
        "metrics_overhead",
        Json::obj(vec![
            ("dataset", Json::str("NELL")),
            ("design", Json::str("srs")),
            ("method", Json::str("ahpd")),
            ("idle_connections", Json::int(overhead.connections)),
            ("active_clients", Json::int(overhead.active_clients)),
            ("workers", Json::int(overhead.workers)),
            ("latency_p50_ms_metrics_off", Json::Num(reactor.p50_ms)),
            ("latency_p50_ms_metrics_on", Json::Num(overhead.p50_ms)),
            ("latency_p99_ms_metrics_off", Json::Num(reactor.p99_ms)),
            ("latency_p99_ms_metrics_on", Json::Num(overhead.p99_ms)),
            (
                "overhead_p50_ms",
                Json::Num(overhead.p50_ms - reactor.p50_ms),
            ),
            // Always true in a written report: breaching the noise
            // gate exits non-zero before reporting.
            ("p50_within_noise", Json::Bool(true)),
        ]),
    );
    doc.set(
        "metrics_reconciliation",
        Json::obj(vec![
            ("dataset", Json::str("NELL")),
            ("design", Json::str("srs")),
            ("method", Json::str("ahpd")),
            ("clients", Json::int(recon.clients)),
            ("sessions_completed", Json::int(recon.sessions)),
            ("http_requests", Json::int(recon.http_requests)),
            ("evictions", Json::int(recon.evictions)),
            ("quota_429s", Json::int(recon.quota_refusals)),
            // Always true in a written report: any scraped counter
            // delta that disagrees with the client-side count exits
            // non-zero before reporting.
            ("counters_reconciled", Json::Bool(true)),
        ]),
    );
    std::fs::write(out_path, format!("{}\n", doc.encode_pretty()))
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!("wrote {out_path} (schema_version {SCHEMA_VERSION})");
    Ok(())
}

/// Runs `f` against a fresh in-process server on an ephemeral port.
/// The server records into a live metrics registry — the production
/// posture (`kgae-serve` defaults to `--metrics on`), and what lets
/// the smoke legs scrape `/metrics` without a real binary.
fn with_local_server(
    workers: usize,
    f: impl FnOnce(SocketAddr, &CompactKg) -> Result<(), String>,
) -> Result<(), String> {
    let registry = DatasetRegistry::standard();
    let store_dir = std::env::temp_dir().join(format!("kgae-service-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).map_err(|e| format!("store: {e}"))?;
    let metrics = Arc::new(Metrics::new());
    let mut manager = SessionManager::new(&registry, store, 16);
    manager.set_metrics(Arc::clone(&metrics));
    let manager = manager;
    let server = Server::bind("127.0.0.1:0", workers)
        .map_err(|e| format!("bind: {e}"))?
        .with_metrics(metrics);
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
    let kg = registry.get("nell").expect("standard registry hosts nell");
    let outcome = std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run(&manager));
        let outcome = f(addr, kg);
        handle.shutdown();
        server_thread.join().expect("server thread");
        outcome
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    outcome
}

/// A stratified campaign over HTTP: per-predicate audit on `nell-pred`
/// with a mid-flight suspend → evict → resume whose stored snapshot
/// bytes must survive the disk round trip unchanged.
fn run_stratified_smoke(addr: SocketAddr) -> Result<(), String> {
    let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let spec = SessionSpec {
        id: "smoke-stratified".into(),
        dataset: "nell-pred".into(),
        design: "stratified".parse().expect("stratified parses"),
        method: "ahpd".parse().expect("ahpd parses"),
        seed: 0x0051_400F,
        alpha: 0.05,
        epsilon: 0.04,
        max_observations: None,
        stratify: None, // predicate partition
        tenant: None,
    };
    client
        .create(&spec)
        .map_err(|e| format!("stratified create: {e}"))?;
    let mut batches = 0u64;
    loop {
        let request = client
            .next_request("smoke-stratified", 8)
            .map_err(|e| format!("stratified next: {e}"))?;
        if request.done {
            break;
        }
        let stratum = request
            .stratum
            .as_ref()
            .ok_or("stratified batch without a stratum address")?;
        for t in &request.triples {
            if strat.stratum_of(TripleId(t.triple)) != stratum.index {
                return Err(format!(
                    "triple {} served outside stratum {}",
                    t.triple, stratum.name
                ));
            }
        }
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|t| kg.is_correct(TripleId(t.triple)))
            .collect();
        client
            .submit("smoke-stratified", &labels)
            .map_err(|e| format!("stratified submit: {e}"))?;
        batches += 1;
        if batches == 5 {
            client
                .suspend("smoke-stratified")
                .map_err(|e| format!("stratified suspend: {e}"))?;
            let before = client
                .snapshot("smoke-stratified")
                .map_err(|e| format!("stratified snapshot: {e}"))?;
            client
                .evict("smoke-stratified")
                .map_err(|e| format!("stratified evict: {e}"))?;
            client
                .resume("smoke-stratified")
                .map_err(|e| format!("stratified resume: {e}"))?;
            client
                .suspend("smoke-stratified")
                .map_err(|e| format!("stratified re-suspend: {e}"))?;
            let after = client
                .snapshot("smoke-stratified")
                .map_err(|e| format!("stratified re-snapshot: {e}"))?;
            if before != after {
                return Err("stratified snapshot bytes diverged across the disk round trip".into());
            }
            client
                .resume("smoke-stratified")
                .map_err(|e| format!("stratified resume 2: {e}"))?;
        }
    }
    let status = client
        .status("smoke-stratified")
        .map_err(|e| format!("stratified status: {e}"))?;
    if status.state != SessionState::Finished
        || status.status.stopped != Some(StopReason::MoeSatisfied)
    {
        return Err(format!("stratified campaign did not converge: {status:?}"));
    }
    let rows = status
        .strata
        .as_ref()
        .ok_or("finished stratified session lost its per-stratum rows")?;
    if rows.len() != 8 {
        return Err(format!("expected 8 predicate rows, got {}", rows.len()));
    }
    eprintln!(
        "smoke: stratified campaign converged over HTTP (pooled μ̂ = {:.3}, {} annotations, \
         8 predicate rows, snapshot byte-identical)",
        status.status.estimate.unwrap_or(f64::NAN),
        status.status.observations,
    );
    let _ = client.delete("smoke-stratified");
    Ok(())
}

/// A monitor session over HTTP: certify NELL once, absorb a bulk drift
/// batch (re-opening annotation), fence a raced submit with 409
/// `stale_request`, re-certify from the carried posterior, and survive
/// a suspend → evict → resume disk round trip byte-identically.
fn run_monitor_smoke(addr: SocketAddr, kg: &CompactKg) -> Result<(), String> {
    const ID: &str = "smoke-monitor";
    let mut truth = DeltaKg::with_truth(kg, kg);
    let mut client = Client::connect(addr).map_err(|e| format!("monitor connect: {e}"))?;
    let spec = SessionSpec {
        id: ID.into(),
        dataset: "nell".into(),
        design: "monitor:50".parse().expect("monitor design parses"),
        method: "ahpd".parse().expect("ahpd parses"),
        seed: 0x0051_4012,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: None,
    };
    client
        .create(&spec)
        .map_err(|e| format!("monitor create: {e}"))?;
    let drive = |client: &mut Client, truth: &DeltaKg<'_>| -> Result<u64, String> {
        let mut spent = 0u64;
        loop {
            let request = client
                .next_request(ID, 16)
                .map_err(|e| format!("monitor next: {e}"))?;
            if request.done {
                return Ok(spent);
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| truth.is_correct(TripleId(t.triple)))
                .collect();
            spent += labels.len() as u64;
            client
                .submit(ID, &labels)
                .map_err(|e| format!("monitor submit: {e}"))?;
        }
    };

    let initial = drive(&mut client, &truth)?;
    let status = client
        .status(ID)
        .map_err(|e| format!("monitor status: {e}"))?;
    let report = status
        .monitor
        .as_ref()
        .ok_or("monitor session status lost its monitor report")?;
    if status.state != SessionState::Running || status.status.stopped.is_some() || !report.watching
    {
        return Err(format!(
            "monitor did not settle into watching after its initial campaign: {status:?}"
        ));
    }

    // A bulk prune retires enough ledger evidence to degrade the
    // certificate past the MoE: annotation must re-open.
    let bulk = DeltaBatch {
        predicate: Some("bulkPrune".into()),
        removes: (0..900).collect(),
        adds: (0..40).map(|k| k % 10 != 0).collect(),
    };
    let (outcome, _) = client
        .push_deltas(ID, &bulk)
        .map_err(|e| format!("monitor bulk delta: {e}"))?;
    truth
        .apply(&bulk.removes, &bulk.adds)
        .map_err(|e| format!("monitor truth twin: {e}"))?;
    if !outcome.reopened || outcome.epoch != 1 || outcome.retired_labels == 0 {
        return Err(format!(
            "bulk drift must re-open annotation with retired labels, got {outcome:?}"
        ));
    }

    // Fencing: a delta racing an outstanding request withdraws it —
    // the stale submit must bounce with 409 `stale_request`, and a
    // fresh poll/submit must succeed.
    let request = client
        .next_request(ID, 8)
        .map_err(|e| format!("monitor fence poll: {e}"))?;
    let stale_labels: Vec<bool> = request
        .triples
        .iter()
        .map(|t| truth.is_correct(TripleId(t.triple)))
        .collect();
    let nudge = DeltaBatch {
        predicate: None,
        removes: vec![5],
        adds: vec![],
    };
    client
        .push_deltas(ID, &nudge)
        .map_err(|e| format!("monitor nudge delta: {e}"))?;
    truth
        .apply(&nudge.removes, &nudge.adds)
        .map_err(|e| format!("monitor truth twin nudge: {e}"))?;
    match client.submit(ID, &stale_labels) {
        Err(ClientError::Api {
            status: 409,
            ref code,
            ..
        }) if code.as_deref() == Some("stale_request") => {}
        other => {
            return Err(format!(
                "stale submit after a delta must 409 stale_request, got {other:?}"
            ))
        }
    }
    let carryover = drive(&mut client, &truth)?;

    // Suspend → evict → resume: the stored tag-6 snapshot must survive
    // the disk round trip byte-identically, monitor report included.
    client
        .suspend(ID)
        .map_err(|e| format!("monitor suspend: {e}"))?;
    let before = client
        .snapshot(ID)
        .map_err(|e| format!("monitor snapshot: {e}"))?;
    client
        .evict(ID)
        .map_err(|e| format!("monitor evict: {e}"))?;
    client
        .resume(ID)
        .map_err(|e| format!("monitor resume: {e}"))?;
    client
        .suspend(ID)
        .map_err(|e| format!("monitor re-suspend: {e}"))?;
    let after = client
        .snapshot(ID)
        .map_err(|e| format!("monitor re-snapshot: {e}"))?;
    if before != after {
        return Err("monitor snapshot bytes diverged across the disk round trip".into());
    }
    client
        .resume(ID)
        .map_err(|e| format!("monitor resume 2: {e}"))?;

    let status = client
        .status(ID)
        .map_err(|e| format!("monitor final status: {e}"))?;
    let report = status
        .monitor
        .as_ref()
        .ok_or("resumed monitor lost its monitor report")?;
    if !report.watching || report.campaigns_reopened < 1 || report.epoch < 2 {
        return Err(format!(
            "monitor must be watching after the carryover campaign: {report:?}"
        ));
    }
    eprintln!(
        "smoke: monitor certified over HTTP ({initial} annotations), bulk drift re-opened \
         and re-certified from carryover ({carryover} annotations), stale submit fenced \
         with 409, snapshot byte-identical"
    );
    let _ = client.delete(ID);
    Ok(())
}

/// The CI-sized chaos leg: one campaign through the fault proxy, one
/// fault-free twin, final statuses must match.
fn run_chaos_smoke(addr: SocketAddr, kg: &CompactKg) -> Result<(), String> {
    let proxy =
        chaos::Proxy::spawn(addr, 0xC4A0_0001, 0.25).map_err(|e| format!("chaos proxy: {e}"))?;
    let mut stormy = Client::connect(proxy.addr())
        .map_err(|e| format!("chaos connect: {e}"))?
        .with_retry(chaos_policy(0));
    let mut scratch = Vec::new();
    run_campaign(
        &mut stormy,
        kg,
        "smoke-chaos",
        0x0051_4011,
        16,
        &mut scratch,
    )?;
    let faults = proxy.faults();
    drop(proxy);
    let mut direct = Client::connect(addr).map_err(|e| format!("twin connect: {e}"))?;
    run_campaign(
        &mut direct,
        kg,
        "smoke-chaos-twin",
        0x0051_4011,
        16,
        &mut scratch,
    )?;
    let chaotic = direct
        .status("smoke-chaos")
        .map_err(|e| format!("chaos status: {e}"))?;
    let twin = direct
        .status("smoke-chaos-twin")
        .map_err(|e| format!("twin status: {e}"))?;
    if chaotic.status != twin.status {
        return Err(format!(
            "smoke chaos campaign diverged from its fault-free twin:\n  \
             chaotic {:?}\n  twin {:?}",
            chaotic.status, twin.status
        ));
    }
    eprintln!(
        "smoke: chaos campaign survived {faults} injected connection faults, \
         final status equals its fault-free twin"
    );
    for id in ["smoke-chaos", "smoke-chaos-twin"] {
        let _ = direct.delete(id);
    }
    Ok(())
}

/// The CI smoke sequence against an already-listening server.
fn run_smoke_against(addr: SocketAddr, kg: &CompactKg) -> Result<(), String> {
    let mut latencies = Vec::new();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.health().map_err(|e| format!("health: {e}"))?;
    let health = client
        .health_info()
        .map_err(|e| format!("health info: {e}"))?;
    eprintln!("smoke: probing {} {}", health.name, health.version);
    run_campaign(
        &mut client,
        kg,
        "smoke-full",
        0x0051_400E,
        16,
        &mut latencies,
    )?;
    eprintln!(
        "smoke: one SRS campaign converged over HTTP ({} calls)",
        latencies.len()
    );
    verify_suspend_evict_resume(addr, kg, 16)?;
    run_stratified_smoke(addr)?;
    run_monitor_smoke(addr, kg)?;
    run_chaos_smoke(addr, kg)?;
    // Close the loop on the shared posterior-kernel cache: every smoke
    // campaign above ran through one per-manager memo table, so the
    // scraped hit rate is real traffic, not a synthetic probe.
    match client.metrics() {
        Ok(scrape) => {
            let hits = scraped(&scrape, "kgae_kernel_cache_hits_total");
            let lookups = scraped(&scrape, "kgae_kernel_cache_lookups_total");
            if lookups > 0 {
                eprintln!(
                    "smoke: shared kernel cache answered {hits}/{lookups} posterior \
                     solves from memo ({:.1}% hit rate)",
                    100.0 * hits as f64 / lookups as f64
                );
            } else {
                eprintln!("smoke: kernel cache saw no lookups");
            }
        }
        Err(e) => eprintln!("smoke: /metrics unavailable, skipping cache hit-rate report ({e})"),
    }
    // Leave nothing behind on a shared server.
    for id in ["smoke-full", "parity-probe", "parity-straight"] {
        let _ = client.delete(id);
    }
    Ok(())
}

fn run() -> Result<(), String> {
    if std::env::args().any(|a| a == "--reactor-smoke") {
        let kg = kgae_graph::datasets::nell();
        let connections: u64 = arg_value("--connections").unwrap_or(512);
        return match arg_value::<u16>("--port") {
            Some(port) => {
                let addr: SocketAddr = format!("127.0.0.1:{port}")
                    .parse()
                    .map_err(|e| format!("bad port: {e}"))?;
                run_reactor_smoke(addr, &kg, connections)
            }
            None => with_local_server(4, |addr, kg| run_reactor_smoke(addr, kg, connections)),
        };
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let kg = kgae_graph::datasets::nell();
        return match arg_value::<u16>("--port") {
            Some(port) => {
                let addr: SocketAddr = format!("127.0.0.1:{port}")
                    .parse()
                    .map_err(|e| format!("bad port: {e}"))?;
                run_smoke_against(addr, &kg)
            }
            None => with_local_server(4, run_smoke_against),
        };
    }

    let clients: u64 = arg_value("--clients").unwrap_or(8);
    let reps: u64 = arg_value("--reps").unwrap_or(5);
    let batch: u64 = arg_value("--batch").unwrap_or(32);
    let workers: usize = arg_value("--workers").unwrap_or(clients as usize);
    let fault_clients: u64 = arg_value("--fault-clients").unwrap_or(4);
    let fault_reps: u64 = arg_value("--fault-reps").unwrap_or(2);
    let connections: u64 = arg_value("--connections").unwrap_or(2000);
    let out_path: String = arg_value("--out").unwrap_or_else(|| "BENCH_eval.json".into());
    if clients < 8 {
        eprintln!("note: acceptance calls for ≥ 8 concurrent clients (got {clients})");
    }

    // The reactor leg boots its own server (few workers, long idle
    // timeout) so its connection fleet cannot interfere with the main
    // throughput numbers. It runs twice — registry off, then on — and
    // the p50 gap is the measured cost of observability.
    let kg = kgae_graph::datasets::nell();
    let reactor = {
        let report = run_reactor_load(&kg, connections, 4, 2, batch, false)?;
        eprintln!(
            "reactor_load: {} idle keep-alive connections held on {} workers while {} \
             clients ran campaigns — {:.0} requests/s, latency p50 {:.2} ms / p99 {:.2} ms, \
             all idle connections survived, sequential twin status equal",
            report.connections,
            report.workers,
            report.active_clients,
            report.requests as f64 / report.wall_seconds,
            report.p50_ms,
            report.p99_ms,
        );
        report
    };
    let overhead = run_reactor_load(&kg, connections, 4, 2, batch, true)?;
    eprintln!(
        "metrics_overhead: same reactor leg with the registry recording — p50 {:.2} ms \
         (metrics off: {:.2} ms), p99 {:.2} ms",
        overhead.p50_ms, reactor.p50_ms, overhead.p99_ms,
    );
    // A handful of relaxed atomics per request must vanish into HTTP
    // round-trip noise; double-plus-a-millisecond is far outside it.
    if overhead.p50_ms > reactor.p50_ms * 2.0 + 1.0 {
        return Err(format!(
            "metrics overhead out of noise: p50 {:.2} ms with the registry on \
             vs {:.2} ms off",
            overhead.p50_ms, reactor.p50_ms
        ));
    }

    let recon = run_metrics_reconciliation(&kg, 4, 2, batch)?;
    eprintln!(
        "metrics_reconciliation: {} campaigns, {} evictions, {} quota 429s — every \
         scraped counter delta equals the client-side count ({} HTTP requests)",
        recon.sessions, recon.evictions, recon.quota_refusals, recon.http_requests,
    );

    with_local_server(workers, |addr, kg| {
        let report = run_load(addr, kg, clients, reps, batch)?;
        eprintln!(
            "service_load: {} clients × {} campaigns (batch {}), {:.1} sessions/s, \
             {:.0} requests/s, latency mean {:.2} ms / p50 {:.2} ms / p99 {:.2} ms",
            report.clients,
            reps,
            report.batch,
            report.sessions as f64 / report.wall_seconds,
            report.requests as f64 / report.wall_seconds,
            report.mean_ms,
            report.p50_ms,
            report.p99_ms,
        );
        let fault = run_fault_load(addr, kg, fault_clients, fault_reps, batch)?;
        eprintln!(
            "fault_load: {} campaigns behind the chaos proxy (p = {}), {} faults \
             injected, every final status equals its fault-free twin",
            fault.sessions, fault.fault_prob, fault.faults,
        );
        write_report(&out_path, &report, &fault, &reactor, &overhead, &recon)
    })
}

fn main() {
    if let Err(message) = run() {
        eprintln!("service_load: FAILED: {message}");
        std::process::exit(1);
    }
}
