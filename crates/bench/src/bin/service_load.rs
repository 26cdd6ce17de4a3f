//! CI smokes for the session service over real HTTP: against a live
//! `kgae-serve` on `--port`, or an in-process server when none is given.
//!
//! `--smoke` drives every engine path a crowdsourcing frontend reaches:
//! an SRS campaign to convergence; one session through suspend → evict →
//! resume, whose stored snapshot bytes must survive the disk round trip,
//! whose `suspend` view must equal the status read after it (both
//! `evicted`), and whose final status must equal an uninterrupted
//! same-seed run; a stratified campaign; a monitor session (delta batches, 409
//! `stale_request` fencing, snapshot round trip); and a chaos leg, where
//! 4 concurrent clients run 2 campaigns each behind a seeded proxy that
//! tears and drops responses mid-flight, riding a [`RetryPolicy`] and
//! the submit fence, and every campaign's final status must equal its
//! fault-free same-seed twin: zero lost, zero double-applied batches.
//!
//! `--reactor-smoke` holds [`FLEET`] (2,000) idle keep-alive
//! connections while one campaign runs through the loaded reactor under
//! a 50 ms poll/submit p99 gate, verifies every idle connection still
//! answers, reconciles `kgae_requests_total` with the requests it sent
//! and writes the count the next scraper will read to
//! `target/smoke-requests.count`. It then runs the metrics on/off gate
//! on two in-process servers, registry off and then on, each holding the
//! same idle fleet while 4 clients run 2 campaigns each: the recording
//! run's p50 must stay within `2 × off + 1 ms`, its slab high-water must
//! cover the fleet, every idle connection must survive, and a campaign
//! run under the fleet must equal its sequential twin.
//!
//! ```text
//! service_load --smoke [--port P]
//! service_load --reactor-smoke [--port P]
//! ```
//!
//! The in-process gate holds both ends of its fleet, so `--reactor-smoke`
//! needs `ulimit -n 4096`.
//!
//! Throughput and latency of the HTTP path are measured by the
//! repository benchmark's `service_steady` and `service_churn`
//! workloads, which also replay every campaign bit for bit.
//!
//! Exits non-zero on any failure — a broken server cannot green-wash a
//! CI run.

use kgae_bench::arg_value;
use kgae_client::{Client, ClientError, RetryPolicy};
use kgae_core::{DeltaBatch, StopReason};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, TripleId};
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, SessionState};
use kgae_service::{Metrics, Server, SessionManager, SnapshotStore};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle keep-alive connections `--reactor-smoke` holds, on the server it
/// drives and on each of the gate's in-process servers.
const FLEET: u64 = 2000;

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

/// Drives one campaign to convergence, pushing per-call latencies
/// (seconds).
fn run_campaign(
    client: &mut Client,
    kg: &CompactKg,
    id: &str,
    seed: u64,
    batch: u64,
    latencies: &mut Vec<f64>,
) -> Result<(), String> {
    let mut timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
        let t0 = Instant::now();
        f()?;
        latencies.push(t0.elapsed().as_secs_f64());
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
    Ok(())
}

/// Suspend → evict → resume on a mid-flight campaign; verifies that the
/// view `suspend` answers is the one a status read derives, snapshot
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
    let suspended = client
        .suspend("parity-probe")
        .map_err(|e| format!("suspend: {e}"))?;
    let before = client
        .snapshot("parity-probe")
        .map_err(|e| format!("snapshot before: {e}"))?;
    // `suspend` drops the engine, so the status read derives its view
    // from the stored snapshot: both read `evicted` and agree field for
    // field.
    let status = client
        .status("parity-probe")
        .map_err(|e| format!("status after suspend: {e}"))?;
    if suspended.state != SessionState::Evicted || status != suspended {
        return Err(format!(
            "the status read differs from the view suspend answered:\n  \
             suspend {suspended:?}\n  status {status:?}"
        ));
    }
    // Evicting a session that lives only on disk is a no-op.
    client
        .evict("parity-probe")
        .map_err(|e| format!("evict: {e}"))?;
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
         suspend view equals the status read after it, \
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

/// Opens [`FLEET`] keep-alive connections, each proven live with one health
/// round trip. They then sit idle — costing the reactor one slab slot
/// and zero threads — until verified and dropped by the caller.
fn open_idle_fleet(addr: SocketAddr) -> Result<Vec<TcpStream>, String> {
    let mut fleet = Vec::with_capacity(FLEET as usize);
    for i in 0..FLEET {
        let mut conn = TcpStream::connect(addr).map_err(|e| {
            format!("idle conn {i}/{FLEET}: connect: {e} (fd limit? run under ulimit -n 4096)")
        })?;
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

/// Holds [`FLEET`] idle keep-alive connections on a fresh
/// in-process server (registry on or off) while 4 clients run 2
/// campaigns each, and returns their poll/submit p50 in ms. Every idle
/// connection must answer afterwards, the first campaign must finish
/// status-identical to a sequential same-seed twin, and with the
/// registry on, the slab high-water must cover the fleet (a lower one
/// means the instrumentation missed registrations).
fn fleet_p50_ms(metrics_on: bool) -> Result<f64, String> {
    const CLIENTS: u64 = 4;
    const REPS: u64 = 2;
    const BATCH: u64 = 32;
    with_local_server(metrics_on, |addr, kg| {
        let mut fleet = open_idle_fleet(addr)?;
        let outcomes: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || -> Result<Vec<f64>, String> {
                        let mut client =
                            Client::connect(addr).map_err(|e| format!("fleet client {c}: {e}"))?;
                        let mut latencies = Vec::new();
                        for r in 0..REPS {
                            let id = format!("fleet-c{c}-r{r}");
                            let seed = 0x7EAC_0000 + c * 1000 + r;
                            run_campaign(&mut client, kg, &id, seed, BATCH, &mut latencies)?;
                        }
                        Ok(latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet client thread"))
                .collect()
        });
        let mut latencies = Vec::new();
        for outcome in outcomes {
            latencies.extend(outcome?);
        }
        verify_idle_fleet(&mut fleet)?;
        drop(fleet);

        let mut client = Client::connect(addr).map_err(|e| format!("twin connect: {e}"))?;
        let mut scratch = Vec::new();
        run_campaign(
            &mut client,
            kg,
            "fleet-twin",
            0x7EAC_0000,
            BATCH,
            &mut scratch,
        )?;
        let loaded = client
            .status("fleet-c0-r0")
            .map_err(|e| format!("status fleet-c0-r0: {e}"))?;
        let twin = client
            .status("fleet-twin")
            .map_err(|e| format!("status fleet-twin: {e}"))?;
        if loaded.status != twin.status {
            return Err(format!(
                "campaign under connection load diverged from its sequential twin:\n  \
                 loaded {:?}\n  twin {:?}",
                loaded.status, twin.status
            ));
        }
        if metrics_on {
            let scrape = client.metrics().map_err(|e| format!("fleet scrape: {e}"))?;
            let high_water = scraped(&scrape, "kgae_reactor_slab_high_water");
            if high_water < FLEET {
                return Err(format!(
                    "reactor slab high-water {high_water} never covered the \
                     {FLEET}-connection fleet"
                ));
            }
        }
        latencies.sort_by(f64::total_cmp);
        Ok(percentile(&latencies, 0.50) * 1e3)
    })
}

/// The metrics on/off gate: the same fleet run without and then with
/// the `/metrics` registry recording.
fn run_metrics_overhead_gate() -> Result<(), String> {
    let off = fleet_p50_ms(false)?;
    let on = fleet_p50_ms(true)?;
    eprintln!(
        "metrics overhead: poll/submit p50 {on:.2} ms with the registry recording, \
         {off:.2} ms without, under {FLEET} idle connections"
    );
    // A handful of relaxed atomics per request must vanish into HTTP
    // round-trip noise; double-plus-a-millisecond is far outside it.
    if on > off * 2.0 + 1.0 {
        return Err(format!(
            "metrics overhead out of noise: p50 {on:.2} ms with the registry on \
             vs {off:.2} ms off"
        ));
    }
    Ok(())
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

/// The reactor smoke against an already-listening (or local) server:
/// [`FLEET`] idle keep-alive sockets held open, one campaign driven through the loaded reactor with a hard p99 latency
/// gate, and every idle socket verified live afterwards. The server's
/// request counter is then reconciled against the exact number of
/// requests this function sent (the idle fleet costs two health round
/// trips per connection; everything else goes through the client), and
/// the counter value the *next* reader will see — CI scrapes `/metrics`
/// once more before SIGTERM — is written to
/// `target/smoke-requests.count`. Expects a freshly booted server with
/// metrics enabled (the default).
fn run_reactor_smoke(addr: SocketAddr, kg: &CompactKg) -> Result<(), String> {
    const P99_GATE_MS: f64 = 50.0;
    let mut fleet = open_idle_fleet(addr)?;
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
    let expected = 2 * FLEET + sent_before_scrape;
    if counter != expected {
        return Err(format!(
            "kgae_requests_total says {counter} but the smoke sent {expected} requests \
             before the scrape ({FLEET} idle connections × 2 health probes + \
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
        FLEET,
        latencies.len(),
    );
    if p99 >= P99_GATE_MS {
        return Err(format!(
            "poll/submit p99 {p99:.2} ms breaches the {P99_GATE_MS} ms gate \
             under {FLEET} idle connections"
        ));
    }
    Ok(())
}

/// Runs `f` against a fresh in-process server on an ephemeral port
/// with 4 workers. With `metrics_on` the server records into a live
/// registry, the production posture (`kgae-serve` defaults to
/// `--metrics on`) and what lets the smoke legs scrape `/metrics`
/// without a real binary.
fn with_local_server<T>(
    metrics_on: bool,
    f: impl FnOnce(SocketAddr, &CompactKg) -> Result<T, String>,
) -> Result<T, String> {
    let registry = DatasetRegistry::standard();
    let store_dir = std::env::temp_dir().join(format!("kgae-service-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::open(&store_dir).map_err(|e| format!("store: {e}"))?;
    let mut manager = SessionManager::new(&registry, store, 16);
    // Idle reaping stays on but far beyond a smoke's horizon, so a held
    // connection can only vanish through a real server defect.
    let mut server = Server::bind("127.0.0.1:0", 4)
        .map_err(|e| format!("bind: {e}"))?
        .with_idle_timeout(Duration::from_secs(600));
    if metrics_on {
        let metrics = Arc::new(Metrics::new());
        manager.set_metrics(Arc::clone(&metrics));
        server = server.with_metrics(metrics);
    }
    let manager = manager;
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

/// The chaos leg: 4 concurrent clients run 2 campaigns each behind the
/// chaos proxy with retry policies attached, then the same seeds rerun
/// fault-free on a direct connection. Every chaotic campaign's final
/// status must equal its twin's — a lost batch or a double-applied
/// batch diverges the observation count or the estimate, so equality is
/// the zero-lost / zero-duplicated proof.
fn run_chaos_smoke(addr: SocketAddr, kg: &CompactKg) -> Result<(), String> {
    const CLIENTS: u64 = 4;
    const REPS: u64 = 2;
    let proxy =
        chaos::Proxy::spawn(addr, 0xC4A0_0001, 0.25).map_err(|e| format!("chaos proxy: {e}"))?;
    let proxied = proxy.addr();
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(proxied)
                        .map_err(|e| format!("chaos client {c} connect: {e}"))?
                        .with_retry(chaos_policy(c));
                    let mut scratch = Vec::new();
                    for r in 0..REPS {
                        let id = format!("smoke-chaos-c{c}-r{r}");
                        run_campaign(&mut client, kg, &id, chaos_seed(c, r), 16, &mut scratch)?;
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
    for c in 0..CLIENTS {
        for r in 0..REPS {
            let chaotic_id = format!("smoke-chaos-c{c}-r{r}");
            let twin_id = format!("smoke-chaos-twin-c{c}-r{r}");
            run_campaign(
                &mut direct,
                kg,
                &twin_id,
                chaos_seed(c, r),
                16,
                &mut scratch,
            )?;
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
            for id in [&chaotic_id, &twin_id] {
                let _ = direct.delete(id);
            }
        }
    }
    eprintln!(
        "smoke: {} chaos campaigns from {CLIENTS} concurrent clients survived {faults} \
         injected connection faults, each final status equals its fault-free twin",
        CLIENTS * REPS
    );
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
    let has = |flag: &str| std::env::args().any(|a| a == flag);
    let (smoke, reactor_smoke) = (has("--smoke"), has("--reactor-smoke"));
    if smoke == reactor_smoke {
        return Err("usage: service_load --smoke [--port P] | \
             --reactor-smoke [--port P] (under ulimit -n 4096)"
            .into());
    }
    let leg = |addr: SocketAddr, kg: &CompactKg| {
        if smoke {
            run_smoke_against(addr, kg)
        } else {
            run_reactor_smoke(addr, kg)
        }
    };
    match arg_value::<u16>("--port") {
        Some(port) => leg(
            SocketAddr::from(([127, 0, 0, 1], port)),
            &kgae_graph::datasets::nell(),
        )?,
        None => with_local_server(true, leg)?,
    }
    if reactor_smoke {
        run_metrics_overhead_gate()?;
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("service_load: FAILED: {message}");
        std::process::exit(1);
    }
}
