//! End-to-end `/metrics` reconciliation against the **real**
//! `kgae-serve` binary: a known request mix — including a 404, a 409
//! duplicate create, a 409 stale-seq submit, and a 429 over-quota
//! create — is driven between two scrapes, and the counter deltas must
//! match the mix *exactly*. No sampling, no slack: the registry counts
//! a request only after its response bytes exist, so a scrape observes
//! every request except its own and the arithmetic closes.
//!
//! HTTP is spoken through [`kgae_service::http`] directly (the client
//! crate depends on this one, so it cannot be a dev-dependency here).

use kgae_service::http;
use kgae_service::json::{self, Json};
use kgae_service::metrics::LE_LABELS;
use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-metrics-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned `kgae-serve`; SIGKILLed on drop so a failed assertion
/// never leaks a server process.
struct Serve {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_serve(store_dir: &Path, tag: &str, extra_args: &[&str]) -> Serve {
    let port_file = std::env::temp_dir().join(format!(
        "kgae-metrics-test-{tag}-{}.port",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_kgae-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "4", "--shards", "4"])
        // No janitor (it runs only with --janitor-ttl) and logging
        // quiet: this test wants every counter movement to come from
        // its own requests.
        .args(["--log-level", "off"])
        .arg("--store-dir")
        .arg(store_dir)
        .arg("--port-file")
        .arg(&port_file)
        .args(extra_args)
        .env_remove("KGAE_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning kgae-serve");
    let mut child = Some(child);
    let deadline = Instant::now() + Duration::from_secs(120);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(port) = text.trim().parse::<u16>() {
                break format!("127.0.0.1:{port}").parse().unwrap();
            }
        }
        if let Some(status) = child.as_mut().unwrap().try_wait().unwrap() {
            panic!("kgae-serve exited before listening: {status}");
        }
        assert!(Instant::now() < deadline, "kgae-serve never wrote its port");
        std::thread::sleep(Duration::from_millis(50));
    };
    let _ = std::fs::remove_file(&port_file);
    Serve {
        child: child.take().unwrap(),
        addr,
    }
}

/// One JSON request on a fresh connection.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    http::write_request(reader.get_mut(), method, path, body).expect("write");
    let response = http::read_response(&mut reader).expect("read");
    let text = std::str::from_utf8(&response.body).expect("utf-8 body");
    (response.status, json::parse(text).expect("json body"))
}

/// One `/metrics` scrape on a fresh connection, parsed into a
/// `series name (with labels) → value` map.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    http::write_request(reader.get_mut(), "GET", "/metrics", "").expect("write");
    let response = http::read_response(&mut reader).expect("read");
    assert_eq!(response.status, 200, "scrape failed");
    let text = std::str::from_utf8(&response.body).expect("utf-8 exposition");
    parse_exposition(text)
}

fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut series = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name value");
        series.insert(name.to_string(), value.parse::<f64>().expect("numeric"));
    }
    series
}

fn at(map: &BTreeMap<String, f64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0.0)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> i64 {
    (at(after, key) - at(before, key)).round() as i64
}

fn create_body(id: &str) -> String {
    Json::obj(vec![
        ("id", Json::str(id)),
        ("dataset", Json::str("nell")),
        ("design", Json::str("srs")),
        ("method", Json::str("wilson")),
        ("seed", Json::int(7)),
    ])
    .encode()
}

/// The tentpole reconciliation: drive a known mix between two scrapes
/// and assert the per-route/per-status counter deltas are *exactly*
/// the mix — plus histogram/count coherence and live session gauges.
#[test]
fn scrape_deltas_reconcile_exactly_with_a_known_request_mix() {
    let dir = temp_dir("mix");
    let serve = spawn_serve(&dir, "mix", &["--max-sessions", "1"]);
    let addr = serve.addr;

    let before = scrape(addr);

    // The mix: each line is one request with a known route and status.
    let (status, _) = call(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = call(addr, "POST", "/v1/sessions", &create_body("alpha"));
    assert_eq!(status, 201);
    let (status, _) = call(addr, "POST", "/v1/sessions", &create_body("alpha"));
    assert_eq!(status, 409, "duplicate create");
    let (status, doc) = call(addr, "POST", "/v1/sessions", &create_body("beta"));
    assert_eq!(status, 429, "over quota: {}", doc.encode());
    let (status, _) = call(addr, "GET", "/v1/sessions/ghost", "");
    assert_eq!(status, 404);
    let (status, doc) = call(
        addr,
        "POST",
        "/v1/sessions/alpha/next",
        &Json::obj(vec![("batch", Json::int(4))]).encode(),
    );
    assert_eq!(status, 200);
    let seq = doc.get("seq").and_then(Json::as_u64).expect("seq");
    let count = doc
        .get("triples")
        .and_then(Json::as_arr)
        .expect("triples")
        .len();
    let labels = Json::Arr(vec![Json::Bool(true); count]);
    let stale = Json::obj(vec![
        ("labels", labels.clone()),
        ("seq", Json::int(seq + 7)),
    ])
    .encode();
    let (status, _) = call(addr, "POST", "/v1/sessions/alpha/labels", &stale);
    assert_eq!(status, 409, "stale fencing seq");
    let fresh = Json::obj(vec![("labels", labels), ("seq", Json::int(seq))]).encode();
    let (status, _) = call(addr, "POST", "/v1/sessions/alpha/labels", &fresh);
    assert_eq!(status, 200);
    let (status, _) = call(addr, "GET", "/nope", "");
    assert_eq!(status, 404, "unroutable path");

    let after = scrape(addr);

    // Exact counter deltas, one per line of the mix. The first scrape
    // itself appears (+1 on route=metrics): a scrape is counted once
    // its response exists, so it shows up in the *next* exposition.
    let expected: [(&str, &str, i64); 10] = [
        ("healthz", "200", 1),
        ("metrics", "200", 1),
        ("session_create", "201", 1),
        ("session_create", "409", 1),
        ("session_create", "429", 1),
        ("session_status", "404", 1),
        ("next", "200", 1),
        ("labels", "409", 1),
        ("labels", "200", 1),
        ("other", "404", 1),
    ];
    for (route, status, want) in expected {
        let key = format!("kgae_requests_total{{route=\"{route}\",status=\"{status}\"}}");
        assert_eq!(delta(&before, &after, &key), want, "{key}");
    }
    // Nothing else on those routes moved: total per-route deltas equal
    // the per-status ones, via the histogram count (one observation
    // per request regardless of status).
    let per_route: [(&str, i64); 8] = [
        ("healthz", 1),
        ("metrics", 1),
        ("session_create", 3),
        ("session_status", 1),
        ("next", 1),
        ("labels", 2),
        ("other", 1),
        ("snapshot", 0),
    ];
    for (route, want) in per_route {
        let key = format!("kgae_request_duration_seconds_count{{route=\"{route}\"}}");
        assert_eq!(delta(&before, &after, &key), want, "{key}");
    }
    assert_eq!(
        delta(&before, &after, "kgae_sessions_created_total"),
        1,
        "one session admitted"
    );
    assert_eq!(
        delta(&before, &after, "kgae_quota_refusals_total"),
        1,
        "one 429 refusal"
    );

    // Histogram coherence on every route the mix touched: buckets are
    // cumulative and monotone, the +Inf bucket equals _count, and the
    // sum moved (zero-duration requests still count a nanosecond).
    for (route, requests) in per_route {
        if requests == 0 {
            continue;
        }
        let mut previous = -1.0;
        for le in LE_LABELS {
            let key =
                format!("kgae_request_duration_seconds_bucket{{route=\"{route}\",le=\"{le}\"}}");
            let value = at(&after, &key);
            assert!(
                value >= previous,
                "bucket regression at {key}: {value} < {previous}"
            );
            previous = value;
        }
        let inf = format!("kgae_request_duration_seconds_bucket{{route=\"{route}\",le=\"+Inf\"}}");
        let count = format!("kgae_request_duration_seconds_count{{route=\"{route}\"}}");
        assert_eq!(
            at(&after, &inf),
            at(&after, &count),
            "{route}: +Inf != count"
        );
        let sum = format!("kgae_request_duration_seconds_sum{{route=\"{route}\"}}");
        assert!(at(&after, &sum) > 0.0, "{route}: histogram sum is zero");
        let bytes = format!("kgae_response_bytes_total{{route=\"{route}\"}}");
        assert!(at(&after, &bytes) > 0.0, "{route}: no response bytes");
    }

    // The session gauges are a census at scrape time: exactly one live
    // session (alpha) exists, summed across all shards.
    let live: f64 = after
        .iter()
        .filter(|(k, _)| k.starts_with("kgae_sessions{") && k.contains("state=\"live\""))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(live as i64, 1, "census disagrees with reality");

    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}

fn ahpd_create_body(id: &str) -> String {
    Json::obj(vec![
        ("id", Json::str(id)),
        ("dataset", Json::str("nell")),
        ("design", Json::str("srs")),
        ("method", Json::str("ahpd")),
        ("seed", Json::int(7)),
    ])
    .encode()
}

/// Drives the session to convergence over HTTP with all-true labels.
fn drive_to_convergence(addr: SocketAddr, id: &str) {
    loop {
        let (status, doc) = call(
            addr,
            "POST",
            &format!("/v1/sessions/{id}/next"),
            &Json::obj(vec![("batch", Json::int(64))]).encode(),
        );
        assert_eq!(status, 200, "next: {}", doc.encode());
        if doc.get("done").and_then(Json::as_bool).unwrap_or(false) {
            return;
        }
        let seq = doc.get("seq").and_then(Json::as_u64).expect("seq");
        let count = doc
            .get("triples")
            .and_then(Json::as_arr)
            .expect("triples")
            .len();
        let labels = Json::Arr(vec![Json::Bool(true); count]);
        let body = Json::obj(vec![("labels", labels), ("seq", Json::int(seq))]).encode();
        let (status, doc) = call(addr, "POST", &format!("/v1/sessions/{id}/labels"), &body);
        assert_eq!(status, 200, "labels: {}", doc.encode());
    }
}

/// The shared posterior-kernel cache is visible in `/metrics` and its
/// counters reconcile *exactly* after real traffic: an aHPD campaign
/// (the cache's target workload) is driven to convergence, then an
/// identical twin replays the same trajectory so every solve the first
/// campaign inserted is answered from memo. `lookups` is derived as
/// `hits + misses` by construction, and `entries` must equal
/// `insertions - evictions` — no slack on either identity. The session
/// counters close too: two created, two finished, one evicted.
#[test]
fn kernel_cache_counters_appear_and_reconcile_after_a_campaign() {
    let dir = temp_dir("kernel");
    let serve = spawn_serve(&dir, "kernel", &[]);
    let addr = serve.addr;

    let (status, doc) = call(addr, "POST", "/v1/sessions", &ahpd_create_body("kernel-a"));
    assert_eq!(status, 201, "{}", doc.encode());
    drive_to_convergence(addr, "kernel-a");
    let (status, doc) = call(addr, "POST", "/v1/sessions", &ahpd_create_body("kernel-b"));
    assert_eq!(status, 201, "{}", doc.encode());
    drive_to_convergence(addr, "kernel-b");
    let (status, doc) = call(addr, "POST", "/v1/sessions/kernel-a/evict", "");
    assert_eq!(status, 200, "evict: {}", doc.encode());

    let after = scrape(addr);
    // The session counters of a fresh server reconcile exactly with
    // the two campaigns driven to their stop and the one eviction.
    for (family, want) in [
        ("kgae_sessions_created_total", 2.0),
        ("kgae_sessions_finished_total", 2.0),
        ("kgae_sessions_evicted_total", 1.0),
    ] {
        assert_eq!(at(&after, family), want, "{family}");
    }
    let lookups = at(&after, "kgae_kernel_cache_lookups_total");
    let hits = at(&after, "kgae_kernel_cache_hits_total");
    let misses = at(&after, "kgae_kernel_cache_misses_total");
    let insertions = at(&after, "kgae_kernel_cache_insertions_total");
    let evictions = at(&after, "kgae_kernel_cache_evictions_total");
    let entries = at(&after, "kgae_kernel_cache_entries");
    assert!(
        lookups > 0.0,
        "an aHPD/SRS campaign must route solves through the kernel cache"
    );
    assert_eq!(
        hits + misses,
        lookups,
        "hits + misses must equal lookups exactly"
    );
    assert_eq!(
        insertions - evictions,
        entries,
        "resident entries must equal insertions - evictions exactly"
    );
    assert!(entries > 0.0, "converged campaigns left no memo entries");
    assert!(
        hits > 0.0,
        "the twin campaign retraced kernel-a's trajectory yet never hit"
    );

    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A successful scrape answers the Prometheus text content type; the
/// JSON routes keep `application/json`.
#[test]
fn scrape_answers_the_prometheus_content_type() {
    let dir = temp_dir("ctype");
    let serve = spawn_serve(&dir, "ctype", &[]);
    let head = raw_head(serve.addr, "GET /metrics HTTP/1.1");
    assert!(
        head.contains("content-type: text/plain; version=0.0.4"),
        "scrape content type missing: {head:?}"
    );
    let head = raw_head(serve.addr, "GET /healthz HTTP/1.1");
    assert!(
        head.contains("content-type: application/json"),
        "healthz content type changed: {head:?}"
    );
    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `--metrics off` the route disappears (404, ordinary JSON error
/// body) and the server still serves everything else.
#[test]
fn metrics_off_removes_the_route() {
    let dir = temp_dir("off");
    let serve = spawn_serve(&dir, "off", &["--metrics", "off"]);
    let (status, doc) = call(serve.addr, "GET", "/metrics", "");
    assert_eq!(status, 404, "{}", doc.encode());
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("metrics not enabled")
    );
    let (status, _) = call(serve.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    drop(serve);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends one raw request line and returns the response head (status
/// line + headers), lowercased for case-insensitive header matching.
fn raw_head(addr: SocketAddr, request_line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(format!("{request_line}\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("write");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read");
    let text = String::from_utf8_lossy(&bytes);
    text.split("\r\n\r\n").next().unwrap_or("").to_lowercase()
}
