//! Crash-recovery suite against the **real** `kgae-serve` binary: the
//! process is SIGKILLed mid-campaign (including mid-record-write via a
//! failpoint), restarted over the same `--store-dir`, and every
//! campaign must resume from its last durable checkpoint and finish
//! bit-identically to an uninterrupted twin. The SIGTERM leg checks the
//! graceful path end to end: drain, exit 0, resume after restart. Two
//! in-process legs fail a record write and reopen the store: the
//! fencing seq and the engine state it fences must come back as the
//! pair the last successful save wrote.
//!
//! HTTP is spoken directly through [`kgae_service::http`] (the client
//! crate depends on this one, so it cannot be a dev-dependency here);
//! one fresh connection per call keeps the test independent of
//! keep-alive state across server generations.

#[cfg(feature = "fault-injection")]
mod common;

use kgae_graph::GroundTruth;
use kgae_service::http;
use kgae_service::json::{self, Json};
use kgae_service::manager::DatasetRegistry;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-crash-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A spawned `kgae-serve` generation; SIGKILLed on drop so a failed
/// assertion never leaks a server process.
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
    let port_file =
        std::env::temp_dir().join(format!("kgae-crash-test-{tag}-{}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let stderr_file = store_dir.with_extension("stderr");
    let child = Command::new(env!("CARGO_BIN_EXE_kgae-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "4", "--shards", "4"])
        .arg("--store-dir")
        .arg(store_dir)
        .arg("--port-file")
        .arg(&port_file)
        .args(extra_args)
        .env_remove("KGAE_FAULT")
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(&stderr_file).unwrap())
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
            panic!(
                "kgae-serve exited before listening: {status}\n{}",
                std::fs::read_to_string(&stderr_file).unwrap_or_default()
            );
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

/// One request on a fresh connection; panics on transport failure.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Json) {
    try_call(addr, method, path, body).expect("server unreachable")
}

fn try_call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    http::write_request(reader.get_mut(), method, path, body).map_err(|e| format!("write: {e}"))?;
    let response = http::read_response(&mut reader).map_err(|e| format!("read: {e}"))?;
    let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
    Ok((
        response.status,
        json::parse(text).map_err(|e| e.to_string())?,
    ))
}

fn create(addr: SocketAddr, id: &str, seed: u64) {
    let body = Json::obj(vec![
        ("id", Json::str(id)),
        ("dataset", Json::str("nell")),
        ("design", Json::str("srs")),
        ("method", Json::str("ahpd")),
        ("seed", Json::int(seed)),
    ])
    .encode();
    let (status, doc) = call(addr, "POST", "/v1/sessions", &body);
    assert_eq!(status, 201, "create {id}: {}", doc.encode());
}

fn next(addr: SocketAddr, id: &str) -> Json {
    let body = Json::obj(vec![("batch", Json::int(8))]).encode();
    let (status, doc) = call(addr, "POST", &format!("/v1/sessions/{id}/next"), &body);
    assert_eq!(status, 200, "next {id}: {}", doc.encode());
    doc
}

fn triple_ids(request: &Json) -> Vec<u64> {
    request
        .get("triples")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|t| t.get("triple").and_then(Json::as_u64).unwrap())
        .collect()
}

fn is_done(request: &Json) -> bool {
    request.get("done").and_then(Json::as_bool) == Some(true)
}

fn labels_for(kg: &kgae_graph::CompactKg, request: &Json) -> Vec<bool> {
    triple_ids(request)
        .iter()
        .map(|&t| kg.is_correct(kgae_graph::TripleId(t)))
        .collect()
}

fn submit(addr: SocketAddr, id: &str, request: &Json, labels: &[bool]) {
    let mut pairs = vec![(
        "labels",
        Json::Arr(labels.iter().map(|&l| Json::Bool(l)).collect()),
    )];
    if let Some(seq) = request.get("seq").and_then(Json::as_u64) {
        pairs.push(("seq", Json::int(seq)));
    }
    let body = Json::obj(pairs).encode();
    let (status, doc) = call(addr, "POST", &format!("/v1/sessions/{id}/labels"), &body);
    assert_eq!(status, 200, "submit {id}: {}", doc.encode());
}

fn lifecycle(addr: SocketAddr, id: &str, verb: &str) {
    let (status, doc) = call(addr, "POST", &format!("/v1/sessions/{id}/{verb}"), "");
    assert_eq!(status, 200, "{verb} {id}: {}", doc.encode());
}

fn session_status(addr: SocketAddr, id: &str) -> Json {
    let (status, doc) = call(addr, "GET", &format!("/v1/sessions/{id}"), "");
    assert_eq!(status, 200, "status {id}: {}", doc.encode());
    doc
}

/// Drives `a` and `b` to completion in lockstep, asserting every batch
/// matches, then asserts their final reported statuses are identical.
fn finish_lockstep(addr: SocketAddr, kg: &kgae_graph::CompactKg, a: &str, b: &str) {
    loop {
        let ra = next(addr, a);
        let rb = next(addr, b);
        assert_eq!(
            triple_ids(&ra),
            triple_ids(&rb),
            "{a} and {b} diverged mid-campaign"
        );
        if is_done(&ra) {
            assert!(is_done(&rb), "{b} kept going after {a} stopped");
            break;
        }
        let labels = labels_for(kg, &ra);
        submit(addr, a, &ra, &labels);
        submit(addr, b, &rb, &labels);
    }
    let sa = session_status(addr, a);
    let sb = session_status(addr, b);
    assert_eq!(
        sa.get("status").map(Json::encode),
        sb.get("status").map(Json::encode),
        "final status of {a} != {b}"
    );
    assert_eq!(
        sa.get("state").and_then(Json::as_str),
        Some("finished"),
        "{a} did not finish: {}",
        sa.encode()
    );
}

/// SIGKILL mid-campaign: work past the last checkpoint dies with the
/// process, and the restarted server replays it bit-identically from
/// the checkpoint — nothing lost below it, nothing double-applied.
#[test]
fn sigkill_mid_campaign_resumes_bit_identically_from_last_checkpoint() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("sigkill");

    let gen1 = spawn_serve(&dir, "sigkill-1", &[]);
    create(gen1.addr, "victim", 21);
    create(gen1.addr, "twin", 21);
    // Batch 1, identically into both sessions, then checkpoint both
    // (suspend persists, resume continues serving).
    let r1 = next(gen1.addr, "victim");
    let t1 = next(gen1.addr, "twin");
    assert_eq!(triple_ids(&r1), triple_ids(&t1));
    let labels = labels_for(kg, &r1);
    submit(gen1.addr, "victim", &r1, &labels);
    submit(gen1.addr, "twin", &t1, &labels);
    lifecycle(gen1.addr, "victim", "suspend");
    lifecycle(gen1.addr, "victim", "resume");
    lifecycle(gen1.addr, "twin", "suspend");
    // Past the checkpoint: victim alone takes batch 2 and polls
    // batch 3 — all of it in memory only when the SIGKILL lands.
    let r2 = next(gen1.addr, "victim");
    submit(gen1.addr, "victim", &r2, &labels_for(kg, &r2));
    let _r3_outstanding = next(gen1.addr, "victim");
    drop(gen1); // SIGKILL

    let gen2 = spawn_serve(&dir, "sigkill-2", &[]);
    // The restarted server serves batch 2 again, bit-identically: the
    // checkpoint rewound the unpersisted work instead of losing or
    // duplicating it.
    let replay = next(gen2.addr, "victim");
    assert_eq!(
        triple_ids(&replay),
        triple_ids(&r2),
        "restart did not rewind to the durable checkpoint"
    );
    let labels = labels_for(kg, &replay);
    submit(gen2.addr, "victim", &replay, &labels);
    let twin_replay = next(gen2.addr, "twin");
    assert_eq!(triple_ids(&twin_replay), triple_ids(&replay));
    submit(gen2.addr, "twin", &twin_replay, &labels);
    finish_lockstep(gen2.addr, kg, "victim", "twin");
    drop(gen2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGTERM is the graceful twin of the test above: the server drains —
/// withdrawing the outstanding batch exactly and suspending every live
/// session — exits 0, and the restart resumes with zero loss even
/// though the client never checkpointed anything itself.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_restart_resumes_the_outstanding_batch() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("sigterm");

    let mut gen1 = spawn_serve(&dir, "sigterm-1", &[]);
    create(gen1.addr, "mid", 33);
    create(gen1.addr, "twin", 33);
    let r1 = next(gen1.addr, "mid");
    let labels = labels_for(kg, &r1);
    submit(gen1.addr, "mid", &r1, &labels);
    let t1 = next(gen1.addr, "twin");
    submit(gen1.addr, "twin", &t1, &labels);
    // Leave a batch outstanding; no suspend — drain must do the work.
    let withdrawn = next(gen1.addr, "mid");

    let pid = gen1.child.id().to_string();
    assert!(Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .unwrap()
        .success());
    let status = gen1.child.wait().unwrap();
    assert!(status.success(), "drain exit was not clean: {status}");

    let gen2 = spawn_serve(&dir, "sigterm-2", &[]);
    let replay = next(gen2.addr, "mid");
    assert_eq!(
        triple_ids(&replay),
        triple_ids(&withdrawn),
        "drain perturbed the withdrawn batch"
    );
    let labels = labels_for(kg, &replay);
    submit(gen2.addr, "mid", &replay, &labels);
    let twin_replay = next(gen2.addr, "twin");
    assert_eq!(triple_ids(&twin_replay), triple_ids(&replay));
    submit(gen2.addr, "twin", &twin_replay, &labels);
    finish_lockstep(gen2.addr, kg, "mid", "twin");
    drop(gen2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The hardest crash point: SIGKILL (via the `store.write` torn
/// failpoint) in the middle of writing a checkpoint record. The torn
/// `.tmp` must be discarded by the recovery sweep — never promoted,
/// never quarantining the good committed record underneath — and the
/// campaign resumes from the previous checkpoint bit-identically.
#[cfg(feature = "fault-injection")]
#[test]
fn sigkill_mid_snapshot_write_discards_the_torn_tmp_and_resumes() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("torn");

    // Generation 1 (no faults): both sessions checkpoint after batch 1.
    let gen1 = spawn_serve(&dir, "torn-1", &[]);
    create(gen1.addr, "victim", 55);
    create(gen1.addr, "twin", 55);
    let r1 = next(gen1.addr, "victim");
    let t1 = next(gen1.addr, "twin");
    let labels = labels_for(kg, &r1);
    submit(gen1.addr, "victim", &r1, &labels);
    submit(gen1.addr, "twin", &t1, &labels);
    lifecycle(gen1.addr, "victim", "suspend");
    lifecycle(gen1.addr, "twin", "suspend");
    drop(gen1);

    // Generation 2: the first record write of this process dies after
    // 64 torn bytes. Batch 2 lands in memory, then the checkpoint
    // attempt kills the server mid-write.
    let mut gen2 = spawn_serve(&dir, "torn-2", &["--fault", "store.write=torn:64"]);
    let r2 = next(gen2.addr, "victim");
    submit(gen2.addr, "victim", &r2, &labels_for(kg, &r2));
    let err = try_call(gen2.addr, "POST", "/v1/sessions/victim/suspend", "");
    assert!(err.is_err(), "suspend survived a torn record write");
    let status = gen2.child.wait().unwrap();
    assert!(!status.success(), "torn write should abort the process");
    assert!(
        dir.join("victim.rec.tmp").exists(),
        "expected a torn temp file on disk"
    );

    // Generation 3: the sweep discards the torn temp file and the
    // campaign resumes from the batch-1 checkpoint.
    let gen3 = spawn_serve(&dir, "torn-3", &[]);
    assert!(
        !dir.join("victim.rec.tmp").exists(),
        "recovery left the torn temp file behind"
    );
    assert!(
        std::fs::read_to_string(dir.with_extension("stderr"))
            .unwrap_or_default()
            .contains("discarded incomplete temp file"),
        "recovery did not report the discarded temp file"
    );
    let replay = next(gen3.addr, "victim");
    assert_eq!(
        triple_ids(&replay),
        triple_ids(&r2),
        "torn checkpoint moved the resume point"
    );
    let labels = labels_for(kg, &replay);
    submit(gen3.addr, "victim", &replay, &labels);
    let twin_replay = next(gen3.addr, "twin");
    assert_eq!(triple_ids(&twin_replay), triple_ids(&replay));
    submit(gen3.addr, "twin", &twin_replay, &labels);
    finish_lockstep(gen3.addr, kg, "victim", "twin");
    drop(gen3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL at a checkpoint write (the `store.write=crash` failpoint
/// aborts the server as the record write begins): the restarted server
/// re-issues each fencing seq only for the batch first issued under it,
/// at the same batch size, so the client's fenced retry of its last
/// submit lands on its own triples and never on a newer batch.
#[cfg(feature = "fault-injection")]
#[test]
fn sigkill_at_a_record_write_re_issues_each_seq_for_its_own_batch() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("crash-write");

    // Generation 1 (no faults): checkpoint after batch 1.
    let gen1 = spawn_serve(&dir, "crash-write-1", &[]);
    create(gen1.addr, "victim", 77);
    let r1 = next(gen1.addr, "victim");
    submit(gen1.addr, "victim", &r1, &labels_for(kg, &r1));
    lifecycle(gen1.addr, "victim", "suspend");
    drop(gen1);

    // Generation 2: resume (a read), take batch 2 under seq 2, then the
    // checkpoint's record write kills the server.
    let mut gen2 = spawn_serve(&dir, "crash-write-2", &["--fault", "store.write=crash"]);
    lifecycle(gen2.addr, "victim", "resume");
    let r2 = next(gen2.addr, "victim");
    assert_eq!(r2.get("seq").and_then(Json::as_u64), Some(2));
    let labels2 = labels_for(kg, &r2);
    submit(gen2.addr, "victim", &r2, &labels2);
    let err = try_call(gen2.addr, "POST", "/v1/sessions/victim/suspend", "");
    assert!(err.is_err(), "suspend survived a crash at the record write");
    assert!(!gen2.child.wait().unwrap().success());

    // Generation 3: seq 2 is re-issued for batch 2's triples, and the
    // client's fenced retry of its batch-2 submit lands on them.
    let gen3 = spawn_serve(&dir, "crash-write-3", &[]);
    let replay = next(gen3.addr, "victim");
    assert_eq!(replay.get("seq").and_then(Json::as_u64), Some(2));
    assert_eq!(
        triple_ids(&replay),
        triple_ids(&r2),
        "seq 2 re-issued for other triples"
    );
    let body = Json::obj(vec![
        (
            "labels",
            Json::Arr(labels2.iter().map(|&l| Json::Bool(l)).collect()),
        ),
        ("seq", Json::int(2)),
    ])
    .encode();
    let (status, view) = call(gen3.addr, "POST", "/v1/sessions/victim/labels", &body);
    assert_eq!(status, 200, "fenced retry: {}", view.encode());
    assert_eq!(
        view.get("status")
            .and_then(|s| s.get("observations"))
            .and_then(Json::as_u64),
        Some(16),
        "the retry must apply to batch 2 alone"
    );
    // A second replay of the same fenced submit is stale.
    let (status, _) = call(gen3.addr, "POST", "/v1/sessions/victim/labels", &body);
    assert_eq!(status, 409);
    assert_eq!(
        next(gen3.addr, "victim").get("seq").and_then(Json::as_u64),
        Some(3)
    );
    drop(gen3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// In-process legs: the failpoint registry is process-wide, so they
/// take turns.
#[cfg(feature = "fault-injection")]
static IN_PROCESS_FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "fault-injection")]
fn in_process_spec(id: &str, epsilon: f64) -> kgae_service::SessionSpec {
    kgae_service::SessionSpec {
        id: id.into(),
        dataset: "nell".into(),
        design: "srs".parse().unwrap(),
        method: kgae_core::IntervalMethod::ahpd_default(),
        seed: 1,
        alpha: 0.05,
        epsilon,
        max_observations: None,
        stratify: None,
        tenant: None,
    }
}

#[cfg(feature = "fault-injection")]
fn true_labels(kg: &kgae_graph::CompactKg, request: &kgae_core::AnnotationRequest) -> Vec<bool> {
    request
        .triples
        .iter()
        .map(|st| kg.is_correct(st.triple))
        .collect()
}

/// A re-suspend whose record write fails leaves the previous record
/// whole, so a reopened manager re-issues seq 2 for batch 2's own
/// triples and a stale fenced retry of batch 2 lands on them alone.
#[cfg(feature = "fault-injection")]
#[test]
fn failed_resuspend_write_keeps_the_seq_with_the_batch_it_fences() {
    use kgae_service::{fault, SessionManager, SnapshotStore};
    let _turn = IN_PROCESS_FAULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("resuspend");
    let (batch2, labels2) = {
        let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
        manager.create(&in_process_spec("victim", 0.01)).unwrap();
        let (r1, view) = manager.next_request("victim", 4).unwrap();
        assert_eq!(view.pending_seq, Some(1));
        manager
            .submit("victim", &true_labels(kg, &r1.unwrap()), Some(1))
            .unwrap();
        manager.suspend("victim").unwrap();
        manager.resume("victim").unwrap();
        let (r2, view) = manager.next_request("victim", 4).unwrap();
        assert_eq!(view.pending_seq, Some(2));
        let r2 = r2.unwrap();
        let labels2 = true_labels(kg, &r2);
        manager.submit("victim", &labels2, Some(2)).unwrap();
        fault::configure("store.write=err").unwrap();
        let failed = manager.suspend("victim");
        fault::clear();
        assert!(failed.is_err(), "the injected write failure was not seen");
        assert_index_matches_a_fresh_open(manager.store());
        (r2.triples, labels2)
    };

    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    let (replay, view) = manager.next_request("victim", 4).unwrap();
    assert_eq!(view.pending_seq, Some(2));
    assert_eq!(
        replay.unwrap().triples,
        batch2,
        "seq 2 re-issued for other triples"
    );
    let view = manager.submit("victim", &labels2, Some(2)).unwrap();
    assert_eq!(view.status.observations, 8, "the retry landed past batch 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts that `store`'s index equals the one a fresh open of its
/// directory builds.
#[cfg(feature = "fault-injection")]
fn assert_index_matches_a_fresh_open(store: &kgae_service::SnapshotStore) {
    let fresh = kgae_service::SnapshotStore::open(store.dir()).unwrap();
    assert_eq!(store.list(), fresh.list());
    assert_eq!(store.quarantined_ids(), fresh.quarantined_ids());
}

/// Evicting a finished, previously suspended session whose record
/// write fails keeps the suspended record, so a reopened manager can
/// still resume the campaign and finish it to the result of an
/// uninterrupted twin of the same spec.
#[cfg(feature = "fault-injection")]
#[test]
fn failed_evict_write_of_a_finished_session_keeps_it_resumable() {
    use kgae_service::{fault, SessionManager, SnapshotStore};
    let _turn = IN_PROCESS_FAULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("evict-finished");
    let drive = |manager: &SessionManager<'_>, id: &str| loop {
        let (request, view) = manager.next_request(id, 4).unwrap();
        let Some(request) = request else { break };
        manager
            .submit(id, &true_labels(kg, &request), view.pending_seq)
            .unwrap();
    };
    let finished = {
        let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
        manager.create(&in_process_spec("victim", 0.05)).unwrap();
        let (r1, view) = manager.next_request("victim", 4).unwrap();
        manager
            .submit("victim", &true_labels(kg, &r1.unwrap()), view.pending_seq)
            .unwrap();
        manager.suspend("victim").unwrap();
        drive(&manager, "victim");
        manager.create(&in_process_spec("twin", 0.05)).unwrap();
        drive(&manager, "twin");
        let finished = common::final_result(&manager, "twin");
        assert_eq!(
            manager.status("victim").unwrap().status,
            kgae_core::SessionStatus::stopped(&finished.1, finished.0)
        );
        fault::configure("store.write=err").unwrap();
        let failed = manager.evict("victim");
        fault::clear();
        assert!(failed.is_err(), "the injected write failure was not seen");
        assert_index_matches_a_fresh_open(manager.store());
        finished
    };

    let store = SnapshotStore::open(&dir).unwrap();
    assert!(
        store.recovery_report().quarantined.is_empty(),
        "{:?}",
        store.recovery_report()
    );
    let manager = SessionManager::new(&registry, store, 2);
    assert!(manager.quarantined_sessions().is_empty());
    let view = manager.resume("victim").unwrap();
    assert_eq!(view.state.name(), "running");
    drive(&manager, "victim");
    let (reason, result) = common::final_result(&manager, "victim");
    assert_eq!(reason, finished.0);
    assert_eq!(format!("{result:?}"), format!("{:?}", finished.1));
    let _ = std::fs::remove_dir_all(&dir);
}
