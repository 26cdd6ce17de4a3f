//! The crash-safe / backpressure half of the [`SessionManager`]
//! contract: per-tenant quotas (429-shaped refusals that free on
//! delete and survive restarts), graceful drain (mid-batch sessions
//! suspend exactly and resume bit-identically), quarantine of
//! records that fail deep validation (410, never a wedged 500), and
//! refusal of out-of-range α/ε before any session exists (400, never a
//! poisoned shard).

use kgae_core::{IntervalMethod, StopReason};
use kgae_graph::GroundTruth;
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, ManagerLimits, ServiceError, SessionState};
use kgae_service::{SessionManager, SnapshotStore};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-robust-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `id`'s record file, and the offset of its snapshot bytes in it.
fn record_and_snapshot_offset(
    manager: &SessionManager<'_>,
    dir: &Path,
    id: &str,
) -> (PathBuf, usize) {
    let path = dir.join(format!("{id}.rec"));
    let record_len = std::fs::metadata(&path).unwrap().len() as usize;
    (path, record_len - manager.snapshot_bytes(id).unwrap().len())
}

fn spec(id: &str, tenant: Option<&str>, seed: u64) -> SessionSpec {
    SessionSpec {
        id: id.into(),
        dataset: "nell".into(),
        design: "srs".parse().unwrap(),
        method: IntervalMethod::ahpd_default(),
        seed,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: tenant.map(str::to_string),
    }
}

#[test]
fn tenant_quotas_refuse_with_retry_after_and_free_on_delete() {
    let registry = DatasetRegistry::standard();
    let limits = ManagerLimits {
        max_sessions_per_tenant: Some(2),
        max_total_sessions: Some(3),
        retry_after_secs: 7,
    };
    let dir = temp_dir("quota");
    let manager =
        SessionManager::with_limits(&registry, SnapshotStore::open(&dir).unwrap(), 4, limits);

    manager.create(&spec("a1", Some("acme"), 1)).unwrap();
    manager.create(&spec("a2", Some("acme"), 2)).unwrap();
    // Third session for the same tenant: per-tenant quota.
    let err = manager.create(&spec("a3", Some("acme"), 3)).unwrap_err();
    assert!(
        matches!(err, ServiceError::QuotaExceeded { limit: 2, .. }),
        "expected tenant quota, got {err}"
    );
    assert_eq!(err.http_status(), 429);
    assert_eq!(err.wire_code(), "quota_exceeded");
    assert_eq!(err.retry_after(), Some(7));
    // A failed create takes no slot.
    assert_eq!(manager.occupancy("acme"), (2, 2));

    // Another tenant fits (total 3)...
    manager.create(&spec("b1", Some("burl"), 4)).unwrap();
    // ...but the server-wide ceiling now refuses everyone.
    let err = manager.create(&spec("b2", Some("burl"), 5)).unwrap_err();
    assert!(matches!(err, ServiceError::QuotaExceeded { limit: 3, .. }));

    // Quota slots persist across suspend/evict (disk still occupied)…
    manager.suspend("a1").unwrap();
    manager.evict("a1").unwrap();
    assert!(matches!(
        manager.create(&spec("a3", Some("acme"), 3)),
        Err(ServiceError::QuotaExceeded { .. })
    ));
    // …and free only on delete.
    manager.delete("a1").unwrap();
    manager.create(&spec("a3", Some("acme"), 3)).unwrap();
    assert_eq!(manager.occupancy("acme"), (3, 2));

    // A restarted manager over the same store rebuilds the census from
    // disk: persist everything, reopen, and the quota still holds.
    let report = manager.drain();
    assert!(report.is_clean(), "drain failed: {:?}", report.failed);
    drop(manager);
    let manager =
        SessionManager::with_limits(&registry, SnapshotStore::open(&dir).unwrap(), 4, limits);
    assert_eq!(manager.occupancy("acme"), (3, 2));
    let err = manager.create(&spec("a4", Some("acme"), 6)).unwrap_err();
    assert!(
        matches!(err, ServiceError::QuotaExceeded { .. }),
        "restart forgot the census: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_suspends_mid_batch_sessions_and_resume_is_exact() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("drain");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);

    // Reference: an uninterrupted twin of the drained session.
    manager.create(&spec("twin", None, 9)).unwrap();
    manager.create(&spec("mid", None, 9)).unwrap();
    let mut twin_batches = Vec::new();
    for _ in 0..2 {
        let (request, view) = manager.next_request("mid", 8).unwrap();
        let request = request.unwrap();
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("mid", &labels, view.pending_seq).unwrap();
        let (twin_request, twin_view) = manager.next_request("twin", 8).unwrap();
        twin_batches.push(twin_request.unwrap());
        manager
            .submit("twin", &labels, twin_view.pending_seq)
            .unwrap();
    }
    // Leave "mid" with an outstanding batch, and park a finished
    // session alongside it.
    let (withdrawn, _) = manager.next_request("mid", 8).unwrap();
    let withdrawn = withdrawn.unwrap();
    manager.create(&spec("done", None, 13)).unwrap();
    loop {
        let (request, view) = manager.next_request("done", 64).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("done", &labels, view.pending_seq).unwrap();
    }

    let report = manager.drain();
    assert!(report.is_clean(), "drain failed: {:?}", report.failed);
    assert_eq!(report.cancelled, vec!["mid".to_string()]);
    assert_eq!(
        report.suspended,
        vec!["mid".to_string(), "twin".to_string()]
    );
    assert_eq!(report.finished, vec!["done".to_string()]);
    // Drain mode: creates refuse with 503 + Retry-After.
    let err = manager.create(&spec("late", None, 1)).unwrap_err();
    assert!(matches!(err, ServiceError::Draining { .. }));
    assert_eq!(err.http_status(), 503);
    assert!(err.retry_after().is_some());

    // A fresh manager over the drained store serves everything back:
    // the withdrawn batch reappears bit-identically, and the session
    // finishes exactly like its uninterrupted twin.
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    assert_eq!(manager.status("mid").unwrap().state, SessionState::Evicted);
    let (reason, result) = manager.final_result("done").unwrap();
    assert_eq!(reason, StopReason::MoeSatisfied);
    assert!(result.converged);

    let (replayed, view) = manager.next_request("mid", 8).unwrap();
    let replayed = replayed.unwrap();
    let ids = |r: &kgae_core::AnnotationRequest| {
        r.triples
            .iter()
            .map(|st| st.triple.index())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        ids(&withdrawn),
        ids(&replayed),
        "drain must not perturb the withdrawn batch"
    );
    let labels: Vec<bool> = replayed
        .triples
        .iter()
        .map(|st| kg.is_correct(st.triple))
        .collect();
    manager.submit("mid", &labels, view.pending_seq).unwrap();
    // The twin never polled the withdrawn batch; bring it level.
    let (twin_request, twin_view) = manager.next_request("twin", 8).unwrap();
    assert_eq!(ids(&replayed), ids(&twin_request.unwrap()));
    manager
        .submit("twin", &labels, twin_view.pending_seq)
        .unwrap();
    loop {
        let (request, view) = manager.next_request("mid", 8).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("mid", &labels, view.pending_seq).unwrap();
        let (twin_request, twin_view) = manager.next_request("twin", 8).unwrap();
        assert_eq!(ids(&request), ids(&twin_request.unwrap()));
        manager
            .submit("twin", &labels, twin_view.pending_seq)
            .unwrap();
    }
    assert!(
        manager.next_request("twin", 8).unwrap().0.is_none(),
        "twin must finish in lockstep with mid"
    );
    let (mid_reason, mid_result) = manager.final_result("mid").unwrap();
    let (twin_reason, twin_result) = manager.final_result("twin").unwrap();
    assert_eq!(mid_reason, twin_reason);
    assert_eq!(mid_result, twin_result);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_records_are_quarantined_as_410_not_500() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("quarantine");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);

    manager.create(&spec("victim", None, 3)).unwrap();
    let (request, view) = manager.next_request("victim", 8).unwrap();
    let labels: Vec<bool> = request
        .unwrap()
        .triples
        .iter()
        .map(|st| kg.is_correct(st.triple))
        .collect();
    manager.submit("victim", &labels, view.pending_seq).unwrap();
    manager.suspend("victim").unwrap();
    manager.evict("victim").unwrap();

    // Flip bytes deep inside the snapshot payload, past the header the
    // startup sweep validates — only deep resume validation sees this.
    let (record_path, snapshot_at) = record_and_snapshot_offset(&manager, &dir, "victim");
    let mut bytes = std::fs::read(&record_path).unwrap();
    let mid = snapshot_at + (bytes.len() - snapshot_at) / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xA5;
    }
    std::fs::write(&record_path, &bytes).unwrap();

    let err = manager.resume("victim").unwrap_err();
    assert!(
        matches!(err, ServiceError::Quarantined(_)),
        "expected quarantine, got {err}"
    );
    assert_eq!(err.http_status(), 410);
    assert_eq!(err.wire_code(), "quarantined");
    // Every subsequent operation answers 410 — deterministically, with
    // no further disk reads of the bad record.
    for err in [
        manager.status("victim").unwrap_err(),
        manager.next_request("victim", 8).map(|_| ()).unwrap_err(),
        manager
            .submit("victim", &[true], None)
            .map(|_| ())
            .unwrap_err(),
        manager.resume("victim").map(|_| ()).unwrap_err(),
        manager
            .create(&spec("victim", None, 3))
            .map(|_| ())
            .unwrap_err(),
    ] {
        assert_eq!(err.http_status(), 410, "{err}");
    }
    assert_eq!(manager.quarantined_sessions(), vec!["victim".to_string()]);
    // The bytes moved into quarantine/ for inspection; the main store
    // no longer lists the session.
    assert!(dir.join("quarantine").join("victim.rec").exists());
    assert!(!record_path.exists());
    assert!(manager.list().unwrap().is_empty());

    // A restart re-learns the quarantine from the store.
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    assert_eq!(manager.quarantined_sessions(), vec!["victim".to_string()]);
    assert_eq!(manager.status("victim").unwrap_err().http_status(), 410);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_version_snapshots_are_quarantined_as_410_not_500() {
    // A record stored before the v5 snapshot bump (here a v4, a v3, a
    // v2 and a v1 record) is a typed version mismatch: deep resume
    // quarantines it, and so does a restart's recovery sweep.
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("v1");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    for (id, version) in [("live", 4u16), ("boot", 3), ("older", 2), ("old", 1)] {
        manager.create(&spec(id, None, 5)).unwrap();
        let (request, view) = manager.next_request(id, 8).unwrap();
        let labels: Vec<bool> = request
            .unwrap()
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit(id, &labels, view.pending_seq).unwrap();
        manager.evict(id).unwrap();
        let (record_path, at) = record_and_snapshot_offset(&manager, &dir, id);
        let mut bytes = std::fs::read(&record_path).unwrap();
        assert_eq!(bytes[at + 8..at + 10], 5u16.to_le_bytes());
        bytes[at + 8..at + 10].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&record_path, &bytes).unwrap();
    }

    let err = manager.resume("live").unwrap_err();
    assert!(
        matches!(err, ServiceError::Quarantined(_)),
        "expected quarantine, got {err}"
    );
    assert_eq!(err.http_status(), 410);
    assert!(
        std::fs::read_to_string(dir.join("quarantine").join("live.reason"))
            .unwrap()
            .contains("unsupported version")
    );

    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    for id in ["live", "boot", "older", "old"] {
        let err = manager.next_request(id, 8).map(|_| ()).unwrap_err();
        assert_eq!(err.http_status(), 410, "{id}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_alpha_is_refused_before_a_session_exists() {
    // Each body, if accepted, makes the session's first interval panic
    // in the critical-value solve under the shard lock, poisoning the
    // shard for every later request. α = 1e-300 lies inside (0, 1), but
    // `1 − α/2` rounds to 1.
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("alpha");
    // One shard: every create below lands on the same lock.
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 1);
    for body in [
        r#"{"id":"s","dataset":"nell","design":"srs","method":"wald","alpha":0}"#,
        r#"{"id":"s","dataset":"nell","design":"srs","method":"wilson","alpha":1}"#,
        r#"{"id":"s","dataset":"nell","design":"compare:wald","method":"wald","alpha":0}"#,
        r#"{"id":"s","dataset":"nell","design":"srs","method":"wald","alpha":1e-300}"#,
        r#"{"id":"s","dataset":"nell","design":"srs","method":"ahpd","epsilon":0}"#,
    ] {
        let spec = SessionSpec::from_json(&kgae_service::json::parse(body).unwrap()).unwrap();
        let err = manager.create(&spec).unwrap_err();
        assert_eq!(
            (err.http_status(), err.wire_code()),
            (400, "bad_request"),
            "{body}: {err}"
        );
        assert!(
            matches!(manager.status("s"), Err(ServiceError::UnknownSession(_))),
            "{body}: a refused create left a session behind"
        );
    }
    // The shard still serves: a campaign under the same id runs to its
    // stop.
    manager.create(&spec("s", None, 3)).unwrap();
    loop {
        let (request, view) = manager.next_request("s", 64).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("s", &labels, view.pending_seq).unwrap();
    }
    let (reason, _) = manager.final_result("s").unwrap();
    assert_eq!(reason, StopReason::MoeSatisfied);
    let _ = std::fs::remove_dir_all(&dir);
}
