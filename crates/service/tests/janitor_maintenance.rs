//! Deterministic janitor maintenance: idle sessions are parked in a
//! real manager over a real store directory, ticks run synchronously
//! through [`Janitor::tick`], and the effects are observed both **on
//! disk** and **in the metrics registry** the `/metrics` exposition is
//! built from.

use kgae_service::json::Json;
use kgae_service::manager::DatasetRegistry;
use kgae_service::{Janitor, JanitorConfig, Metrics, SessionManager, SessionSpec, SnapshotStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_store(tag: &str) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-janitor-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(id: &str, max_observations: Option<u64>) -> SessionSpec {
    let mut pairs = vec![
        ("id", Json::str(id)),
        ("dataset", Json::str("nell")),
        ("design", Json::str("srs")),
        ("method", Json::str("wilson")),
        ("seed", Json::int(11)),
    ];
    if let Some(budget) = max_observations {
        pairs.push(("max_observations", Json::int(budget)));
    }
    SessionSpec::from_json(&Json::obj(pairs)).expect("valid spec")
}

/// TTL aging: in one tick an idle running session is suspended straight
/// to disk and an idle finished one is evicted, while a session with an
/// outstanding annotation batch is never touched — all visible in the
/// census gauges.
#[test]
fn ttl_aging_spills_idle_sessions_and_spares_outstanding_work() {
    let registry = DatasetRegistry::standard();
    let dir = temp_store("ttl");
    let metrics = Arc::new(Metrics::new());
    let mut manager = SessionManager::new(&registry, SnapshotStore::open(&dir).expect("store"), 4);
    manager.set_metrics(Arc::clone(&metrics));

    manager.create(&spec("idle", None)).expect("create idle");
    manager.create(&spec("busy", None)).expect("create busy");
    // `busy` owes labels: an outstanding batch pins it in memory.
    manager.next_request("busy", 4).expect("poll busy");
    // `dormant` is already on disk: nothing in memory to age.
    manager.create(&spec("dormant", None)).expect("create");
    manager.suspend("dormant").expect("suspend dormant");
    // `done` stops on its budget and stays in memory, finished.
    manager.create(&spec("done", Some(8))).expect("create done");
    while let (Some(request), view) = manager.next_request("done", 4).expect("poll done") {
        let labels = vec![true; request.triples.len()];
        manager
            .submit("done", &labels, view.pending_seq)
            .expect("label done");
    }
    assert_eq!(
        manager.status("done").expect("done").state.name(),
        "finished"
    );

    let janitor = Janitor::new(JanitorConfig {
        tick: Duration::from_millis(1),
        idle_ttl: Duration::ZERO,
    })
    .with_metrics(Arc::clone(&metrics));

    // One tick: the idle running session is suspended to disk and the
    // finished one evicted. `busy` is untouched.
    let report = janitor.tick(&manager);
    assert_eq!(report.aged_suspended, 1, "idle → disk");
    assert_eq!(report.aged_evicted, 1, "finished → disk");
    assert!(dir.join("idle.rec").exists(), "idle not persisted");
    assert!(dir.join("done.rec").exists(), "done not persisted");

    // The census agrees: one live session (busy), three on disk only,
    // and no lifecycle state between the two.
    let census = manager.census();
    let live: u64 = census.iter().map(|s| s.live).sum();
    let finished: u64 = census.iter().map(|s| s.finished).sum();
    let evicted: u64 = census.iter().map(|s| s.evicted).sum();
    assert_eq!(live, 1, "busy must survive aging");
    assert_eq!(finished, 0, "the finished session left memory");
    assert_eq!(evicted, 3, "idle, dormant and done live on disk only");
    let gauges = metrics.encode(&census, None);
    assert!(!gauges.contains("state=\"suspended\""), "{gauges}");

    // The next tick has nothing left to age; `busy` still owes labels.
    assert!(janitor.tick(&manager).is_idle());
    let view = manager.status("busy").expect("busy status");
    assert_eq!(view.state.name(), "running", "busy was aged while owed");

    // The aged sessions resume transparently — aging lost nothing.
    let view = manager.resume("idle").expect("resume idle");
    assert_eq!(view.state.name(), "running");
    let view = manager.resume("done").expect("resume done");
    assert_eq!(view.state.name(), "finished");

    let exposition = metrics.encode(&manager.census(), Some(&manager.kernel_stats()));
    for line in [
        "kgae_janitor_aged_suspended_total 1",
        "kgae_janitor_aged_evicted_total 1",
        "kgae_janitor_ticks_total 2",
    ] {
        assert!(
            exposition.contains(&format!("\n{line}\n")),
            "missing {line:?} in exposition"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
