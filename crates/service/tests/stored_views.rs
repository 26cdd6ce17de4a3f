//! What a stored record holds and what a session only on disk reports.
//! A record's meta keeps only what resume cannot derive: the spec, the
//! state, and a suspended session's fencing seq or a finished session's
//! outcome. The view of an evicted session comes from its snapshot,
//! resumed by the running binary, so it equals the live view taken just
//! before `evict` in every field but where the session lives.

use kgae_core::{DeltaBatch, IntervalMethod};
use kgae_graph::{DeltaKg, GroundTruth};
use kgae_service::api::{self, SessionSpec};
use kgae_service::json::{self, Json};
use kgae_service::manager::{DatasetRegistry, ServiceError, SessionState, SessionView};
use kgae_service::{Metrics, SessionManager, SnapshotStore};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgae-stored-views-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(id: &str, dataset: &str, design: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        id: id.into(),
        dataset: dataset.into(),
        design: design.parse().unwrap(),
        method: IntervalMethod::ahpd_default(),
        seed,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: None,
    }
}

/// One spec per engine kind and design family: plain SRS and TWCS(3),
/// stratified, comparative, and two monitors (the second is driven
/// until it watches).
fn kind_specs() -> Vec<(SessionSpec, bool)> {
    vec![
        (spec("srs", "nell", "srs", 11), false),
        (spec("twcs", "nell", "twcs:3", 12), false),
        (
            SessionSpec {
                epsilon: 0.04,
                ..spec("strat", "nell-pred", "stratified", 13)
            },
            false,
        ),
        (spec("cmp", "nell", "compare:ahpd", 14), false),
        (spec("mon-mid", "nell", "monitor:50", 15), false),
        (spec("mon-watch", "nell", "monitor:50", 16), true),
    ]
}

/// Polls and labels up to `batches` batches of 8 units; stops early
/// when the session stops or watches.
fn drive(
    manager: &SessionManager<'_>,
    registry: &DatasetRegistry,
    spec: &SessionSpec,
    batches: usize,
) {
    let kg = registry.get(&spec.dataset).unwrap();
    label(manager, kg, &spec.id, batches);
}

/// [`drive`] with labels from `truth`.
fn label(manager: &SessionManager<'_>, truth: &dyn GroundTruth, id: &str, batches: usize) {
    for _ in 0..batches {
        let (request, view) = manager.next_request(id, 8).unwrap();
        let Some(request) = request else { return };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| truth.is_correct(st.triple))
            .collect();
        manager.submit(id, &labels, view.pending_seq).unwrap();
    }
}

/// The keys of `id`'s stored meta record, sorted.
fn meta_keys(manager: &SessionManager<'_>, id: &str) -> Vec<String> {
    let record = manager.store().load(id).unwrap().expect("stored record");
    let Json::Obj(fields) = json::parse(&record.meta).unwrap() else {
        panic!("{id}: meta is not an object");
    };
    let mut keys: Vec<String> = fields.into_iter().map(|(key, _)| key).collect();
    keys.sort();
    keys
}

/// Asserts that `evicted` is the view of an evicted session and equals
/// `before` apart from `state` and `snapshot_bytes`.
fn assert_same_view(before: &SessionView, evicted: &SessionView) {
    assert_eq!(evicted.state, SessionState::Evicted, "{}", before.id);
    let evicted = SessionView {
        state: before.state,
        snapshot_bytes: before.snapshot_bytes,
        ..evicted.clone()
    };
    assert_eq!(&evicted, before, "{}: evicted view differs", before.id);
}

#[test]
fn evicted_views_are_derived_from_the_resumed_snapshot() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("derived");
    let metrics = Arc::new(Metrics::new());
    let mut manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    manager.set_metrics(Arc::clone(&metrics));
    let cases = kind_specs();
    let mut before = Vec::new();
    for (spec, watch) in &cases {
        manager.create(spec).unwrap();
        drive(
            &manager,
            &registry,
            spec,
            if *watch { usize::MAX } else { 3 },
        );
        let view = manager.status(&spec.id).unwrap();
        assert_eq!(view.state, SessionState::Running, "{}", spec.id);
        if spec.id.starts_with("mon") {
            let watching = view.monitor.as_ref().expect("monitor rows").watching;
            assert_eq!(watching, *watch, "{}", spec.id);
        }
        manager.evict(&spec.id).unwrap();
        assert_eq!(meta_keys(&manager, &spec.id), ["seq", "spec", "state"]);
        assert_same_view(&view, &manager.status(&spec.id).unwrap());
        before.push(view);
    }
    // Reading an evicted session's view neither rehydrates it nor counts
    // as a resume.
    let census = manager.census();
    assert_eq!(census.iter().map(|s| s.evicted).sum::<u64>(), 6);
    assert_eq!(census.iter().map(|s| s.live).sum::<u64>(), 0);
    let exposition = metrics.encode(&census, None);
    assert!(exposition.contains("\nkgae_sessions_resumed_total 0\n"));

    // A restarted server derives the same views from the same records.
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    let listed = manager.list().unwrap();
    for view in &before {
        assert_same_view(view, &manager.status(&view.id).unwrap());
        let listed = listed.iter().find(|v| v.id == view.id).unwrap();
        assert_same_view(view, listed);
    }

    // Finished records keep the outcome, with the rows the engine kind
    // reports, and an evicted finished session reports it unchanged.
    for ((spec, _), extra) in cases
        .iter()
        .zip([None, None, Some("strata"), Some("methods")])
    {
        manager.resume(&spec.id).unwrap();
        drive(&manager, &registry, spec, usize::MAX);
        let finished = manager.status(&spec.id).unwrap();
        assert_eq!(finished.state, SessionState::Finished, "{}", spec.id);
        manager.evict(&spec.id).unwrap();
        let mut keys = vec!["reason", "result", "spec", "state"];
        keys.extend(extra);
        keys.sort_unstable();
        assert_eq!(meta_keys(&manager, &spec.id), keys);
        assert_same_view(&finished, &manager.status(&spec.id).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `meta` rewritten in the older layout, which also cached a status
/// and the row views between the state and the tail fields. The cached
/// fields hold `stale`; a finished record keeps its own outcome rows.
fn older_layout_meta(meta: &str, stale: &SessionView) -> String {
    let Json::Obj(fields) = json::parse(meta).unwrap() else {
        panic!("meta is not an object");
    };
    let (head, tail) = fields.split_at(2);
    let mut out = head.to_vec();
    out.push(("status".into(), api::status_to_json(&stale.status)));
    let rows = [
        ("strata", stale.strata.as_deref().map(api::strata_to_json)),
        (
            "methods",
            stale.methods.as_deref().map(api::methods_to_json),
        ),
        (
            "monitor",
            stale.monitor.as_ref().map(api::monitor_report_to_json),
        ),
    ];
    for (key, stale) in rows {
        let own = tail.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        if let Some(value) = own.or(stale) {
            out.push((key.into(), value));
        }
    }
    out.extend(
        tail.iter()
            .filter(|(k, _)| !["strata", "methods"].contains(&k.as_str()))
            .cloned(),
    );
    Json::Obj(out).encode()
}

#[test]
fn records_in_the_older_layout_load_and_resume_bit_identically() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("upgrade");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    let cases = kind_specs();
    let mut before = Vec::new();
    for (spec, watch) in &cases {
        // The stale fields hold the view right after create, so a
        // reader that trusted them would report the wrong status.
        let stale = manager.create(spec).unwrap();
        drive(
            &manager,
            &registry,
            spec,
            if *watch { usize::MAX } else { 3 },
        );
        let view = manager.status(&spec.id).unwrap();
        manager.evict(&spec.id).unwrap();
        let record = manager.store().load(&spec.id).unwrap().unwrap();
        let snapshot = record.snapshot.unwrap();
        let meta = older_layout_meta(&record.meta, &stale);
        manager
            .store()
            .save(&spec.id, &meta, Some(&snapshot))
            .unwrap();
        before.push((view, snapshot));
    }
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    for ((spec, _), (view, snapshot)) in cases.iter().zip(&before) {
        assert_same_view(view, &manager.status(&spec.id).unwrap());
        let twin = SessionSpec {
            id: format!("{}-twin", spec.id),
            ..spec.clone()
        };
        manager.create(&twin).unwrap();
        drive(&manager, &registry, &twin, usize::MAX);
        manager.resume(&spec.id).unwrap();
        manager.suspend(&spec.id).unwrap();
        assert_eq!(
            &manager.snapshot_bytes(&spec.id).unwrap(),
            snapshot,
            "{}",
            spec.id
        );
        drive(&manager, &registry, spec, usize::MAX);
        let (done, straight) = (
            manager.status(&spec.id).unwrap(),
            manager.status(&twin.id).unwrap(),
        );
        assert_eq!(
            SessionView {
                id: twin.id.clone(),
                ..done
            },
            straight,
            "{}: the resumed record diverged from its twin",
            spec.id
        );
    }

    // A finished record in the older layout keeps its outcome.
    let (spec, _) = &cases[2];
    let finished = manager.status(&spec.id).unwrap();
    assert_eq!(finished.state, SessionState::Finished);
    manager.evict(&spec.id).unwrap();
    let record = manager.store().load(&spec.id).unwrap().unwrap();
    let meta = older_layout_meta(&record.meta, &before[2].0);
    manager.store().save(&spec.id, &meta, None).unwrap();
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    assert_same_view(&finished, &manager.status(&spec.id).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_record_is_left_out_of_the_listing() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("listing");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    for id in ["a", "b", "c"] {
        let spec = spec(id, "nell", "srs", 5);
        manager.create(&spec).unwrap();
        drive(&manager, &registry, &spec, 1);
        manager.evict(id).unwrap();
    }
    // After the store opened: `b`'s meta stops parsing, and `c`'s
    // snapshot is damaged past the header the startup sweep checks.
    let snapshot = |id: &str| manager.store().load(id).unwrap().unwrap().snapshot.unwrap();
    let b = snapshot("b");
    manager.store().save("b", "{\"spec\":", Some(&b)).unwrap();
    let mut c = snapshot("c");
    let mid = c.len() / 2;
    for byte in &mut c[mid..mid + 8] {
        *byte ^= 0xA5;
    }
    let meta = manager.store().load("c").unwrap().unwrap().meta;
    manager.store().save("c", &meta, Some(&c)).unwrap();

    let ids = |views: Vec<SessionView>| views.into_iter().map(|v| v.id).collect::<Vec<_>>();
    assert_eq!(ids(manager.list().unwrap()), ["a"]);
    assert_eq!(manager.quarantined_sessions(), ["b", "c"]);
    for id in ["b", "c"] {
        let err = manager.status(id).unwrap_err();
        assert!(matches!(err, ServiceError::Quarantined(_)), "{id}: {err}");
    }
    assert_eq!(ids(manager.list().unwrap()), ["a"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_final_result_read_quarantines_a_meta_that_does_not_decode() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("final-result");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    // One finished campaign and one mid-flight, both evicted; then
    // their metas stop parsing.
    for (id, batches) in [("done", usize::MAX), ("mid", 2)] {
        let spec = spec(id, "nell", "srs", 9);
        manager.create(&spec).unwrap();
        drive(&manager, &registry, &spec, batches);
        manager.evict(id).unwrap();
        let snapshot = manager.store().load(id).unwrap().unwrap().snapshot;
        manager
            .store()
            .save(id, "{\"spec\":", snapshot.as_deref())
            .unwrap();
    }
    for id in ["done", "mid", "done", "mid"] {
        let err = manager.final_result(id).unwrap_err();
        assert!(matches!(err, ServiceError::Quarantined(_)), "{id}: {err}");
        assert_eq!(err.http_status(), 410, "{id}");
    }
    assert_eq!(manager.quarantined_sessions(), ["done", "mid"]);
    assert!(manager.list().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rehydrated_monitor_replays_through_the_shared_kernel_cache() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("kernel");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    let probe = spec("probe", "nell", "monitor:50", 21);
    let twin = spec("twin", "nell", "monitor:50", 21);
    // A first campaign to its end, a batch that re-opens it, and a few
    // polls into the second: the log replays both campaigns' checks.
    let reopen = DeltaBatch {
        predicate: Some("drift".into()),
        removes: vec![],
        adds: vec![false; 400],
    };
    let kg = registry.get("nell").unwrap();
    let mut truth = DeltaKg::with_truth(kg, kg);
    for spec in [&probe, &twin] {
        manager.create(spec).unwrap();
        drive(&manager, &registry, spec, usize::MAX);
    }
    truth.apply(&reopen.removes, &reopen.adds).unwrap();
    for spec in [&probe, &twin] {
        let (outcome, _) = manager.apply_deltas(&spec.id, &reopen).unwrap();
        assert!(outcome.reopened);
        label(&manager, &truth, &spec.id, 3);
    }
    manager.evict("probe").unwrap();
    let hits = || manager.kernel_stats().hits;
    let start = hits();
    manager.status("probe").unwrap();
    let after_status = hits();
    assert!(
        after_status > start,
        "the status path replayed without the cache"
    );
    manager.resume("probe").unwrap();
    assert!(
        hits() > after_status,
        "rehydration replayed without the cache"
    );
    for spec in [&probe, &twin] {
        label(&manager, &truth, &spec.id, usize::MAX);
    }
    let (done, straight) = (
        manager.status("probe").unwrap(),
        manager.status("twin").unwrap(),
    );
    assert!(done.monitor.as_ref().unwrap().watching);
    assert_eq!(
        SessionView {
            id: "twin".into(),
            ..done
        },
        straight
    );
    let _ = std::fs::remove_dir_all(&dir);
}
