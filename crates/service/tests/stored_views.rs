//! What a stored record holds and what a session only on disk reports.
//! A record's meta keeps only what resume cannot derive: the spec, the
//! state, and a suspended session's fencing seq or a finished session's
//! outcome. The view of an evicted session comes from its snapshot,
//! resumed by the running binary, so it equals the live view taken just
//! before `evict` in every field but where the session lives, and it is
//! the view `suspend` answers. The listing reads the store's index
//! instead: an evicted entry is its id, its state and, once finished,
//! its stop reason, and no record is read to list it.

use kgae_core::{DeltaBatch, IntervalMethod, StopReason};
use kgae_graph::{DeltaKg, GroundTruth};
use kgae_service::api::{self, SessionSpec};
use kgae_service::json::{self, Json};
use kgae_service::manager::{
    DatasetRegistry, ListedSession, ServiceError, SessionState, SessionView,
};
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

    // A restarted server derives the same views from the same records,
    // and lists each one by its id and state.
    drop(manager);
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
    let listed = manager.list();
    for view in &before {
        assert_same_view(view, &manager.status(&view.id).unwrap());
        let listed = listed.iter().find(|l| l.id() == view.id).unwrap();
        let (id, reason) = (view.id.clone(), None);
        assert_eq!(listed, &ListedSession::Stored { id, reason });
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

#[test]
fn suspend_answers_the_view_a_status_read_derives() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("suspend");
    let (manager, metrics) = reopen(&registry, &dir);
    let reads = || counter(&metrics, "kgae_store_records_read_total");
    for (spec, watch) in kind_specs() {
        manager.create(&spec).unwrap();
        let batches = if watch { usize::MAX } else { 3 };
        drive(&manager, &registry, &spec, batches);
        let suspended = manager.suspend(&spec.id).unwrap();
        assert_eq!(suspended.state, SessionState::Evicted, "{}", spec.id);
        // The engine is gone: the status read derives the view from
        // the record, and it agrees field for field.
        let before = reads();
        assert_eq!(manager.status(&spec.id).unwrap(), suspended, "{}", spec.id);
        assert_eq!(reads(), before + 1, "{}", spec.id);
        let snapshot = manager.snapshot_bytes(&spec.id).unwrap();
        assert_eq!(suspended.snapshot_bytes, Some(snapshot.len() as u64));
        // Suspend → resume → suspend keeps the bytes and the view.
        manager.resume(&spec.id).unwrap();
        assert_eq!(manager.suspend(&spec.id).unwrap(), suspended, "{}", spec.id);
        assert_eq!(
            manager.snapshot_bytes(&spec.id).unwrap(),
            snapshot,
            "{}",
            spec.id
        );
    }
    // Every suspended session lives only on disk and is listed as such.
    let census = manager.census();
    assert_eq!(census.iter().map(|s| s.evicted).sum::<u64>(), 6);
    assert_eq!(census.iter().map(|s| s.live + s.finished).sum::<u64>(), 0);
    for entry in manager.list() {
        let id = entry.id().to_string();
        assert_eq!(entry, ListedSession::Stored { id, reason: None });
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

    // The listing reads no record, so the damaged ones stay listed
    // until a per-id read quarantines them.
    assert_eq!(ids(&manager.list()), ["a", "b", "c"]);
    assert!(manager.quarantined_sessions().is_empty());
    for id in ["b", "c"] {
        let err = manager.status(id).unwrap_err();
        assert!(matches!(err, ServiceError::Quarantined(_)), "{id}: {err}");
    }
    assert_eq!(manager.quarantined_sessions(), ["b", "c"]);
    assert_eq!(ids(&manager.list()), ["a"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ids of a listing, in order.
fn ids(listed: &[ListedSession]) -> Vec<&str> {
    listed.iter().map(ListedSession::id).collect()
}

#[test]
fn a_status_read_quarantines_a_meta_that_does_not_decode() {
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
        let err = manager.status(id).unwrap_err();
        assert!(matches!(err, ServiceError::Quarantined(_)), "{id}: {err}");
        assert_eq!(err.http_status(), 410, "{id}");
    }
    assert_eq!(manager.quarantined_sessions(), ["done", "mid"]);
    assert!(manager.list().is_empty());
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

/// Plants `copies` copies of the record `template` under the ids
/// `template` with its last four characters replaced by `0001`,
/// `0002`, …: ids of the template's length, so the one occurrence of
/// the id in the copy's meta is replaced in place and the record's
/// framing stays valid.
fn plant_copies(dir: &std::path::Path, template: &str, copies: usize) -> Vec<String> {
    let bytes = std::fs::read(dir.join(format!("{template}.rec"))).unwrap();
    let at = bytes
        .windows(template.len())
        .position(|w| w == template.as_bytes())
        .unwrap();
    let stem = &template[..template.len() - 4];
    (1..=copies)
        .map(|k| {
            let id = format!("{stem}{k:04}");
            let mut copy = bytes.clone();
            copy[at..at + id.len()].copy_from_slice(id.as_bytes());
            std::fs::write(dir.join(format!("{id}.rec")), copy).unwrap();
            id
        })
        .collect()
}

/// The value of the counter `name` in `metrics`' exposition.
fn counter(metrics: &Metrics, name: &str) -> u64 {
    let exposition = metrics.encode(&[], None);
    let line = exposition
        .lines()
        .find(|line| line.split(' ').next() == Some(name))
        .unwrap();
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// A manager over the store at `dir` with a fresh metrics registry.
fn reopen<'a>(registry: &'a DatasetRegistry, dir: &PathBuf) -> (SessionManager<'a>, Arc<Metrics>) {
    let metrics = Arc::new(Metrics::new());
    let mut manager = SessionManager::new(registry, SnapshotStore::open(dir).unwrap(), 4);
    manager.set_metrics(Arc::clone(&metrics));
    (manager, metrics)
}

#[test]
fn the_listing_reads_the_index_and_agrees_with_status() {
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("index");
    // Three templates: one mid-flight, one stopped on the MoE, one on
    // its budget; all evicted.
    let (manager, _) = reopen(&registry, &dir);
    let budget = SessionSpec {
        max_observations: Some(16),
        ..spec("b0000", "nell", "srs", 3)
    };
    for (spec, batches) in [
        (spec("m0000", "nell", "srs", 1), 2),
        (spec("f0000", "nell", "srs", 2), usize::MAX),
        (budget, usize::MAX),
    ] {
        manager.create(&spec).unwrap();
        drive(&manager, &registry, &spec, batches);
        manager.evict(&spec.id).unwrap();
    }
    drop(manager);
    let mut stored = vec!["b0000".to_string(), "f0000".into(), "m0000".into()];
    for template in ["m0000", "f0000", "b0000"] {
        stored.extend(plant_copies(&dir, template, 400));
    }
    stored.sort();

    // A restart indexes the records; listing and counting them reads
    // none, and so builds no engine from one.
    let (manager, metrics) = reopen(&registry, &dir);
    let census = manager.census();
    assert_eq!(census.iter().map(|s| s.evicted).sum::<u64>(), 1_203);
    let listed = manager.list();
    assert_eq!(ids(&listed), stored);
    assert_eq!(counter(&metrics, "kgae_store_records_read_total"), 0);
    assert_eq!(counter(&metrics, "kgae_sessions_resumed_total"), 0);
    // Each entry agrees with the per-id view, which reads the record.
    for entry in &listed {
        let view = manager.status(entry.id()).unwrap();
        assert_eq!(view.state, SessionState::Evicted, "{}", entry.id());
        let reason = view.status.stopped;
        let id = entry.id().to_string();
        assert_eq!(entry, &ListedSession::Stored { id, reason });
        let want = match &entry.id()[..1] {
            "m" => None,
            "f" => Some(StopReason::MoeSatisfied),
            _ => Some(StopReason::BudgetExhausted),
        };
        assert_eq!(reason, want, "{}", entry.id());
    }
    assert_eq!(counter(&metrics, "kgae_store_records_read_total"), 1_203);

    // Damage one record on disk: it stays listed until its status read
    // quarantines it, and then the listing and a restart agree.
    let victim = "m0007";
    let path = dir.join(format!("{victim}.rec"));
    let mut bytes = std::fs::read(&path).unwrap();
    let end = bytes.len();
    bytes[end - 40..].iter_mut().for_each(|byte| *byte ^= 0xA5);
    std::fs::write(&path, bytes).unwrap();
    assert!(ids(&manager.list()).contains(&victim));
    let err = manager.status(victim).unwrap_err();
    assert!(matches!(err, ServiceError::Quarantined(_)), "{err}");
    stored.retain(|id| id != victim);
    assert_eq!(ids(&manager.list()), stored);
    drop(manager);
    let (manager, metrics) = reopen(&registry, &dir);
    assert_eq!(manager.quarantined_sessions(), [victim]);
    let listed = manager.list();
    assert_eq!(ids(&listed), stored);
    assert_eq!(counter(&metrics, "kgae_store_records_read_total"), 0);
    for entry in listed.iter().step_by(50) {
        let view = manager.status(entry.id()).unwrap();
        assert_eq!(view.state, SessionState::Evicted, "{}", entry.id());
        let reason = view.status.stopped;
        let id = entry.id().to_string();
        assert_eq!(entry, &ListedSession::Stored { id, reason });
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Release probe (CI runs it): 10,000 evicted SRS-aHPD campaigns on
/// DBpedia, each 10 batches of 8 in. Times store open plus manager
/// construction, and `list()`, which must take at most 5 ms.
#[test]
#[ignore = "release-mode probe; run with --ignored --nocapture"]
fn ten_thousand_dormant_records_list_in_milliseconds() {
    const RECORDS: usize = 10_000;
    let registry = DatasetRegistry::standard();
    let dir = temp_dir("probe");
    let (manager, _) = reopen(&registry, &dir);
    let template = spec("p00000", "dbpedia", "srs", 1);
    manager.create(&template).unwrap();
    drive(&manager, &registry, &template, 10);
    manager.evict(&template.id).unwrap();
    drop(manager);
    plant_copies(&dir, &template.id, RECORDS - 1);

    let started = std::time::Instant::now();
    let (manager, metrics) = reopen(&registry, &dir);
    let open = started.elapsed();
    let mut best = std::time::Duration::MAX;
    for _ in 0..5 {
        let started = std::time::Instant::now();
        let listed = manager.list();
        best = best.min(started.elapsed());
        assert_eq!(listed.len(), RECORDS);
    }
    assert_eq!(counter(&metrics, "kgae_store_records_read_total"), 0);
    println!(
        "{RECORDS} evicted records: store open + manager construction {:.1} ms, \
         list() {:.3} ms (best of 5)",
        open.as_secs_f64() * 1e3,
        best.as_secs_f64() * 1e3
    );
    assert!(
        best <= std::time::Duration::from_millis(5),
        "list() took {best:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
