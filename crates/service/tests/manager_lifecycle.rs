//! End-to-end lifecycle of the multi-tenant [`SessionManager`]: create
//! → poll/submit → suspend → evict → resume → finish, including the
//! acceptance property that a suspend → evict → resume round trip
//! through the snapshot store is byte-identical and trajectory-neutral.

mod common;

use common::final_result;
use kgae_core::{EvalResult, IntervalMethod, StopReason};
use kgae_graph::GroundTruth;
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, ServiceError, SessionState};
use kgae_service::{SessionManager, SnapshotStore};
use std::path::PathBuf;

fn temp_store(tag: &str) -> SnapshotStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-manager-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).unwrap()
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

/// Drives a session to completion through the manager, labeling with
/// the dataset's ground truth; returns its final result.
fn drive(
    manager: &SessionManager<'_>,
    registry: &DatasetRegistry,
    id: &str,
    dataset: &str,
    batch: u64,
) -> (StopReason, EvalResult) {
    let kg = registry.get(dataset).unwrap();
    loop {
        let (request, view) = manager.next_request(id, batch).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit(id, &labels, view.pending_seq).unwrap();
    }
    final_result(manager, id)
}

#[test]
fn create_drive_finish_across_designs() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("designs"), 4);
    for (i, design) in ["srs", "twcs:3", "wcs", "scs"].iter().enumerate() {
        let id = format!("d{i}");
        manager
            .create(&spec(&id, "nell", design, 42 + i as u64))
            .unwrap();
        let (reason, result) = drive(&manager, &registry, &id, "nell", 16);
        assert_eq!(reason, StopReason::MoeSatisfied, "{design}");
        assert!(result.converged, "{design}");
        assert!(result.interval.moe() <= 0.05 + 1e-12, "{design}");
        let view = manager.status(&id).unwrap();
        assert_eq!(view.state, SessionState::Finished);
        assert_eq!(view.status.stopped, Some(StopReason::MoeSatisfied));
    }
    assert_eq!(manager.list().len(), 4);
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn suspend_evict_resume_is_byte_identical_and_trajectory_neutral() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("roundtrip"), 4);
    let kg = registry.get("nell").unwrap();

    // A straight-through run of the same spec is the reference.
    manager
        .create(&spec("straight", "nell", "twcs:3", 7))
        .unwrap();
    let (_, reference) = drive(&manager, &registry, "straight", "nell", 8);

    // The probe runs three batches, then suspend → evict → resume.
    manager.create(&spec("probe", "nell", "twcs:3", 7)).unwrap();
    for _ in 0..3 {
        let (request, _) = manager.next_request("probe", 8).unwrap();
        let labels: Vec<bool> = request
            .unwrap()
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("probe", &labels, None).unwrap();
    }
    let view = manager.suspend("probe").unwrap();
    assert_eq!(view.state, SessionState::Evicted);
    assert!(view.snapshot_bytes.unwrap() > 0);
    let before = manager.snapshot_bytes("probe").unwrap();
    assert_eq!(view.snapshot_bytes, Some(before.len() as u64));

    manager.evict("probe").unwrap();
    assert_eq!(
        manager.status("probe").unwrap().state,
        SessionState::Evicted
    );
    // Evicted: zero in-memory state, snapshot still readable.
    assert_eq!(manager.snapshot_bytes("probe").unwrap(), before);

    let view = manager.resume("probe").unwrap();
    assert_eq!(view.state, SessionState::Running);
    // Re-suspending the resumed session reproduces the exact bytes: the
    // disk round trip lost nothing.
    manager.suspend("probe").unwrap();
    let after = manager.snapshot_bytes("probe").unwrap();
    assert_eq!(before, after, "snapshot bytes changed across evict/resume");

    manager.resume("probe").unwrap();
    let (_, interrupted) = drive(&manager, &registry, "probe", "nell", 8);
    assert_eq!(
        reference, interrupted,
        "suspend/evict/resume changed the trajectory"
    );
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn finished_sessions_survive_eviction_with_their_results() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("finished"), 2);
    manager.create(&spec("done", "yago", "srs", 3)).unwrap();
    let (reason, result) = drive(&manager, &registry, "done", "yago", 32);
    manager.evict("done").unwrap();
    let view = manager.status("done").unwrap();
    assert_eq!(view.state, SessionState::Evicted);
    assert_eq!(view.status.stopped, Some(reason));
    // The result is reloadable from the meta record alone.
    let (reason2, result2) = final_result(&manager, "done");
    assert_eq!(reason, reason2);
    assert_eq!(result, result2);
    // Resume brings it back as a Finished slot, and polls report done.
    manager.resume("done").unwrap();
    assert_eq!(
        manager.status("done").unwrap().state,
        SessionState::Finished
    );
    let (request, view) = manager.next_request("done", 4).unwrap();
    assert!(request.is_none());
    assert_eq!(view.state, SessionState::Finished);
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn repolls_are_idempotent_and_stale_submits_are_fenced() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("fencing"), 2);
    let kg = registry.get("nell").unwrap();
    manager.create(&spec("f", "nell", "srs", 5)).unwrap();

    // Re-polling with labels owed re-serves the identical batch (an
    // annotator that lost the response can recover), at the same seq.
    let (first, view1) = manager.next_request("f", 4).unwrap();
    let first = first.unwrap();
    let seq1 = view1.pending_seq.unwrap();
    let (again, view2) = manager.next_request("f", 9).unwrap();
    let again = again.unwrap();
    assert_eq!(first.triples, again.triples, "re-poll changed the batch");
    assert_eq!(view2.pending_seq, Some(seq1));

    let labels: Vec<bool> = first
        .triples
        .iter()
        .map(|st| kg.is_correct(st.triple))
        .collect();
    // A wrong seq is rejected before touching the engine.
    assert!(matches!(
        manager.submit("f", &labels, Some(seq1 + 1)),
        Err(ServiceError::StaleRequest(_))
    ));
    manager.submit("f", &labels, Some(seq1)).unwrap();
    // Replaying the same submit after the batch advanced is fenced off
    // — stale labels can never land on a newer batch.
    let (_next, view3) = manager.next_request("f", 4).unwrap();
    assert_ne!(view3.pending_seq, Some(seq1), "seq must advance");
    assert!(matches!(
        manager.submit("f", &labels, Some(seq1)),
        Err(ServiceError::StaleRequest(_))
    ));

    // Absurd batch sizes are clamped, not chased forever.
    manager.create(&spec("clamp", "nell", "wcs", 6)).unwrap();
    let (request, _) = manager.next_request("clamp", u64::MAX).unwrap();
    assert!(request.unwrap().units <= kgae_service::manager::MAX_BATCH_UNITS);
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn fences_survive_suspend_evict_and_restart() {
    // poll (seq 1) → submit → suspend → evict → poll again at the same
    // size → replay the old labels with seq 1: the rehydrated session
    // must not re-issue seq 1, so the replay is a stale 409 — and so is
    // the same replay after a restart over the same store.
    let registry = DatasetRegistry::standard();
    let store = temp_store("fence-rehydrate");
    let dir = store.dir().to_path_buf();
    let mut manager = SessionManager::new(&registry, store, 2);
    let kg = registry.get("nell").unwrap();
    let oracle = |request: &kgae_core::AnnotationRequest| -> Vec<bool> {
        request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect()
    };
    manager.create(&spec("r", "nell", "srs", 11)).unwrap();
    let (request, view) = manager.next_request("r", 4).unwrap();
    let old = oracle(&request.unwrap());
    let old_seq = view.pending_seq.unwrap();
    manager.submit("r", &old, Some(old_seq)).unwrap();
    for restart in [false, true] {
        manager.suspend("r").unwrap();
        manager.evict("r").unwrap();
        if restart {
            drop(manager);
            manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
        }
        let (request, view) = manager.next_request("r", 4).unwrap();
        let fresh = oracle(&request.unwrap());
        let seq = view.pending_seq.unwrap();
        assert!(seq > old_seq, "restart {restart}: seq {seq} re-issued");
        let err = manager.submit("r", &old, Some(old_seq)).unwrap_err();
        assert!(
            matches!(err, ServiceError::StaleRequest(_)),
            "restart {restart}: replay answered {err}"
        );
        assert_eq!(err.http_status(), 409);
        manager.submit("r", &fresh, Some(seq)).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn stratified_spec(id: &str, design: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        epsilon: 0.04,
        ..spec(id, "nell-pred", design, seed)
    }
}

#[test]
fn stratified_campaigns_run_report_rows_and_round_trip_snapshots() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("stratified"), 4);
    let kg = registry.get("nell-pred").unwrap();

    // Straight-through reference run.
    manager
        .create(&stratified_spec("straight", "stratified", 11))
        .unwrap();
    let (reason, reference) = drive(&manager, &registry, "straight", "nell-pred", 8);
    assert_eq!(reason, StopReason::MoeSatisfied);
    assert!(reference.converged);
    let view = manager.status("straight").unwrap();
    assert_eq!(view.design, "stratified:width-greedy");
    let strata = view.strata.as_ref().expect("stratified view has rows");
    assert_eq!(strata.len(), 8);
    assert_eq!(strata[0].name, "athleteplaysforteam");
    let weight_sum: f64 = strata.iter().map(|r| r.weight).sum();
    assert!((weight_sum - 1.0).abs() < 1e-12);
    // The pooled point estimate is exactly the weighted fold of the
    // per-stratum estimates — through the whole service stack.
    let manual = strata.iter().fold(0.0_f64, |acc, r| {
        acc + r.weight * r.status.estimate.unwrap()
    });
    assert_eq!(view.status.estimate.unwrap().to_bits(), manual.to_bits());

    // Probe: a few batches, then the suspend → evict → resume loop.
    manager
        .create(&stratified_spec("probe", "stratified", 11))
        .unwrap();
    for _ in 0..3 {
        let (request, view) = manager.next_request("probe", 8).unwrap();
        let request = request.unwrap();
        // The poll is addressed to a stratum and the view names it.
        let (index, name) = view.pending_stratum.clone().expect("stratified poll");
        assert_eq!(
            registry.stratification("nell-pred").unwrap().name(index),
            name
        );
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("probe", &labels, view.pending_seq).unwrap();
    }
    manager.suspend("probe").unwrap();
    let before = manager.snapshot_bytes("probe").unwrap();
    manager.evict("probe").unwrap();
    let evicted = manager.status("probe").unwrap();
    assert_eq!(evicted.state, SessionState::Evicted);
    // An evicted stratified session reports the rows of its resumed
    // snapshot.
    assert_eq!(evicted.strata.as_ref().unwrap().len(), 8);
    manager.resume("probe").unwrap();
    manager.suspend("probe").unwrap();
    let after = manager.snapshot_bytes("probe").unwrap();
    assert_eq!(
        before, after,
        "stratified suspend→evict→resume round trip must be byte-identical"
    );
    manager.resume("probe").unwrap();
    let (_, interrupted) = drive(&manager, &registry, "probe", "nell-pred", 8);
    assert_eq!(
        reference, interrupted,
        "suspend/evict/resume changed the stratified trajectory"
    );

    // Finished stratified results survive eviction, rows included.
    manager.evict("straight").unwrap();
    let view = manager.status("straight").unwrap();
    assert_eq!(view.status.stopped, Some(StopReason::MoeSatisfied));
    assert_eq!(view.strata.as_ref().unwrap().len(), 8);
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn stratified_hash_mode_works_on_any_dataset_and_bad_specs_are_typed() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("strat-hash"), 2);
    let kg = registry.get("yago").unwrap();

    // Hash partition over a dataset without predicate structure.
    let hash_spec = SessionSpec {
        stratify: Some(kgae_service::StratifySpec::Hash { strata: 4, seed: 9 }),
        ..spec("h", "yago", "stratified:equal", 21)
    };
    manager.create(&hash_spec).unwrap();
    let (reason, result) = drive(&manager, &registry, "h", "yago", 16);
    assert_eq!(reason, StopReason::MoeSatisfied);
    assert!(result.converged);
    let view = manager.status("h").unwrap();
    assert_eq!(view.design, "stratified:equal");
    assert_eq!(view.strata.as_ref().unwrap().len(), 4);
    // Equal allocation: converged per-stratum counts stay balanced.
    let counts: Vec<u64> = view
        .strata
        .as_ref()
        .unwrap()
        .iter()
        .map(|r| r.status.observations)
        .collect();
    let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
    assert!(max - min <= 16, "equal allocation drifted: {counts:?}");
    let _ = kg;

    // Predicate mode on a dataset without a built-in partition → 400.
    assert!(matches!(
        manager.create(&spec("bad", "yago", "stratified", 1)),
        Err(ServiceError::BadRequest(_))
    ));
    // Absurd hash stratum counts → 400.
    let absurd = SessionSpec {
        stratify: Some(kgae_service::StratifySpec::Hash {
            strata: 2_000_000,
            seed: 0,
        }),
        ..spec("bad2", "yago", "stratified", 1)
    };
    assert!(matches!(
        manager.create(&absurd),
        Err(ServiceError::BadRequest(_))
    ));
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn comparative_campaigns_report_method_rows_and_round_trip_snapshots() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("comparative"), 4);
    let kg = registry.get("nell").unwrap();

    // The straight-through reference: a plain aHPD/SRS session of the
    // same seed (the comparative primary must match it bit for bit).
    manager.create(&spec("solo", "nell", "srs", 23)).unwrap();
    let (_, solo) = drive(&manager, &registry, "solo", "nell", 16);

    manager
        .create(&spec("race", "nell", "compare:ahpd", 23))
        .unwrap();
    let view = manager.status("race").unwrap();
    assert_eq!(view.design, "compare:ahpd");
    let rows = view.methods.as_ref().expect("comparative rows");
    assert_eq!(rows.len(), 4);
    assert!(rows[3].primary);

    // Drive with a mid-flight suspend → evict → resume byte-identity
    // check through the unified engine path.
    let mut units = 0u64;
    loop {
        let (request, view) = manager.next_request("race", 16).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit("race", &labels, view.pending_seq).unwrap();
        units += 1;
        if units == 25 {
            manager.suspend("race").unwrap();
            let before = manager.snapshot_bytes("race").unwrap();
            manager.evict("race").unwrap();
            manager.resume("race").unwrap();
            manager.suspend("race").unwrap();
            let after = manager.snapshot_bytes("race").unwrap();
            assert_eq!(before, after, "comparative snapshot bytes diverged");
            manager.resume("race").unwrap();
        }
    }
    let (reason, result) = final_result(&manager, "race");
    assert_eq!(reason, StopReason::MoeSatisfied);
    assert_eq!(result, solo, "primary diverged from the standalone run");

    // Finished comparative sessions keep their method rows across
    // eviction (meta-only record).
    manager.evict("race").unwrap();
    let view = manager.status("race").unwrap();
    assert_eq!(view.state, SessionState::Evicted);
    let rows = view.methods.as_ref().expect("rows survive eviction");
    assert_eq!(rows.len(), 4);
    assert!(rows[3].converged && rows[3].stopped_at == Some(result.observations));

    // A comparative spec whose method field disagrees with the design's
    // primary is a typed 400, not a silent override.
    let mut bad = spec("bad", "nell", "compare:wald", 1);
    bad.method = IntervalMethod::ahpd_default();
    assert!(matches!(
        manager.create(&bad),
        Err(ServiceError::BadRequest(_))
    ));
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn error_paths_are_typed() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("errors"), 2);

    assert!(matches!(
        manager.status("ghost"),
        Err(ServiceError::UnknownSession(_))
    ));
    assert!(matches!(
        manager.create(&spec("bad id!", "nell", "srs", 1)),
        Err(ServiceError::InvalidId(_))
    ));
    assert!(matches!(
        manager.create(&spec("s", "wikidata", "srs", 1)),
        Err(ServiceError::UnknownDataset(_))
    ));

    manager.create(&spec("s", "nell", "srs", 1)).unwrap();
    assert!(matches!(
        manager.create(&spec("s", "nell", "srs", 2)),
        Err(ServiceError::SessionExists(_))
    ));

    // Outstanding request blocks suspend/evict and snapshot export.
    let (request, _) = manager.next_request("s", 4).unwrap();
    let expected = request.unwrap().triples.len();
    assert!(matches!(
        manager.suspend("s"),
        Err(ServiceError::RequestOutstanding(_))
    ));
    assert!(matches!(
        manager.evict("s"),
        Err(ServiceError::RequestOutstanding(_))
    ));
    assert!(matches!(
        manager.snapshot_bytes("s"),
        Err(ServiceError::NotSuspended(_))
    ));
    // Wrong label count is a 409-class engine error.
    assert!(matches!(
        manager.submit("s", &[true], None),
        Err(ServiceError::Session(_))
    ));
    manager.submit("s", &vec![true; expected], None).unwrap();
    let view = manager.status("s").unwrap();
    assert_eq!(
        (view.state, view.status.stopped),
        (SessionState::Running, None)
    );

    manager.delete("s").unwrap();
    assert!(matches!(
        manager.delete("s"),
        Err(ServiceError::UnknownSession(_))
    ));
    let _ = std::fs::remove_dir_all(manager.store().dir());
}
