//! Concurrency stress: N threads hammer create / next / submit /
//! suspend / resume / evict on overlapping session ids, with randomized
//! batch sizes and interleavings. The manager must neither deadlock nor
//! let the chaos perturb a single session's evaluation trajectory —
//! every final result must be **bit-identical** to a single-threaded
//! batch-1 replay of the same spec (batching and suspension are proven
//! trajectory-neutral, so any divergence here is a concurrency bug).

mod common;

use common::final_result;
use kgae_core::{DeltaBatch, EvalResult, IntervalMethod, MonitorReport, StopReason};
use kgae_graph::{DeltaKg, GroundTruth};
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, ServiceError, SessionState, SessionView};
use kgae_service::{Janitor, JanitorConfig, SessionManager, SnapshotStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const THREADS: usize = 8;
const SESSIONS: usize = 12;

fn temp_store(tag: &str) -> SnapshotStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).unwrap()
}

fn specs() -> Vec<SessionSpec> {
    let datasets = ["nell", "yago"];
    let designs = ["srs", "twcs:3"];
    (0..SESSIONS)
        .map(|i| SessionSpec {
            id: format!("stress-{i}"),
            dataset: datasets[i % datasets.len()].into(),
            design: designs[(i / 2) % designs.len()].parse().unwrap(),
            method: IntervalMethod::ahpd_default(),
            seed: 1000 + i as u64,
            alpha: 0.05,
            epsilon: 0.05,
            max_observations: None,
            stratify: None,
            tenant: None,
        })
        .collect()
}

/// One worker: random ops over random sessions until every session is
/// finished. Errors caused by cross-thread interleavings (request
/// outstanding, already finished, ...) are part of the protocol and
/// tolerated; anything else fails the test.
#[allow(clippy::needless_pass_by_value)]
fn worker(
    manager: &SessionManager<'_>,
    registry: &DatasetRegistry,
    specs: &[SessionSpec],
    done: &[AtomicBool],
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut spins = 0u64;
    while !done.iter().all(|d| d.load(Ordering::Relaxed)) {
        spins += 1;
        assert!(spins < 2_000_000, "stress loop failed to converge");
        let i = rng.gen_range(0..specs.len());
        let spec = &specs[i];
        let id = spec.id.as_str();
        let tolerate = |e: &ServiceError| {
            matches!(
                e,
                ServiceError::RequestOutstanding(_)
                    | ServiceError::AlreadyFinished(_)
                    | ServiceError::NotSuspended(_)
                    | ServiceError::StaleRequest(_)
                    | ServiceError::Session(_)
            )
        };
        match rng.gen_range(0..10u64) {
            0 => match manager.suspend(id) {
                Ok(_) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("suspend {id}: {e}"),
            },
            1 => match manager.resume(id) {
                Ok(_) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("resume {id}: {e}"),
            },
            2 => match manager.evict(id) {
                Ok(()) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("evict {id}: {e}"),
            },
            3 => {
                let view = manager.status(id).expect("status");
                if view.state == SessionState::Finished {
                    done[i].store(true, Ordering::Relaxed);
                }
            }
            _ => {
                // Advance: poll a random batch, label it from ground
                // truth, submit. Only the thread holding the request's
                // triples can submit — the protocol serializes writers.
                let batch = rng.gen_range(1..=8u64);
                let (request, view) = match manager.next_request(id, batch) {
                    Ok(outcome) => outcome,
                    Err(e) if tolerate(&e) => continue,
                    Err(e) => panic!("next_request {id}: {e}"),
                };
                let Some(request) = request else {
                    assert_eq!(view.state, SessionState::Finished);
                    done[i].store(true, Ordering::Relaxed);
                    continue;
                };
                let kg = registry.get(&spec.dataset).unwrap();
                let labels: Vec<bool> = request
                    .triples
                    .iter()
                    .map(|st| kg.is_correct(st.triple))
                    .collect();
                let view = match manager.submit(id, &labels, view.pending_seq) {
                    Ok(view) => view,
                    Err(e) if tolerate(&e) => continue,
                    Err(e) => panic!("submit {id}: {e}"),
                };
                if view.state == SessionState::Finished {
                    done[i].store(true, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Single-threaded reference: the same spec driven to completion with
/// batch 1 on a fresh manager, in a store of its own under `tag` (tests
/// that replay the same specs run in parallel).
fn replay(tag: &str, spec: &SessionSpec, registry: &DatasetRegistry) -> (StopReason, EvalResult) {
    let store = temp_store(&format!("replay-{tag}-{}", spec.id));
    let manager = SessionManager::new(registry, store, 1);
    manager.create(spec).unwrap();
    let kg = registry.get(&spec.dataset).unwrap();
    loop {
        let (request, _) = manager.next_request(&spec.id, 1).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        manager.submit(&spec.id, &labels, None).unwrap();
    }
    let result = final_result(&manager, &spec.id);
    let _ = std::fs::remove_dir_all(manager.store().dir());
    result
}

#[test]
fn concurrent_chaos_preserves_every_trajectory() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("chaos"), 4);
    let specs = specs();
    for spec in &specs {
        manager.create(spec).unwrap();
    }
    let done: Vec<AtomicBool> = (0..specs.len()).map(|_| AtomicBool::new(false)).collect();

    crossbeam::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let manager = &manager;
            let registry = &registry;
            let specs = &specs;
            let done = &done;
            handles.push(scope.spawn(move |_| {
                worker(manager, registry, specs, done, 0xC0FFEE + t as u64);
            }));
        }
        for handle in handles {
            handle.join().expect("stress worker");
        }
    })
    .expect("stress scope");

    // Every session finished (possibly evicted afterwards, result on
    // disk), and bit-identically to its solo replay.
    for spec in &specs {
        let view = manager.status(&spec.id).unwrap();
        assert!(
            matches!(view.state, SessionState::Finished | SessionState::Evicted),
            "{}: {:?}",
            spec.id,
            view.state
        );
        assert!(view.status.stopped.is_some(), "{}", spec.id);
        let (reason, result) = final_result(&manager, &spec.id);
        let (ref_reason, ref_result) = replay("chaos", spec, &registry);
        assert_eq!(reason, ref_reason, "{}", spec.id);
        assert_eq!(
            result, ref_result,
            "{}: concurrent interleavings changed the final posterior",
            spec.id
        );
    }
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

/// One monitored session under churn: its spec, its predetermined
/// delta schedule, and — behind one mutex — the ground-truth twin view
/// plus the schedule cursor. Deltas are only pushed at *watching*
/// boundaries (the sole state in which a monitor accepts no labels and
/// owes none), so the operation order seen by the engine is exactly
/// `campaign → delta k → campaign → delta k+1 → …` no matter how many
/// threads race: any interleaving must then be bit-identical to the
/// single-threaded replay.
struct MonitorCase<'a> {
    spec: SessionSpec,
    schedule: Vec<DeltaBatch>,
    /// Ground-truth twin (fed the same batches, so view ids resolve
    /// exactly as inside the engine) and the next-delta cursor.
    twin: Mutex<(DeltaKg<'a>, usize)>,
}

fn monitor_schedule(i: usize) -> Vec<DeltaBatch> {
    vec![
        DeltaBatch {
            predicate: Some("churn".into()),
            removes: (0..40 * (i as u64 + 1)).collect(),
            adds: vec![true; 60 * (i + 1)],
        },
        DeltaBatch {
            predicate: Some("bulkLoad".into()),
            removes: vec![],
            adds: vec![i.is_multiple_of(2); 1800],
        },
        DeltaBatch {
            predicate: None,
            removes: (0..25).collect(),
            adds: vec![],
        },
    ]
}

fn monitor_cases(registry: &DatasetRegistry) -> Vec<MonitorCase<'_>> {
    let kg = registry.get("nell").unwrap();
    (0..4)
        .map(|i| MonitorCase {
            spec: SessionSpec {
                id: format!("mon-{i}"),
                dataset: "nell".into(),
                design: "monitor:50".parse().unwrap(),
                method: IntervalMethod::ahpd_default(),
                seed: 7_000 + i as u64,
                alpha: 0.05,
                epsilon: 0.05,
                max_observations: None,
                stratify: None,
                tenant: None,
            },
            schedule: monitor_schedule(i),
            twin: Mutex::new((DeltaKg::with_truth(kg, kg), 0)),
        })
        .collect()
}

/// (estimate bits, interval bits, observations, triples, cost bits, report).
type MonitorFingerprint = (
    Option<u64>,
    Option<(u64, u64)>,
    u64,
    u64,
    u64,
    Option<MonitorReport>,
);

/// Bit-level fingerprint of a monitor's final service view.
fn monitor_fingerprint(view: &SessionView) -> MonitorFingerprint {
    (
        view.status.estimate.map(f64::to_bits),
        view.status
            .interval
            .map(|i| (i.lower().to_bits(), i.upper().to_bits())),
        view.status.observations,
        view.status.annotated_triples,
        view.status.cost_seconds.to_bits(),
        view.monitor.clone(),
    )
}

/// One monitor-churn worker: random suspend/resume/evict/poll/submit
/// chaos, plus schedule advancement — the next delta is pushed only
/// when the monitor is observed watching, under the case's mutex, so
/// batches land in schedule order at campaign boundaries.
fn monitor_worker(
    manager: &SessionManager<'_>,
    cases: &[MonitorCase<'_>],
    done: &[AtomicBool],
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut spins = 0u64;
    let tolerate = |e: &ServiceError| {
        matches!(
            e,
            ServiceError::RequestOutstanding(_)
                | ServiceError::NotSuspended(_)
                | ServiceError::StaleRequest(_)
                | ServiceError::Session(_)
        )
    };
    while !done.iter().all(|d| d.load(Ordering::Relaxed)) {
        spins += 1;
        assert!(spins < 2_000_000, "monitor stress loop failed to converge");
        let i = rng.gen_range(0..cases.len() as u64) as usize;
        let case = &cases[i];
        let id = case.spec.id.as_str();
        match rng.gen_range(0..10u64) {
            0 => match manager.suspend(id) {
                Ok(_) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("suspend {id}: {e}"),
            },
            1 => match manager.resume(id) {
                Ok(_) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("resume {id}: {e}"),
            },
            2 => match manager.evict(id) {
                Ok(()) => {}
                Err(e) if tolerate(&e) => {}
                Err(e) => panic!("evict {id}: {e}"),
            },
            3 | 4 => {
                // Advance the delta schedule: only at a watching
                // boundary, only in order, only one pusher at a time.
                let mut guard = case.twin.lock().unwrap();
                let next = guard.1;
                if next < case.schedule.len() {
                    let view = manager.status(id).expect("status");
                    if view.monitor.as_ref().is_some_and(|m| m.watching) {
                        let batch = &case.schedule[next];
                        match manager.apply_deltas(id, batch) {
                            Ok(_) => {
                                guard.0.apply(&batch.removes, &batch.adds).unwrap();
                                guard.1 = next + 1;
                            }
                            Err(e) if tolerate(&e) => {}
                            Err(e) => panic!("apply_deltas {id}: {e}"),
                        }
                    }
                } else {
                    // Schedule exhausted: the case is done once the
                    // final carryover campaign certifies.
                    let view = manager.status(id).expect("status");
                    if view.monitor.as_ref().is_some_and(|m| m.watching) {
                        done[i].store(true, Ordering::Relaxed);
                    }
                }
            }
            _ => {
                let batch = rng.gen_range(1..=8u64);
                let (request, view) = match manager.next_request(id, batch) {
                    Ok(outcome) => outcome,
                    Err(e) if tolerate(&e) => continue,
                    Err(e) => panic!("next_request {id}: {e}"),
                };
                let Some(request) = request else {
                    // Watching. A monitor never *finishes*.
                    assert_eq!(view.state, SessionState::Running, "{id}");
                    continue;
                };
                // The twin is stable while labels are owed: deltas are
                // only pushed at watching boundaries, and a monitor
                // with an outstanding batch is never watching.
                let labels: Vec<bool> = {
                    let guard = case.twin.lock().unwrap();
                    request
                        .triples
                        .iter()
                        .map(|st| guard.0.is_correct(st.triple))
                        .collect()
                };
                match manager.submit(id, &labels, view.pending_seq) {
                    Ok(_) => {}
                    Err(e) if tolerate(&e) => {}
                    Err(e) => panic!("submit {id}: {e}"),
                }
            }
        }
    }
}

/// Single-threaded monitor reference: batch-1 campaigns, the same delta
/// schedule applied at each watching boundary.
fn monitor_replay(
    spec: &SessionSpec,
    schedule: &[DeltaBatch],
    registry: &DatasetRegistry,
) -> MonitorFingerprint {
    let manager = SessionManager::new(registry, temp_store(&format!("mon-replay-{}", spec.id)), 1);
    manager.create(spec).unwrap();
    let kg = registry.get(&spec.dataset).unwrap();
    let mut twin = DeltaKg::with_truth(kg, kg);
    let drive = |twin: &DeltaKg<'_>| loop {
        let (request, view) = manager.next_request(&spec.id, 1).unwrap();
        let Some(request) = request else { break };
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| twin.is_correct(st.triple))
            .collect();
        manager.submit(&spec.id, &labels, view.pending_seq).unwrap();
    };
    drive(&twin);
    for batch in schedule {
        manager.apply_deltas(&spec.id, batch).unwrap();
        twin.apply(&batch.removes, &batch.adds).unwrap();
        drive(&twin);
    }
    let fingerprint = monitor_fingerprint(&manager.status(&spec.id).unwrap());
    let _ = std::fs::remove_dir_all(manager.store().dir());
    fingerprint
}

/// Concurrent delta pushes racing polls, submits, suspend/evict chaos
/// **and** a zero-TTL janitor ticking as fast as it can: every final
/// monitor status — certificate bits, cumulative effort, epoch, drift
/// rows — must be bit-identical to the single-threaded batch-1 replay
/// of the same spec and delta schedule.
#[test]
fn monitor_churn_interleavings_preserve_every_trajectory() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("mon-chaos"), 4);
    let cases = monitor_cases(&registry);
    for case in &cases {
        manager.create(&case.spec).unwrap();
    }
    let done: Vec<AtomicBool> = (0..cases.len()).map(|_| AtomicBool::new(false)).collect();
    let janitor = Janitor::new(JanitorConfig {
        tick: std::time::Duration::from_millis(1),
        idle_ttl: std::time::Duration::ZERO,
    });
    let stopper = janitor.handle();

    crossbeam::scope(|scope| {
        let ticking = scope.spawn(|_| janitor.run(&manager));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let manager = &manager;
            let cases = &cases;
            let done = &done;
            handles.push(scope.spawn(move |_| {
                monitor_worker(manager, cases, done, 0xD417A + t as u64);
            }));
        }
        for handle in handles {
            handle.join().expect("monitor stress worker");
        }
        stopper.stop();
        ticking.join().expect("janitor thread");
    })
    .expect("monitor stress scope");

    for case in &cases {
        let view = manager.status(&case.spec.id).unwrap();
        let report = view.monitor.clone().expect("monitor report");
        assert!(
            report.watching,
            "{}: schedule drained, must be watching",
            case.spec.id
        );
        assert_eq!(
            monitor_fingerprint(&view),
            monitor_replay(&case.spec, &case.schedule, &registry),
            "{}: concurrent churn changed the monitor trajectory",
            case.spec.id
        );
    }
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

/// The chaos suite with a hostile janitor in the mix: zero idle TTL and
/// zero grace, ticking as fast as it can, so sessions are aged to disk
/// and evicted from memory *between* worker operations throughout the
/// run. Maintenance must be invisible — every final result stays
/// bit-identical to the single-threaded batch-1 replay.
#[test]
fn janitor_interleaving_preserves_every_trajectory() {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("janitor"), 4);
    let specs = specs();
    for spec in &specs {
        manager.create(spec).unwrap();
    }
    let done: Vec<AtomicBool> = (0..specs.len()).map(|_| AtomicBool::new(false)).collect();
    let janitor = Janitor::new(JanitorConfig {
        tick: std::time::Duration::from_millis(1),
        idle_ttl: std::time::Duration::ZERO,
    });
    let stopper = janitor.handle();

    crossbeam::scope(|scope| {
        let ticking = scope.spawn(|_| janitor.run(&manager));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let manager = &manager;
            let registry = &registry;
            let specs = &specs;
            let done = &done;
            handles.push(scope.spawn(move |_| {
                worker(manager, registry, specs, done, 0xBADCAFE + t as u64);
            }));
        }
        for handle in handles {
            handle.join().expect("stress worker");
        }
        stopper.stop();
        ticking.join().expect("janitor thread");
    })
    .expect("stress scope");

    for spec in &specs {
        let view = manager.status(&spec.id).unwrap();
        assert!(
            matches!(view.state, SessionState::Finished | SessionState::Evicted),
            "{}: {:?}",
            spec.id,
            view.state
        );
        let (reason, result) = final_result(&manager, &spec.id);
        let (ref_reason, ref_result) = replay("janitor", spec, &registry);
        assert_eq!(reason, ref_reason, "{}", spec.id);
        assert_eq!(
            result, ref_result,
            "{}: janitor interleavings changed the final posterior",
            spec.id
        );
    }
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

/// `status` of a session only on disk reads the store after dropping
/// the shard lock, so `suspend`, `resume` and `evict` of the same id
/// run against it on other threads. Every `Evicted` view must still
/// pair the status derived from one persist's snapshot with that
/// persist's `snapshot_bytes`: the set of pairs the persisting thread's
/// own reads saw after each persist.
#[test]
fn status_of_a_dormant_session_reads_one_persist() {
    const ROUNDS: usize = 120;
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let manager = SessionManager::new(&registry, temp_store("status-persist"), 1);
    let spec = SessionSpec {
        epsilon: 0.01,
        ..specs()[0].clone()
    };
    let id = spec.id.as_str();
    manager.create(&spec).unwrap();
    let persisted = Mutex::new(Vec::new());
    let observed = Mutex::new(Vec::new());
    let finished = AtomicBool::new(false);
    let pair = |view: &SessionView| (format!("{:?}", view.status), view.snapshot_bytes);

    crossbeam::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|_| {
                while !finished.load(Ordering::Relaxed) {
                    let view = manager.status(id).expect("status");
                    if view.state == SessionState::Evicted {
                        observed.lock().unwrap().push(pair(&view));
                    }
                }
            });
        }
        for round in 0..ROUNDS {
            manager.resume(id).unwrap();
            let (request, view) = manager.next_request(id, 4).unwrap();
            let labels: Vec<bool> = request
                .expect("campaign still running")
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple))
                .collect();
            manager.submit(id, &labels, view.pending_seq).unwrap();
            // Persist by suspend (then a write-free evict), or by an
            // evict straight from memory.
            if round % 2 == 0 {
                manager.suspend(id).unwrap();
            }
            manager.evict(id).unwrap();
            let view = manager.status(id).unwrap();
            assert_eq!(view.state, SessionState::Evicted);
            persisted.lock().unwrap().push(pair(&view));
        }
        finished.store(true, Ordering::Relaxed);
    })
    .expect("status scope");

    let persisted = persisted.into_inner().unwrap();
    let observed = observed.into_inner().unwrap();
    assert_eq!(persisted.len(), ROUNDS);
    assert!(!observed.is_empty(), "no status read met a dormant session");
    for seen in &observed {
        assert!(
            persisted.contains(seen),
            "status paired one persist's status with another persist's snapshot: {seen:?}"
        );
    }
    let _ = std::fs::remove_dir_all(manager.store().dir());
}
