//! Full-stack smoke: a real [`Server`] on an ephemeral port, driven
//! over actual TCP by the typed [`Client`] — one complete SRS
//! evaluation to convergence, a mid-flight suspend → evict → resume
//! cycle with status parity and snapshot byte-identity, and the error
//! surface of the API.

use kgae_client::{Client, ClientError};
use kgae_core::{DeltaBatch, StopReason};
use kgae_graph::{GroundTruth, KnowledgeGraph};
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, DrainReport, SessionState};
use kgae_service::{Server, SessionManager, SnapshotStore};
use std::net::SocketAddr;

fn temp_store(tag: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("kgae-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).unwrap()
}

/// Boots a server over the standard registry, runs `f` against its
/// address, then shuts the server down cleanly.
fn with_server(tag: &str, f: impl FnOnce(SocketAddr, &DatasetRegistry)) {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store(tag), 8);
    let server = Server::bind("127.0.0.1:0", 4).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run(&manager));
        f(addr, &registry);
        handle.shutdown();
        server_thread.join().unwrap();
    });
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

fn srs_spec(id: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        id: id.into(),
        dataset: "nell".into(),
        design: "srs".parse().unwrap(),
        method: "ahpd".parse().unwrap(),
        seed,
        alpha: 0.05,
        epsilon: 0.05,
        max_observations: None,
        stratify: None,
        tenant: None,
    }
}

#[test]
fn full_srs_evaluation_with_midflight_suspend_resume() {
    with_server("full", |addr, registry| {
        let kg = registry.get("nell").unwrap();
        let mut client = Client::connect(addr).unwrap();
        client.health().unwrap();
        // The probe endpoint reports build info deployment docs can
        // assert against (same string as `kgae-serve --version`).
        let health = client.health_info().unwrap();
        assert!(health.ok);
        assert_eq!(health.name, "kgae-serve");
        assert_eq!(health.version, env!("CARGO_PKG_VERSION"));

        // The server hosts the four standard twins plus nell-pred.
        let datasets = client.datasets().unwrap();
        assert_eq!(datasets.len(), 5);
        let nell = datasets.iter().find(|d| d.name == "nell").unwrap();
        assert_eq!(nell.triples, kg.num_triples());

        let info = client.create(&srs_spec("smoke", 20_250_731)).unwrap();
        assert_eq!(info.state, SessionState::Running);
        assert_eq!(info.status.observations, 0);

        let mut batches = 0u64;
        loop {
            let request = client.next_request("smoke", 16).unwrap();
            if request.done {
                break;
            }
            if batches == 1 {
                // Re-polling with labels owed must idempotently
                // re-serve the identical batch (an annotator that lost
                // the response recovers instead of wedging) — even at a
                // different requested batch size.
                let again = client.next_request("smoke", 3).unwrap();
                assert_eq!(again, request, "re-poll served a different batch");
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            client.submit("smoke", &labels).unwrap();
            batches += 1;

            if batches == 2 {
                // Mid-flight: suspend, capture status + snapshot, evict
                // the in-memory state, resume, and demand exact parity.
                let suspended = client.suspend("smoke").unwrap();
                assert_eq!(suspended.state, SessionState::Suspended);
                let before_status = suspended.status.clone();
                let snap_before = client.snapshot("smoke").unwrap();
                assert!(!snap_before.is_empty());

                client.evict("smoke").unwrap();
                assert_eq!(client.status("smoke").unwrap().state, SessionState::Evicted);

                let resumed = client.resume("smoke").unwrap();
                assert_eq!(resumed.state, SessionState::Running);
                assert_eq!(
                    resumed.status, before_status,
                    "suspend/evict/resume changed the reported status"
                );

                // Re-suspend: the disk round trip reproduces the exact
                // snapshot bytes.
                client.suspend("smoke").unwrap();
                let snap_after = client.snapshot("smoke").unwrap();
                assert_eq!(snap_before, snap_after, "snapshot bytes diverged");
                client.resume("smoke").unwrap();
            }
        }

        let done = client.status("smoke").unwrap();
        assert_eq!(done.state, SessionState::Finished);
        assert_eq!(done.status.stopped, Some(StopReason::MoeSatisfied));
        let estimate = done.status.estimate.unwrap();
        assert!((estimate - 0.91).abs() < 0.15, "estimate {estimate}");
        let interval = done.status.interval.unwrap();
        assert!(interval.moe() <= 0.05 + 1e-12);

        // The interrupted run matches an uninterrupted run of the same
        // seed bit for bit — the server's suspend cycle was free.
        let mut straight = Client::connect(addr).unwrap();
        straight.create(&srs_spec("straight", 20_250_731)).unwrap();
        loop {
            let request = straight.next_request("straight", 16).unwrap();
            if request.done {
                break;
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            straight.submit("straight", &labels).unwrap();
        }
        let reference = straight.status("straight").unwrap();
        assert_eq!(reference.status, done.status);

        // Both sessions are listed.
        let sessions = client.sessions().unwrap();
        assert_eq!(sessions.len(), 2);
        client.delete("straight").unwrap();
        assert_eq!(client.sessions().unwrap().len(), 1);
    });
}

#[test]
fn stratified_campaign_over_http_with_suspend_resume_parity() {
    with_server("stratified", |addr, registry| {
        let kg = registry.get("nell-pred").unwrap();
        let strat = registry.stratification("nell-pred").unwrap();
        let mut client = Client::connect(addr).unwrap();

        let spec = SessionSpec {
            id: "pred".into(),
            dataset: "nell-pred".into(),
            design: "stratified".parse().unwrap(),
            method: "ahpd".parse().unwrap(),
            seed: 31,
            alpha: 0.05,
            epsilon: 0.04,
            max_observations: None,
            stratify: None, // defaults to the predicate partition
            tenant: None,
        };
        let info = client.create(&spec).unwrap();
        assert_eq!(info.design, "stratified:width-greedy");
        assert_eq!(info.strata.as_ref().unwrap().len(), 8);

        let mut batches = 0u64;
        loop {
            let request = client.next_request("pred", 8).unwrap();
            if request.done {
                break;
            }
            if batches == 2 || batches == 5 {
                // Mid-batch re-poll of a stratified session: the
                // identical batch comes back — same triples, same
                // fencing seq, same stratum address.
                let again = client.next_request("pred", 8).unwrap();
                assert_eq!(again, request, "stratified re-poll diverged");
                let view = client.status("pred").unwrap();
                assert_eq!(view.pending_labels, request.triples.len() as u64);
                assert_eq!(view.pending_seq, request.seq);
            }
            // Every stratified batch is addressed to a stratum, and the
            // address is consistent with the partition.
            let stratum = request.stratum.as_ref().expect("stratified batch");
            assert_eq!(strat.name(stratum.index), stratum.name);
            for t in &request.triples {
                assert_eq!(
                    strat.stratum_of(kgae_graph::TripleId(t.triple)),
                    stratum.index,
                    "triple outside its stratum"
                );
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            client.submit("pred", &labels).unwrap();
            batches += 1;
            if batches == 4 {
                let suspended = client.suspend("pred").unwrap();
                assert_eq!(suspended.state, SessionState::Suspended);
                assert_eq!(suspended.strata.as_ref().unwrap().len(), 8);
                let before = client.snapshot("pred").unwrap();
                client.evict("pred").unwrap();
                client.resume("pred").unwrap();
                client.suspend("pred").unwrap();
                let after = client.snapshot("pred").unwrap();
                assert_eq!(before, after, "stratified snapshot bytes diverged");
                client.resume("pred").unwrap();
            }
        }

        let done = client.status("pred").unwrap();
        assert_eq!(done.state, SessionState::Finished);
        assert_eq!(done.status.stopped, Some(StopReason::MoeSatisfied));
        assert!(done.status.interval.unwrap().moe() <= 0.04 + 1e-12);
        let strata = done.strata.as_ref().unwrap();
        assert_eq!(strata.len(), 8);
        // The per-predicate rows expose the heterogeneity a flat audit
        // hides: the head predicate is far cleaner than the tail one.
        let head = strata[0].status.estimate.unwrap();
        let tail = strata[7].status.estimate.unwrap();
        assert!(
            head > tail,
            "head predicate {head:.3} should beat tail {tail:.3}"
        );
        client.delete("pred").unwrap();
    });
}

#[test]
fn comparative_campaign_over_http_with_suspend_resume_parity() {
    with_server("comparative", |addr, registry| {
        let kg = registry.get("nell").unwrap();
        let mut client = Client::connect(addr).unwrap();

        let spec = |id: &str, design: &str| SessionSpec {
            id: id.into(),
            dataset: "nell".into(),
            design: design.parse().unwrap(),
            method: "ahpd".parse().unwrap(),
            seed: 20_260_731,
            alpha: 0.05,
            epsilon: 0.05,
            max_observations: None,
            stratify: None,
            tenant: None,
        };
        let info = client.create(&spec("race", "compare:ahpd")).unwrap();
        assert_eq!(info.design, "compare:ahpd");
        assert_eq!(info.method, "ahpd");
        let rows = info.methods.as_ref().expect("comparative rows");
        assert_eq!(rows.len(), 4);
        assert!(rows[3].primary && rows[..3].iter().all(|r| !r.primary));

        // A mismatched method field is rejected up front.
        let mut bad = spec("bad", "compare:ahpd");
        bad.method = "wilson".parse().unwrap();
        match client.create(&bad) {
            Err(ClientError::Api { status: 400, .. }) => {}
            other => panic!("expected 400, got {other:?}"),
        }

        let mut units = 0u64;
        loop {
            let request = client.next_request("race", 16).unwrap();
            if request.done {
                break;
            }
            // Comparative streams are unit-granular regardless of the
            // requested batch size.
            assert_eq!(request.units, 1);
            assert!(request.stratum.is_none());
            if units == 3 {
                // Mid-batch re-poll idempotence, comparative engine.
                let again = client.next_request("race", 16).unwrap();
                assert_eq!(again, request, "comparative re-poll diverged");
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            client.submit("race", &labels).unwrap();
            units += 1;

            if units == 40 {
                // Suspend → snapshot → evict → resume: the disk round
                // trip reproduces the exact comparative snapshot bytes
                // and the cached per-method rows survive.
                let suspended = client.suspend("race").unwrap();
                assert_eq!(suspended.state, SessionState::Suspended);
                assert_eq!(suspended.methods.as_ref().unwrap().len(), 4);
                let before = client.snapshot("race").unwrap();
                client.evict("race").unwrap();
                let evicted = client.status("race").unwrap();
                assert_eq!(evicted.state, SessionState::Evicted);
                assert_eq!(evicted.methods.as_ref().unwrap().len(), 4);
                client.resume("race").unwrap();
                client.suspend("race").unwrap();
                let after = client.snapshot("race").unwrap();
                assert_eq!(before, after, "comparative snapshot bytes diverged");
                client.resume("race").unwrap();
            }
        }

        let done = client.status("race").unwrap();
        assert_eq!(done.state, SessionState::Finished);
        assert_eq!(done.status.stopped, Some(StopReason::MoeSatisfied));
        let rows = done.methods.as_ref().unwrap();
        assert_eq!(rows.len(), 4);
        let primary_row = &rows[3];
        assert!(primary_row.primary && primary_row.converged);
        assert_eq!(primary_row.stopped_at, Some(done.status.observations));

        // The primary is bit-identical to a plain aHPD/SRS session of
        // the same seed, end to end over HTTP (floats survive the JSON
        // round trip exactly — shortest-round-trip encoding).
        client.create(&spec("solo", "srs")).unwrap();
        loop {
            let request = client.next_request("solo", 16).unwrap();
            if request.done {
                break;
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            client.submit("solo", &labels).unwrap();
        }
        let solo = client.status("solo").unwrap();
        assert_eq!(
            solo.status, done.status,
            "comparative primary diverged from the standalone session"
        );
        client.delete("race").unwrap();
        client.delete("solo").unwrap();
    });
}

/// The monitor lifecycle end to end over real TCP: create a `monitor`
/// design, drive the initial campaign to its certificate, push churn
/// batches — small ones are absorbed at zero annotation cost, a bulk
/// load re-opens annotation — verify the 409 `stale_request` fencing
/// when a delta withdraws an outstanding re-opened batch, and
/// suspend → evict → resume mid-monitoring with byte-identical
/// snapshots. Oracle labels come from a `DeltaKg::with_truth` twin fed
/// the same batches, so view ids resolve exactly as on the server.
#[test]
fn monitor_session_over_http_with_deltas_fencing_and_suspend_resume() {
    with_server("monitor", |addr, registry| {
        let kg = registry.get("nell").unwrap();
        let mut truth = kgae_graph::DeltaKg::with_truth(kg, kg);
        let mut client = Client::connect(addr).unwrap();
        let spec = SessionSpec {
            id: "watch".into(),
            dataset: "nell".into(),
            design: "monitor:50".parse().unwrap(),
            method: "ahpd".parse().unwrap(),
            seed: 20_250_809,
            alpha: 0.05,
            epsilon: 0.05,
            max_observations: None,
            stratify: None,
            tenant: None,
        };
        let info = client.create(&spec).unwrap();
        assert_eq!(info.state, SessionState::Running);
        assert_eq!(info.design, "monitor:50");
        let report = info.monitor.as_ref().expect("monitor views carry a report");
        assert_eq!(report.epoch, 0);
        assert!(!report.watching, "a fresh monitor is annotating");

        // Only monitor designs accept deltas.
        client.create(&srs_spec("flat", 9)).unwrap();
        match client.push_deltas("flat", &DeltaBatch::default()) {
            Err(ClientError::Api { status: 400, .. }) => {}
            other => panic!("expected 400, got {other:?}"),
        }
        client.delete("flat").unwrap();

        let drive = |client: &mut Client, truth: &kgae_graph::DeltaKg<'_>| loop {
            let request = client.next_request("watch", 16).unwrap();
            if request.done {
                break;
            }
            let labels: Vec<bool> = request
                .triples
                .iter()
                .map(|t| truth.is_correct(kgae_graph::TripleId(t.triple)))
                .collect();
            client.submit("watch", &labels).unwrap();
        };
        drive(&mut client, &truth);

        // A monitor out of work is *watching*, not finished: the slot
        // stays live with a certified interval and no stop reason.
        let watching = client.status("watch").unwrap();
        assert_eq!(watching.state, SessionState::Running);
        assert_eq!(watching.status.stopped, None);
        assert!(watching.status.interval.unwrap().moe() <= 0.05 + 1e-12);
        let report = watching.monitor.as_ref().unwrap();
        assert!(report.watching);
        assert_eq!(report.epoch, 0);

        // Small churn is absorbed at zero annotation cost.
        let small = DeltaBatch {
            predicate: Some("smallFix".into()),
            removes: vec![0, 1, 2],
            adds: vec![],
        };
        let (outcome, view) = client.push_deltas("watch", &small).unwrap();
        truth.apply(&small.removes, &small.adds).unwrap();
        assert!(!outcome.reopened && outcome.watching);
        assert_eq!(outcome.epoch, 0);
        let row = &view.monitor.as_ref().unwrap().drift[0];
        assert_eq!(row.predicate, "smallFix");
        assert_eq!(row.removes, 3);
        assert!(!row.alarm);
        assert!(client.next_request("watch", 8).unwrap().done);

        // A bulk load degrades the interval and re-opens annotation.
        let bulk = DeltaBatch {
            predicate: Some("bulkLoad".into()),
            removes: (0..800).collect(),
            adds: vec![true; 2500],
        };
        let (outcome, view) = client.push_deltas("watch", &bulk).unwrap();
        truth.apply(&bulk.removes, &bulk.adds).unwrap();
        assert!(outcome.reopened && !outcome.watching);
        assert_eq!(outcome.epoch, 1);
        assert!(outcome.retired_labels > 0, "800 removes must retire labels");
        assert!(
            view.monitor.as_ref().unwrap().drift[1].alarm,
            "3300 churned triples over ~1860 must alarm"
        );

        // Fencing on the re-opened campaign: a delta pushed while a
        // batch is outstanding withdraws it server-side, so submitting
        // those labels is refused 409 stale_request; a re-poll serves a
        // fresh batch.
        let withdrawn = client.next_request("watch", 8).unwrap();
        assert!(!withdrawn.done);
        let labels: Vec<bool> = withdrawn
            .triples
            .iter()
            .map(|t| truth.is_correct(kgae_graph::TripleId(t.triple)))
            .collect();
        let nudge = DeltaBatch {
            predicate: None,
            removes: vec![5],
            adds: vec![],
        };
        let (outcome, _) = client.push_deltas("watch", &nudge).unwrap();
        truth.apply(&nudge.removes, &nudge.adds).unwrap();
        assert!(
            !outcome.watching,
            "mid-campaign churn keeps annotation open"
        );
        match client.submit("watch", &labels) {
            Err(ClientError::Api {
                status: 409, code, ..
            }) => assert_eq!(code.as_deref(), Some("stale_request")),
            other => panic!("expected 409 stale_request, got {other:?}"),
        }
        let fresh = client.next_request("watch", 8).unwrap();
        assert!(!fresh.done);
        let labels: Vec<bool> = fresh
            .triples
            .iter()
            .map(|t| truth.is_correct(kgae_graph::TripleId(t.triple)))
            .collect();
        client.submit("watch", &labels).unwrap();

        // Mid-monitoring suspend → evict → resume: the dormant and
        // evicted views keep the monitor report, and the disk round
        // trip reproduces the exact snapshot bytes.
        let suspended = client.suspend("watch").unwrap();
        assert_eq!(suspended.state, SessionState::Suspended);
        assert!(suspended.monitor.as_ref().unwrap().campaigns_reopened >= 1);
        let before = client.snapshot("watch").unwrap();
        client.evict("watch").unwrap();
        let evicted = client.status("watch").unwrap();
        assert_eq!(evicted.state, SessionState::Evicted);
        assert!(evicted.monitor.is_some(), "evicted view lost the report");
        client.resume("watch").unwrap();
        client.suspend("watch").unwrap();
        let after = client.snapshot("watch").unwrap();
        assert_eq!(before, after, "monitor snapshot bytes diverged");
        client.resume("watch").unwrap();

        // The carryover campaign converges to a fresh certificate —
        // and the monitor is again watching, still not finished.
        drive(&mut client, &truth);
        let done = client.status("watch").unwrap();
        assert_eq!(done.state, SessionState::Running);
        let report = done.monitor.as_ref().unwrap();
        assert!(report.watching);
        assert!(report.campaigns_reopened >= 2);
        assert!(done.status.interval.unwrap().moe() <= 0.05 + 1e-12);
        client.delete("watch").unwrap();
    });
}

#[test]
fn api_errors_map_to_http_statuses() {
    with_server("errors", |addr, _| {
        let mut client = Client::connect(addr).unwrap();

        // Unknown session → 404.
        match client.status("ghost") {
            Err(ClientError::Api { status: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
        // Bad spec → 400.
        let mut bad = srs_spec("bad name!", 1);
        bad.id = "bad name!".into();
        match client.create(&bad) {
            Err(ClientError::Api { status: 400, .. }) => {}
            other => panic!("expected 400, got {other:?}"),
        }
        // Duplicate create → 409.
        client.create(&srs_spec("dup", 1)).unwrap();
        match client.create(&srs_spec("dup", 2)) {
            Err(ClientError::Api { status: 409, .. }) => {}
            other => panic!("expected 409, got {other:?}"),
        }
        // Suspend with an outstanding request → 409.
        let request = client.next_request("dup", 4).unwrap();
        assert!(!request.done);
        match client.suspend("dup") {
            Err(ClientError::Api { status: 409, .. }) => {}
            other => panic!("expected 409, got {other:?}"),
        }
        // Wrong label count → 409.
        match client.submit("dup", &[true]) {
            Err(ClientError::Api { status: 409, .. }) => {}
            other => panic!("expected 409, got {other:?}"),
        }
        // Snapshot of a live session → 409.
        match client.snapshot("dup") {
            Err(ClientError::Api { status: 409, .. }) => {}
            other => panic!("expected 409, got {other:?}"),
        }
        // Unknown route → 404.
        match client.status("no/such") {
            Err(ClientError::Api { status: 404, .. }) => {}
            other => panic!("expected 404, got {other:?}"),
        }
    });
}

/// Runs one server generation over the store in `dir`, listening on
/// `port` (0 picks an ephemeral one): `f` drives it, then a graceful
/// shutdown drains every live session to the store — also when `f`
/// panics, so a failed assertion fails the test instead of hanging it.
/// Returns `f`'s output, the bound address and the drain report.
fn generation<T>(
    registry: &DatasetRegistry,
    dir: &std::path::Path,
    port: u16,
    f: impl FnOnce(SocketAddr) -> T,
) -> (T, SocketAddr, DrainReport) {
    let manager = SessionManager::new(registry, SnapshotStore::open(dir).unwrap(), 8);
    let server = Server::bind(&format!("127.0.0.1:{port}"), 4).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run(&manager));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
        handle.shutdown();
        let report = server_thread.join().unwrap();
        let out = out.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (out, addr, report)
    })
}

/// Graceful shutdown is not an outage: `ServerHandle::shutdown` drains
/// every live session to the store (withdrawing outstanding batches
/// exactly), and a second server generation over the same directory
/// replays the in-flight batch bit-identically and finishes the
/// campaign — all observed through the client, as an annotator would.
#[test]
fn shutdown_drains_and_a_restarted_server_resumes_midflight_sessions() {
    let dir = std::env::temp_dir().join(format!("kgae-smoke-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let label = |request: &kgae_service::api::WireRequest| -> Vec<bool> {
        request
            .triples
            .iter()
            .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
            .collect()
    };

    // Generation 1: two batches land, a third is left outstanding when
    // the shutdown arrives.
    let (withdrawn, _, report) = generation(&registry, &dir, 0, |addr| {
        let mut client = Client::connect(addr).unwrap();
        client.create(&srs_spec("phoenix", 77)).unwrap();
        for _ in 0..2 {
            let request = client.next_request("phoenix", 8).unwrap();
            let labels = label(&request);
            client.submit("phoenix", &labels).unwrap();
        }
        client.next_request("phoenix", 8).unwrap()
    });
    assert_eq!(report.suspended, vec!["phoenix".to_string()]);
    assert_eq!(report.cancelled, vec!["phoenix".to_string()]);
    assert!(report.is_clean(), "drain failed: {:?}", report.failed);

    // Generation 2 over the same store: the withdrawn batch replays
    // bit-identically, and the campaign runs to completion.
    generation(&registry, &dir, 0, |addr| {
        let mut client = Client::connect(addr)
            .unwrap()
            .with_retry(kgae_client::RetryPolicy::default());
        let replayed = client.next_request("phoenix", 8).unwrap();
        assert_eq!(
            replayed.triples, withdrawn.triples,
            "restart perturbed the in-flight batch"
        );
        let labels = label(&replayed);
        client.submit("phoenix", &labels).unwrap();
        loop {
            let request = client.next_request("phoenix", 8).unwrap();
            if request.done {
                break;
            }
            let labels = label(&request);
            client.submit("phoenix", &labels).unwrap();
        }
        let done = client.status("phoenix").unwrap();
        assert_eq!(done.state, SessionState::Finished);
        assert_eq!(done.status.stopped, Some(StopReason::MoeSatisfied));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The submit fence survives rehydration over HTTP. Labels for a batch
/// that was already answered, replayed under that batch's seq after the
/// session was evicted and re-polled, are refused 409 `stale_request`
/// instead of landing on the new batch — and so are they after a
/// restarted server over the same store re-polls it.
#[test]
fn stale_labels_are_refused_after_evict_and_after_restart() {
    let dir = std::env::temp_dir().join(format!("kgae-smoke-fence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let label = |request: &kgae_service::api::WireRequest| -> Vec<bool> {
        request
            .triples
            .iter()
            .map(|t| kg.is_correct(kgae_graph::TripleId(t.triple)))
            .collect()
    };
    let assert_stale = |client: &mut Client, labels: &[bool]| match client.submit("fence", labels) {
        Err(ClientError::Api {
            status: 409, code, ..
        }) => assert_eq!(code.as_deref(), Some("stale_request")),
        other => panic!("expected 409 stale_request, got {other:?}"),
    };

    // Generation 1: the replayer polls and answers the first batch, so
    // it keeps that batch's seq; the session is suspended and evicted,
    // and a second client polls the next batch from the rehydrated
    // session.
    let ((mut replayer, first_labels), addr, _) = generation(&registry, &dir, 0, |addr| {
        let mut replayer = Client::connect(addr).unwrap();
        replayer.create(&srs_spec("fence", 31)).unwrap();
        let first = replayer.next_request("fence", 8).unwrap();
        let first_labels = label(&first);
        replayer.submit("fence", &first_labels).unwrap();
        replayer.suspend("fence").unwrap();
        replayer.evict("fence").unwrap();
        let mut poller = Client::connect(addr).unwrap();
        let second = poller.next_request("fence", 8).unwrap();
        assert!(!second.done);
        assert_stale(&mut replayer, &first_labels);
        (replayer, first_labels)
    });

    // Generation 2 on the same port and store: the drained session
    // rehydrates and a new poll is served; the old seq is still stale.
    generation(&registry, &dir, addr.port(), |addr| {
        let mut poller = Client::connect(addr).unwrap();
        let third = poller.next_request("fence", 8).unwrap();
        assert!(!third.done);
        // Re-open the replayer's keep-alive connection, which the
        // first generation's drain closed.
        replayer.health().unwrap();
        assert_stale(&mut replayer, &first_labels);
        // The fresh batch still takes its own labels.
        poller.submit("fence", &label(&third)).unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}
