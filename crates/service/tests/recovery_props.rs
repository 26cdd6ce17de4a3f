//! Property-style torn-write recovery: a genuine on-disk session
//! record is mangled hundreds of ways — every interesting truncation
//! prefix plus seeded random byte flips, in both its meta part and its
//! snapshot part — and the invariant is checked after each: reopening
//! the store never panics, and every operation on the damaged session
//! answers a clean client-visible error (404/410), never a 500 and
//! never a wedge. Quarantine must trigger for at least a healthy share
//! of the corruptions, proving the sweep actually fires.
//!
//! No proptest dependency: the corruption schedule is driven by the
//! vendored seeded RNG, so a failure reproduces exactly.

use kgae_core::IntervalMethod;
use kgae_graph::GroundTruth;
use kgae_service::api::SessionSpec;
use kgae_service::manager::{DatasetRegistry, ServiceError};
use kgae_service::{SessionManager, SnapshotStore};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-recovery-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(id: &str, seed: u64) -> SessionSpec {
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
        tenant: None,
    }
}

#[test]
fn every_truncation_and_byte_flip_recovers_without_panic_or_500() {
    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("mangle");

    // One genuine suspended record to mangle, kept pristine in memory.
    {
        let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
        manager.create(&spec("victim", 5)).unwrap();
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
    }
    // The record is a u32 meta length, the meta, then the snapshot.
    let record_path = dir.join("victim.rec");
    let pristine = std::fs::read(&record_path).unwrap();
    let snapshot_len = SnapshotStore::open(&dir)
        .unwrap()
        .load("victim")
        .unwrap()
        .and_then(|record| record.snapshot)
        .expect("suspended record")
        .len();
    assert!(snapshot_len > 64, "snapshot too small to mangle");
    let snapshot_at = pristine.len() - snapshot_len;

    let restore = || {
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        std::fs::write(&record_path, &pristine).unwrap();
    };

    // The corruption schedule: every header-region truncation of the
    // snapshot part, a seeded spread of deeper truncations, a spread of
    // cuts through the length prefix and meta part, and seeded byte
    // flips (single bytes and 4-byte bursts) at arbitrary offsets of
    // both parts.
    let mut rng = SmallRng::seed_from_u64(20_250_808);
    let mut cases: Vec<(&'static str, usize, Vec<u8>)> = Vec::new();
    for len in 0..=64usize {
        cases.push(("snap-truncate", len, pristine[..snapshot_at + len].to_vec()));
    }
    for _ in 0..24 {
        let len = rng.gen_range(0..snapshot_len);
        cases.push(("snap-truncate", len, pristine[..snapshot_at + len].to_vec()));
    }
    for len in (0..snapshot_at).step_by(1.max(snapshot_at / 40)) {
        cases.push(("meta-truncate", len, pristine[..len].to_vec()));
    }
    for _ in 0..64 {
        let mut bytes = pristine.clone();
        let pos = rng.gen_range(snapshot_at..bytes.len());
        let burst = if rng.gen_bool(0.5) { 1 } else { 4 };
        for b in bytes.iter_mut().skip(pos).take(burst) {
            *b ^= rng.gen_range(1..=255u8);
        }
        cases.push(("snap-flip", pos, bytes));
    }
    for _ in 0..64 {
        let mut bytes = pristine.clone();
        let pos = rng.gen_range(0..snapshot_at);
        bytes[pos] ^= rng.gen_range(1..=255u8);
        cases.push(("meta-flip", pos, bytes));
    }

    let mut quarantined = 0usize;
    let mut survived = 0usize;
    for (kind, pos, bytes) in &cases {
        restore();
        std::fs::write(&record_path, bytes).unwrap();

        // Reopening runs the recovery sweep: it must never panic and
        // never refuse to open the store.
        let store = SnapshotStore::open(&dir)
            .unwrap_or_else(|e| panic!("{kind}@{pos}: store refused to open: {e}"));
        let manager = SessionManager::new(&registry, store, 2);
        let mut ok = true;
        for result in [
            manager.status("victim").map(|_| ()),
            manager.resume("victim").map(|_| ()),
            manager.next_request("victim", 4).map(|_| ()),
        ] {
            match result {
                Ok(()) => {}
                Err(e) => {
                    ok = false;
                    let status = e.http_status();
                    assert!(
                        status == 404 || status == 410,
                        "{kind}@{pos}: corruption surfaced as {status} ({e}), \
                         want a clean 404/410"
                    );
                    assert!(
                        matches!(
                            e,
                            ServiceError::Quarantined(_) | ServiceError::UnknownSession(_)
                        ),
                        "{kind}@{pos}: unexpected error shape: {e}"
                    );
                }
            }
        }
        if ok {
            // The damage dodged every validator (e.g. a flip inside an
            // unused meta field): the session must then behave like an
            // intact one, including serving labels.
            survived += 1;
        } else {
            quarantined += 1;
            // Deterministically damaged from now on: repeated access
            // answers the same clean error instead of retrying disk.
            assert_eq!(
                manager
                    .status("victim")
                    .map(|_| ())
                    .unwrap_err()
                    .http_status(),
                manager
                    .status("victim")
                    .map(|_| ())
                    .unwrap_err()
                    .http_status(),
            );
        }
    }
    assert!(
        quarantined >= cases.len() / 2,
        "only {quarantined}/{} corruptions were caught — the validators are asleep",
        cases.len()
    );
    // Not every flip must be fatal, but the schedule should include
    // both fates; seeing zero survivals usually means the test stopped
    // exercising the happy path.
    assert!(
        quarantined + survived == cases.len(),
        "case accounting is off"
    );

    restore();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire-level face of the same property: a deep snapshot
/// corruption surfaces over HTTP as 410 Gone on every route that
/// touches the session — never a 500, and `GET` keeps answering
/// cleanly after the quarantine.
#[test]
fn corrupt_snapshot_answers_410_over_http() {
    use kgae_service::http;
    use kgae_service::json::{self, Json};
    use std::io::BufReader;
    use std::net::TcpStream;

    let registry = DatasetRegistry::standard();
    let kg = registry.get("nell").unwrap();
    let dir = temp_dir("http410");
    let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 2);
    manager.create(&spec("victim", 9)).unwrap();
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

    // Flip snapshot payload bytes past its header: only deep
    // validation sees it.
    let record_path = dir.join("victim.rec");
    let snapshot_len = manager.snapshot_bytes("victim").unwrap().len();
    let mut bytes = std::fs::read(&record_path).unwrap();
    let mid = bytes.len() - snapshot_len / 2;
    for b in &mut bytes[mid..mid + 4] {
        *b ^= 0x5A;
    }
    std::fs::write(&record_path, &bytes).unwrap();

    let server = kgae_service::Server::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::scope(|scope| {
        let server_thread = scope.spawn(|| server.run(&manager));
        let get = |method: &str, path: &str| -> (u16, Json) {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream);
            http::write_request(reader.get_mut(), method, path, "").unwrap();
            let response = http::read_response(&mut reader).unwrap();
            let text = std::str::from_utf8(&response.body).unwrap().to_string();
            (response.status, json::parse(&text).unwrap())
        };
        let (status, doc) = get("POST", "/v1/sessions/victim/resume");
        assert_eq!(status, 410, "resume: {}", doc.encode());
        assert_eq!(
            doc.get("code").and_then(Json::as_str),
            Some("quarantined"),
            "error body must carry the machine-readable code"
        );
        let (status, doc) = get("GET", "/v1/sessions/victim");
        assert_eq!(status, 410, "status after quarantine: {}", doc.encode());
        assert!(
            doc.get("error").and_then(Json::as_str).is_some(),
            "410 body still has the human-readable error"
        );
        handle.shutdown();
        server_thread.join().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// One mid-campaign record of every `KGAESNAP` record tag, in tag order
/// 0–6: SRS, TWCS(3), WCS and SCS sessions, a stratified campaign, a
/// comparative campaign (SRS, aHPD primary) and a monitor, all on the
/// NELL twin, snapshotted at the first batch-4 poll boundary at ≥ 40
/// observations.
fn every_tag_record() -> Vec<Vec<u8>> {
    use kgae_core::engine::EngineSpec;
    use kgae_core::{EvalConfig, PreparedDesign, SamplingDesign, StratifiedConfig};
    use kgae_graph::stratify::Stratification;
    use kgae_sampling::ComparePrimary;

    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let strat_cfg = StratifiedConfig::default();
    let stratification = Stratification::by_hash(&kg, 4, 1);
    let prepared: Vec<PreparedDesign> = [
        SamplingDesign::Srs,
        SamplingDesign::Twcs { m: 3 },
        SamplingDesign::Wcs,
        SamplingDesign::Scs,
    ]
    .into_iter()
    .map(|design| PreparedDesign::new(&kg, design))
    .collect();
    let mut specs: Vec<EngineSpec<'_, '_>> = prepared
        .iter()
        .map(|prepared| EngineSpec::Plain {
            kg: &kg,
            prepared,
            method: &method,
            config: &cfg,
            seed: 7,
        })
        .collect();
    specs.push(EngineSpec::Stratified {
        kg: &kg,
        stratification: &stratification,
        method: &method,
        config: &strat_cfg,
        seed: 7,
    });
    specs.push(EngineSpec::Comparative {
        kg: &kg,
        prepared: &prepared[0],
        primary: ComparePrimary::AHpd,
        config: &cfg,
        seed: 7,
    });
    specs.push(EngineSpec::Monitor {
        kg: &kg,
        method: &method,
        config: &cfg,
        carry_weight: 50.0,
        seed: 7,
    });
    specs
        .iter()
        .map(|spec| {
            let mut engine = spec.build();
            while engine.headline().observations < 40 {
                let polled = engine.next_request(4).unwrap().expect("engine has work");
                let labels: Vec<bool> = polled
                    .request
                    .triples
                    .iter()
                    .map(|st| kg.is_correct(st.triple))
                    .collect();
                engine.submit(&labels).unwrap();
            }
            engine.snapshot().unwrap()
        })
        .collect()
}

/// For one record of every tag, the recovery sweep quarantines each
/// truncation that ends inside the record's identity prefix and keeps
/// both the bare prefix and the intact record: the sweep validates
/// exactly the identity prefix, no less and no more.
#[test]
fn recovery_sweep_checks_the_identity_prefix_of_every_record_tag() {
    // The container prefix (8-byte magic, u16 version, u8 tag) plus
    // each kind's identity fields: plain `u64` design parameter, `u64`
    // triples, `u32` clusters; stratified `u64` strata, `u64` triples,
    // `u32` clusters, `u64` partition fingerprint; comparative `u8`
    // design tag, `u64` design parameter, `u64` triples, `u32`
    // clusters, `u8` primary, `u8` roster size; monitor `u64` triples,
    // `u32` clusters.
    const PREFIX: [usize; 7] = [31, 31, 31, 31, 39, 34, 23];
    let meta = |id: &str| format!(r#"{{"spec":{{"id":"{id}"}},"state":"suspended"}}"#);
    for (tag, record) in every_tag_record().iter().enumerate() {
        assert_eq!(usize::from(record[10]), tag);
        assert!(record.len() > PREFIX[tag], "tag {tag} record too short");
        let dir = temp_dir(&format!("prefix-{tag}"));
        let store = SnapshotStore::open(&dir).unwrap();
        let write = |id: &str, bytes: &[u8]| store.save(id, &meta(id), Some(bytes)).unwrap();
        for len in 0..=PREFIX[tag] {
            write(&format!("cut{len}"), &record[..len]);
        }
        write("intact", record);
        drop(store);

        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report();
        let quarantined: Vec<&str> = report
            .quarantined
            .iter()
            .map(|(id, _)| id.as_str())
            .collect();
        for len in 0..PREFIX[tag] {
            let id = format!("cut{len}");
            assert!(
                quarantined.contains(&id.as_str()),
                "tag {tag}: a record cut to {len} bytes survived the sweep"
            );
        }
        assert_eq!(quarantined.len(), PREFIX[tag], "tag {tag}");
        let mut kept = vec![format!("cut{}", PREFIX[tag]), "intact".to_string()];
        kept.sort();
        assert_eq!(report.recovered, kept, "tag {tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Files of the retired two-file layout (`<id>.meta.json` beside
/// `<id>.snap`) are quarantined when the store opens, one entry per
/// session and never migrated, while one-file records beside them are
/// kept.
#[test]
fn retired_two_file_records_are_quarantined_at_open() {
    let dir = temp_dir("legacy");
    let meta = |id: &str, state: &str| format!(r#"{{"spec":{{"id":"{id}"}},"state":"{state}"}}"#);
    let finished = r#"{"spec":{"id":"new"},"state":"finished","reason":"moe_satisfied"}"#;
    SnapshotStore::open(&dir)
        .unwrap()
        .save("new", finished, None)
        .unwrap();
    std::fs::write(dir.join("old.meta.json"), meta("old", "suspended")).unwrap();
    std::fs::write(dir.join("old.snap"), b"KGAESNAP").unwrap();
    std::fs::write(dir.join("fin.meta.json"), meta("fin", "finished")).unwrap();
    std::fs::write(dir.join("old.snap.tmp"), b"KGAESNAP").unwrap();

    let store = SnapshotStore::open(&dir).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.discarded, vec!["old.snap.tmp".to_string()]);
    assert_eq!(report.recovered, vec!["new".to_string()]);
    let ids: Vec<&str> = report
        .quarantined
        .iter()
        .map(|(id, _)| id.as_str())
        .collect();
    assert_eq!(ids, vec!["fin", "old"], "one entry per session");
    assert!(report.quarantined[0].1.contains("two-file layout"));
    for name in ["old.meta.json", "old.snap", "fin.meta.json"] {
        assert!(!dir.join(name).exists(), "{name} left in the store");
        assert!(dir.join("quarantine").join(name).exists(), "{name}");
    }
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, store, 2);
    assert_eq!(manager.quarantined_sessions(), vec!["fin", "old"]);
    assert_eq!(manager.status("old").unwrap_err().http_status(), 410);
    let _ = std::fs::remove_dir_all(&dir);
}
