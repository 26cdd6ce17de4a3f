//! The defining contract of the poll-based engine: an
//! `EvaluationSession` driven step by step — at any batch size — halts
//! identically to the legacy closed-loop `evaluate` path. Same stopping
//! unit, same sample, same estimate, and the same interval *bits*: with
//! an oracle annotator the per-unit state updates, solver calls and RNG
//! consumption are the same sequence regardless of batching, so the
//! results must be `==`, not merely close.
//!
//! A second property pins suspend/resume: snapshotting a session
//! mid-evaluation and resuming it from bytes produces bit-identical
//! final results to the uninterrupted run.

use kgae_core::{
    evaluate, AnnotationRequest, EvalConfig, EvalResult, EvaluationSession, IntervalMethod,
    OracleAnnotator, PreparedDesign, SamplingDesign, StoppingPolicy,
};
use kgae_graph::{CompactKg, GroundTruth};
use kgae_intervals::BetaPrior;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn datasets() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("yago"),
        Just("nell"),
        Just("dbpedia"),
        Just("factbench"),
        Just("syn"),
    ]
}

fn dataset(name: &str, seed: u64) -> CompactKg {
    match name {
        "yago" => kgae_graph::datasets::yago(),
        "nell" => kgae_graph::datasets::nell(),
        "dbpedia" => kgae_graph::datasets::dbpedia(),
        "factbench" => kgae_graph::datasets::factbench(),
        _ => kgae_graph::datasets::syn_scaled(4_000, 900, 0.75, seed),
    }
}

fn designs() -> impl Strategy<Value = SamplingDesign> {
    prop_oneof![
        Just(SamplingDesign::Srs),
        Just(SamplingDesign::Twcs { m: 3 }),
        Just(SamplingDesign::Wcs),
        Just(SamplingDesign::Scs),
    ]
}

fn methods() -> impl Strategy<Value = IntervalMethod> {
    prop_oneof![
        Just(IntervalMethod::ahpd_default()),
        Just(IntervalMethod::Hpd(BetaPrior::KERMAN)),
        Just(IntervalMethod::Et(BetaPrior::JEFFREYS)),
        Just(IntervalMethod::Wilson),
        Just(IntervalMethod::Wald),
    ]
}

/// Drives a session with oracle labels at the given batch size until it
/// stops, returning the final result.
fn drive_session(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
) -> EvalResult {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    while session.next_request_into(batch, &mut request).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
    }
    session.into_result().expect("stopped session has a result")
}

/// Drives a session to completion like [`drive_session`], but suspends
/// to a snapshot and resumes from bytes after every `suspend_every`
/// submitted batches.
fn drive_session_with_suspensions(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
    suspend_every: u64,
) -> (EvalResult, u64) {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    let mut batches = 0u64;
    let mut suspensions = 0u64;
    loop {
        if !session.next_request_into(batch, &mut request).unwrap() {
            break;
        }
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
        batches += 1;
        if batches.is_multiple_of(suspend_every) && session.stop_reason().is_none() {
            let bytes = session.snapshot().unwrap();
            // A fresh RNG proves the resumed stream comes from the
            // snapshot, not from the seed.
            session = EvaluationSession::resume(
                kg,
                prepared,
                method,
                cfg,
                SmallRng::seed_from_u64(0xDEAD_BEEF),
                &bytes,
            )
            .unwrap();
            suspensions += 1;
        }
    }
    (
        session.into_result().expect("stopped session has a result"),
        suspensions,
    )
}

fn assert_bit_identical(a: &EvalResult, b: &EvalResult, what: &str) {
    assert_eq!(a.observations, b.observations, "{what}: observations");
    assert_eq!(
        a.annotated_triples, b.annotated_triples,
        "{what}: annotated_triples"
    );
    assert_eq!(
        a.annotated_entities, b.annotated_entities,
        "{what}: annotated_entities"
    );
    assert_eq!(a.stage1_draws, b.stage1_draws, "{what}: stage1_draws");
    assert_eq!(a.converged, b.converged, "{what}: converged");
    assert_eq!(
        a.halted_at_floor, b.halted_at_floor,
        "{what}: halted_at_floor"
    );
    assert_eq!(
        a.mu_hat.to_bits(),
        b.mu_hat.to_bits(),
        "{what}: μ̂ bits ({} vs {})",
        a.mu_hat,
        b.mu_hat
    );
    assert_eq!(
        a.cost_seconds.to_bits(),
        b.cost_seconds.to_bits(),
        "{what}: cost bits"
    );
    assert_eq!(
        (a.interval.lower().to_bits(), a.interval.upper().to_bits()),
        (b.interval.lower().to_bits(), b.interval.upper().to_bits()),
        "{what}: interval bits ({} vs {})",
        a.interval,
        b.interval
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn session_halts_identically_to_legacy_at_every_batch_size(
        ds in datasets(),
        design in designs(),
        method in methods(),
        seed in 0u64..10_000,
        policy in prop_oneof![
            Just(StoppingPolicy::CertifiedLookahead),
            Just(StoppingPolicy::EveryUnit)
        ],
    ) {
        let kg = dataset(ds, seed);
        let cfg = EvalConfig { stopping: policy, ..EvalConfig::default() };
        let prepared = PreparedDesign::new(&kg, design);
        let mut rng = SmallRng::seed_from_u64(seed);
        let legacy = evaluate(&kg, &OracleAnnotator, design, &method, &cfg, &mut rng).unwrap();
        for batch in [1u64, 7, 64] {
            let sessioned = drive_session(&kg, &prepared, &method, &cfg, seed, batch);
            assert_bit_identical(
                &legacy,
                &sessioned,
                &format!("{}/{}/{ds} seed {seed} batch {batch}", method.name(), design.name()),
            );
        }
    }

    #[test]
    fn suspended_and_resumed_sessions_finish_bit_identically(
        ds in datasets(),
        design in designs(),
        method in methods(),
        seed in 0u64..10_000,
        batch in prop_oneof![Just(1u64), Just(7), Just(64)],
        suspend_every in 1u64..4,
    ) {
        let kg = dataset(ds, seed);
        let cfg = EvalConfig::default();
        let prepared = PreparedDesign::new(&kg, design);
        let uninterrupted = drive_session(&kg, &prepared, &method, &cfg, seed, batch);
        let (resumed, suspensions) = drive_session_with_suspensions(
            &kg, &prepared, &method, &cfg, seed, batch, suspend_every,
        );
        assert_bit_identical(
            &uninterrupted,
            &resumed,
            &format!(
                "{}/{}/{ds} seed {seed} batch {batch} after {suspensions} suspensions",
                method.name(),
                design.name()
            ),
        );
    }
}

#[test]
fn batched_sessions_pin_the_benchmark_cell() {
    // The canonical cell (aHPD / SRS / NELL), every batch size, 100
    // seeds: bit-identical to the legacy loop.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    for seed in 0..100 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let legacy = evaluate(
            &kg,
            &OracleAnnotator,
            SamplingDesign::Srs,
            &method,
            &cfg,
            &mut rng,
        )
        .unwrap();
        for batch in [1u64, 16, 256] {
            let sessioned = drive_session(&kg, &prepared, &method, &cfg, seed, batch);
            assert_bit_identical(&legacy, &sessioned, &format!("seed {seed} batch {batch}"));
        }
    }
}

#[test]
fn snapshot_round_trip_mid_evaluation_is_exactly_resumable() {
    // Deterministic, non-property variant for quick failure isolation:
    // suspend after every batch on a cluster design (label cache, PPS
    // table and Welford moments all in play).
    let kg = kgae_graph::datasets::factbench();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
    for seed in 0..20 {
        let uninterrupted = drive_session(&kg, &prepared, &method, &cfg, seed, 4);
        let (resumed, suspensions) =
            drive_session_with_suspensions(&kg, &prepared, &method, &cfg, seed, 4, 1);
        assert!(suspensions > 0, "seed {seed} never suspended");
        assert_bit_identical(&uninterrupted, &resumed, &format!("seed {seed}"));
    }
}

#[test]
fn snapshots_are_canonical_bytes() {
    // Identical logical state ⇒ identical snapshot bytes, independent
    // of hash-set iteration order: snapshot twice, and snapshot a
    // resumed session, and compare.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
    let mut session = EvaluationSession::from_prepared(
        &kg,
        &prepared,
        &method,
        &cfg,
        SmallRng::seed_from_u64(21),
    );
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    for _ in 0..6 {
        assert!(session.next_request_into(2, &mut request).unwrap());
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
    }
    let a = session.snapshot().unwrap();
    let b = session.snapshot().unwrap();
    assert_eq!(a, b, "snapshot is not deterministic");
    let resumed = EvaluationSession::resume(
        &kg,
        &prepared,
        &method,
        &cfg,
        SmallRng::seed_from_u64(0),
        &a,
    )
    .unwrap();
    assert_eq!(
        resumed.snapshot().unwrap(),
        a,
        "resume→snapshot not identity"
    );
}

#[test]
fn stored_warm_starts_in_old_snapshots_are_ignored_on_resume() {
    // The solver record keeps one reserved slot per prior that once held
    // an SLSQP warm start. Encoders write it empty; a snapshot carrying
    // values there (as older encoders wrote after a cluster solve) must
    // resume to the same stop, the same interval bits and the same
    // canonical bytes as the snapshot without them.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..EvalConfig::default()
    };
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    for seed in 0..6 {
        let mut session = EvaluationSession::from_prepared(
            &kg,
            &prepared,
            &method,
            &cfg,
            SmallRng::seed_from_u64(seed),
        );
        for _ in 0..3 {
            assert!(session.next_request_into(2, &mut request).unwrap());
            labels.clear();
            labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).unwrap();
        }
        assert!(session.stop_reason().is_none(), "seed {seed} stopped early");
        let bytes = session.snapshot().unwrap();
        // The solver record of a cluster session: no tracked counts, three
        // empty reserved slots, then three posteriors starting at Kerman's.
        let mut empty = vec![0u8; 16];
        empty.extend_from_slice(&3u32.to_le_bytes());
        empty.extend_from_slice(&[0, 0, 0]);
        empty.extend_from_slice(&3u32.to_le_bytes());
        empty.extend_from_slice(&(1.0f64 / 3.0).to_le_bytes());
        let at = bytes
            .windows(empty.len())
            .position(|w| w == empty)
            .expect("solver record in the snapshot");
        let mut stored = bytes[..at + 20].to_vec();
        for (lo, hi) in [(0.1f64, 0.9f64), (0.5, 0.6), (0.0, 1.0)] {
            stored.push(1);
            stored.extend_from_slice(&lo.to_le_bytes());
            stored.extend_from_slice(&hi.to_le_bytes());
        }
        stored.extend_from_slice(&bytes[at + 23..]);
        let resume = |snapshot: &[u8]| {
            EvaluationSession::resume(
                &kg,
                &prepared,
                &method,
                &cfg,
                SmallRng::seed_from_u64(0xDEAD_BEEF),
                snapshot,
            )
            .unwrap()
        };
        let mut finished = Vec::new();
        for snapshot in [&bytes, &stored] {
            let mut resumed = resume(snapshot);
            assert_eq!(
                resumed.snapshot().unwrap(),
                bytes,
                "seed {seed}: not canonical"
            );
            while resumed.next_request_into(2, &mut request).unwrap() {
                labels.clear();
                labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
                resumed.submit(&labels).unwrap();
            }
            finished.push(resumed.into_result().expect("stopped session has a result"));
        }
        assert_bit_identical(&finished[0], &finished[1], &format!("seed {seed}"));
    }
}

#[test]
fn late_stage_resume_without_the_search_hint_is_exact() {
    // Near the stop, the SRS aHPD lookahead certifies skips below 10 and
    // starts each search from the previous round's frontier. That hint
    // is never serialized, so a resumed session's first search starts
    // cold. The stop point, the interval bits and every later snapshot
    // must still equal the uninterrupted twin's.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let mut request = AnnotationRequest::default();
    for seed in 0..8 {
        let mut twin = EvaluationSession::from_prepared(
            &kg,
            &prepared,
            &method,
            &cfg,
            SmallRng::seed_from_u64(seed),
        );
        // Snapshot after every annotation; `late` is the first one whose
        // state certifies a skip below 10.
        let mut snapshots = Vec::new();
        let mut late = None;
        while twin.next_request_into(1, &mut request).unwrap() {
            twin.submit(&[kg.is_correct(request.triples[0].triple)])
                .unwrap();
            if twin.stop_reason().is_some() {
                break;
            }
            snapshots.push(twin.snapshot().unwrap());
            let skip = method.certified_skip_srs(
                twin.sample_state(),
                cfg.alpha,
                cfg.epsilon,
                &mut method.new_state(),
            );
            if late.is_none() && skip < 10 {
                late = Some(snapshots.len() - 1);
            }
        }
        let want = twin.into_result().expect("stopped session has a result");
        let late = late.unwrap_or_else(|| panic!("seed {seed}: no late stage"));
        for at in late..snapshots.len() {
            let mut resumed = EvaluationSession::resume(
                &kg,
                &prepared,
                &method,
                &cfg,
                SmallRng::seed_from_u64(0xDEAD_BEEF),
                &snapshots[at],
            )
            .unwrap();
            let mut step = at;
            while resumed.next_request_into(1, &mut request).unwrap() {
                resumed
                    .submit(&[kg.is_correct(request.triples[0].triple)])
                    .unwrap();
                step += 1;
                if resumed.stop_reason().is_none() {
                    assert_eq!(
                        resumed.snapshot().unwrap(),
                        snapshots[step],
                        "seed {seed}: resumed at {at}, snapshot {step} differs"
                    );
                }
            }
            let got = resumed.into_result().expect("stopped session has a result");
            assert_bit_identical(&want, &got, &format!("seed {seed} resumed at {at}"));
        }
    }
}
