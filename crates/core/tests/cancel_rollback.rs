//! The cancel-request rollback contract, for every engine kind: after
//! [`SessionEngine::cancel_request`] the engine snapshots cleanly, a
//! re-poll — on the same engine or on one resumed from that snapshot —
//! regenerates the bit-identical batch, and the campaign finishes
//! bit-identical to an uninterrupted twin. This is the property that
//! lets a draining server suspend mid-batch sessions without perturbing
//! their evaluation trajectories.

use kgae_core::{
    EngineRequest, EngineSpec, EvalConfig, IntervalMethod, PreparedDesign, SamplingDesign,
    SessionError, StratifiedConfig,
};
use kgae_graph::{CompactKg, GroundTruth, Stratification};
use kgae_sampling::ComparePrimary;

fn kg() -> CompactKg {
    kgae_graph::datasets::syn_scaled(3_000, 400, 0.8, 17)
}

fn oracle_labels(kg: &CompactKg, request: &EngineRequest) -> Vec<bool> {
    request
        .request
        .triples
        .iter()
        .map(|st| kg.is_correct(st.triple))
        .collect()
}

fn request_fingerprint(request: &EngineRequest) -> (Vec<u64>, u64, Option<u32>) {
    (
        request
            .request
            .triples
            .iter()
            .map(|st| st.triple.index())
            .collect(),
        request.request.units,
        request.stratum.as_ref().map(|(h, _)| *h),
    )
}

/// Runs the full property against one engine spec: warm up, cancel a
/// mid-campaign batch, check re-poll identity on both the original and
/// a snapshot-resumed engine, then check final-result identity against
/// an uninterrupted twin.
fn assert_cancel_exactness(spec: &EngineSpec<'_, '_>, kg: &CompactKg, batch: u64) {
    let mut engine = spec.build();
    let mut twin = spec.build();

    // Fresh engines owe nothing, so cancel must refuse.
    assert!(matches!(
        engine.cancel_request(),
        Err(SessionError::NoRequestPending)
    ));

    // Warm up a few batches, keeping the twin in lockstep.
    for _ in 0..3 {
        let request = engine.next_request(batch).unwrap().expect("still running");
        let labels = oracle_labels(kg, &request);
        engine.submit(&labels).unwrap();
        let twin_request = twin.next_request(batch).unwrap().expect("still running");
        assert_eq!(
            request_fingerprint(&request),
            request_fingerprint(&twin_request)
        );
        twin.submit(&labels).unwrap();
    }

    // Poll mid-campaign, then withdraw the batch.
    let withdrawn = engine.next_request(batch).unwrap().expect("still running");
    assert!(engine.has_pending_request());
    assert!(engine.snapshot().is_err(), "pending batch blocks snapshot");
    engine.cancel_request().unwrap();
    assert!(!engine.has_pending_request());

    // The cancelled engine snapshots cleanly, and both the original and
    // the resumed engine regenerate the withdrawn batch bit-identical.
    let bytes = engine.snapshot().expect("cancelled engine snapshots");
    let mut resumed = spec.resume(&bytes).unwrap();
    let re_polled = engine.next_request(batch).unwrap().expect("still running");
    assert_eq!(
        request_fingerprint(&withdrawn),
        request_fingerprint(&re_polled),
        "re-poll after cancel must regenerate the batch"
    );
    let resumed_poll = resumed.next_request(batch).unwrap().expect("still running");
    assert_eq!(
        request_fingerprint(&withdrawn),
        request_fingerprint(&resumed_poll),
        "resume after cancel must regenerate the batch"
    );

    // Drive the resumed engine and the never-interrupted twin to the
    // end: identical outcomes.
    let labels = oracle_labels(kg, &resumed_poll);
    resumed.submit(&labels).unwrap();
    while let Some(request) = resumed.next_request(batch).unwrap() {
        let labels = oracle_labels(kg, &request);
        resumed.submit(&labels).unwrap();
    }
    while let Some(request) = twin.next_request(batch).unwrap() {
        let labels = oracle_labels(kg, &request);
        twin.submit(&labels).unwrap();
    }
    let outcome = resumed.into_outcome().expect("stopped");
    let twin_outcome = twin.into_outcome().expect("stopped");
    assert_eq!(outcome.reason, twin_outcome.reason);
    assert_eq!(outcome.result, twin_outcome.result);
    assert_eq!(outcome.strata, twin_outcome.strata);
    assert_eq!(outcome.methods, twin_outcome.methods);
}

#[test]
fn plain_engine_cancel_is_exact() {
    let kg = kg();
    // SRS and TWCS cover both driver families (the without-replacement
    // triple stream and the with-replacement PPS draws); WCS converges
    // too fast on this KG to survive the warm-up.
    for design in [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }] {
        let prepared = PreparedDesign::new(&kg, design);
        let method = IntervalMethod::ahpd_default();
        let config = EvalConfig::default();
        let spec = EngineSpec::Plain {
            kg: &kg,
            prepared: &prepared,
            method: &method,
            config: &config,
            seed: 41,
        };
        assert_cancel_exactness(&spec, &kg, 6);
    }
}

#[test]
fn stratified_engine_cancel_is_exact() {
    let kg = kg();
    let stratification = Stratification::by_hash(&kg, 4, 9);
    let method = IntervalMethod::ahpd_default();
    let config = StratifiedConfig::default();
    let spec = EngineSpec::Stratified {
        kg: &kg,
        stratification: &stratification,
        method: &method,
        config: &config,
        seed: 23,
    };
    assert_cancel_exactness(&spec, &kg, 6);
}

#[test]
fn comparative_engine_cancel_is_exact() {
    let kg = kg();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let config = EvalConfig::default();
    let spec = EngineSpec::Comparative {
        kg: &kg,
        prepared: &prepared,
        primary: ComparePrimary::AHpd,
        config: &config,
        seed: 37,
    };
    assert_cancel_exactness(&spec, &kg, 1);
}

#[test]
fn plain_polled_request_cancels_exactly() {
    use kgae_core::EvaluationSession;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let kg = kg();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
    let method = IntervalMethod::Wilson;
    let config = EvalConfig::default();
    let session = || {
        EvaluationSession::from_prepared(
            &kg,
            &prepared,
            &method,
            &config,
            SmallRng::seed_from_u64(5),
        )
    };
    let labels = |request: &kgae_core::AnnotationRequest| -> Vec<bool> {
        request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect()
    };
    let (mut cancelled, mut twin) = (session(), session());
    // There is one poll path: any outstanding request can be withdrawn,
    // at any point of the campaign, and the re-poll is the same batch.
    let mut polls = 0;
    while let Some(request) = cancelled.next_request(4).unwrap() {
        cancelled.cancel_request().unwrap();
        assert!(!cancelled.has_pending_request());
        let again = cancelled.next_request(4).unwrap().expect("still running");
        assert_eq!(request.triples, again.triples, "poll {polls}");
        assert_eq!(request.units, again.units, "poll {polls}");
        cancelled.submit(&labels(&again)).unwrap();
        let twin_request = twin.next_request(4).unwrap().expect("in lockstep");
        twin.submit(&labels(&twin_request)).unwrap();
        polls += 1;
    }
    assert!(twin.next_request(4).unwrap().is_none());
    assert!(polls > 3);
    assert_eq!(cancelled.result(), twin.result());
}
