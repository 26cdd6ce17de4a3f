//! The defining contract of the monitor engine: a **delta-free**
//! `MonitorSession` is bit-identical to a plain `EvaluationSession`
//! under SRS with the same method/config/seed. Epoch 0 wraps the base
//! KG in a transparent `DeltaKg` view and seeds the same
//! `SmallRng::seed_from_u64(seed)` stream, so — at any batch size —
//! the monitor must serve the *same* annotation requests in the same
//! order and certify the *same* estimate and interval bits, the only
//! difference being that the monitor then watches instead of stopping.
//!
//! A second property pins the zero-cost watch path: an **empty** delta
//! batch retires nothing, never re-opens annotation, and leaves the
//! certified interval bits untouched.
//!
//! A last test pins the monitor's economic claim: after a
//! removal-heavy drift, re-certifying from the carried posterior costs
//! materially fewer annotations than re-auditing the drifted KG from
//! scratch.

use kgae_core::{
    evaluate, AnnotationRequest, DeltaBatch, EvalConfig, EvalResult, EvaluationSession,
    IntervalMethod, MonitorSession, OracleAnnotator, PreparedDesign, SamplingDesign, SessionEngine,
    SessionStatus,
};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth};
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

fn methods() -> impl Strategy<Value = IntervalMethod> {
    prop_oneof![
        Just(IntervalMethod::ahpd_default()),
        Just(IntervalMethod::Hpd(BetaPrior::KERMAN)),
        Just(IntervalMethod::Et(BetaPrior::JEFFREYS)),
        Just(IntervalMethod::Wilson),
    ]
}

/// Drives a plain SRS session with oracle labels at the given batch
/// size until it stops.
fn drive_plain(
    kg: &CompactKg,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
) -> EvalResult {
    let prepared = PreparedDesign::new(kg, SamplingDesign::Srs);
    let mut session =
        EvaluationSession::from_prepared(kg, &prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    while session.next_request_into(batch, &mut request).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
    }
    session.into_result().expect("stopped session has a result")
}

/// Drives a monitor's initial campaign with oracle labels until it
/// switches to watching, asserting along the way that every served
/// request names exactly the triples `expect` serves (when given).
fn drive_monitor<'a>(
    kg: &'a CompactKg,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
    mut expect: Option<&mut EvaluationSession<'a>>,
) -> MonitorSession<'a> {
    let mut monitor = MonitorSession::new(kg, method, cfg, 50.0, seed);
    let mut mirror = AnnotationRequest::default();
    let mut labels = Vec::new();
    while let Some(engine_request) = monitor.next_request(batch).unwrap() {
        assert!(
            engine_request.stratum.is_none(),
            "SRS campaigns are unstratified"
        );
        if let Some(plain) = expect.as_deref_mut() {
            assert!(
                plain.next_request_into(batch, &mut mirror).unwrap(),
                "plain session ran dry before the monitor"
            );
            let served: Vec<_> = engine_request
                .request
                .triples
                .iter()
                .map(|st| st.triple.index())
                .collect();
            let mirrored: Vec<_> = mirror.triples.iter().map(|st| st.triple.index()).collect();
            assert_eq!(served, mirrored, "request triples diverged");
        }
        labels.clear();
        labels.extend(
            engine_request
                .request
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple)),
        );
        monitor.submit(&labels).unwrap();
        if let Some(plain) = expect.as_deref_mut() {
            plain.submit(&labels).unwrap();
        }
    }
    assert!(monitor.watching(), "delta-free monitor must end watching");
    assert!(
        monitor.stop_reason().is_none(),
        "a monitor never reports a stop reason"
    );
    monitor
}

fn assert_status_matches_result(status: &SessionStatus, result: &EvalResult, what: &str) {
    assert_eq!(
        status.estimate.map(f64::to_bits),
        Some(result.mu_hat.to_bits()),
        "{what}: μ̂ bits ({:?} vs {})",
        status.estimate,
        result.mu_hat
    );
    let interval = status.interval.expect("watching monitor has an interval");
    assert_eq!(
        (interval.lower().to_bits(), interval.upper().to_bits()),
        (
            result.interval.lower().to_bits(),
            result.interval.upper().to_bits()
        ),
        "{what}: interval bits ({interval} vs {})",
        result.interval
    );
    assert_eq!(
        status.observations, result.observations,
        "{what}: observations"
    );
    assert_eq!(
        status.annotated_triples, result.annotated_triples,
        "{what}: annotated_triples"
    );
    assert_eq!(
        status.cost_seconds.to_bits(),
        result.cost_seconds.to_bits(),
        "{what}: cost bits"
    );
    assert_eq!(status.stopped, None, "{what}: monitors never stop");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn delta_free_monitor_is_bit_identical_to_plain_session(
        ds in datasets(),
        method in methods(),
        seed in 0u64..10_000,
        batch in prop_oneof![Just(1u64), Just(7), Just(64)],
    ) {
        let kg = dataset(ds, seed);
        let cfg = EvalConfig::default();
        let plain = drive_plain(&kg, &method, &cfg, seed, batch);
        let monitor = drive_monitor(&kg, &method, &cfg, seed, batch, None);
        let view = monitor.status();
        assert_status_matches_result(
            &view.primary,
            &plain,
            &format!("{}/{ds} seed {seed} batch {batch}", method.name()),
        );
        let report = view.monitor.expect("monitor views carry a report");
        prop_assert_eq!(report.epoch, 0, "delta-free monitors stay at epoch 0");
        prop_assert_eq!(report.campaigns_reopened, 0);
        prop_assert_eq!(report.retired_labels, 0);
        prop_assert!(report.watching);
        prop_assert!(report.drift.is_empty(), "no deltas, no drift rows");
    }

    #[test]
    fn empty_delta_batch_is_free(
        ds in datasets(),
        seed in 0u64..10_000,
    ) {
        let kg = dataset(ds, seed);
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let mut monitor = drive_monitor(&kg, &method, &cfg, seed, 16, None);
        let before = monitor.status().primary;
        let outcome = monitor.apply_deltas(&DeltaBatch::default()).unwrap();
        prop_assert_eq!(outcome.retired_labels, 0);
        prop_assert!(!outcome.reopened, "an empty batch must not re-open annotation");
        prop_assert!(outcome.watching);
        prop_assert_eq!(outcome.epoch, 0);
        let after = monitor.status().primary;
        prop_assert_eq!(
            after.estimate.map(f64::to_bits),
            before.estimate.map(f64::to_bits),
            "estimate moved on an empty batch"
        );
        prop_assert_eq!(after.observations, before.observations);
        prop_assert_eq!(after.annotated_triples, before.annotated_triples);
    }
}

#[test]
fn monitor_requests_mirror_the_plain_session_on_the_benchmark_cell() {
    // The canonical cell (aHPD / SRS / NELL), lockstep request-by-
    // request comparison across batch sizes and 40 seeds: the monitor
    // serves the very same triples the plain session serves, and the
    // final certificates agree to the bit.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    for seed in 0..40 {
        for batch in [1u64, 16, 256] {
            let mut plain = EvaluationSession::from_prepared(
                &kg,
                &prepared,
                &method,
                &cfg,
                SmallRng::seed_from_u64(seed),
            );
            let monitor = drive_monitor(&kg, &method, &cfg, seed, batch, Some(&mut plain));
            let result = plain.into_result().expect("mirrored session also stopped");
            assert_status_matches_result(
                &monitor.status().primary,
                &result,
                &format!("seed {seed} batch {batch}"),
            );
        }
    }
}

#[test]
fn carryover_recertifies_drifted_nell_cheaper_than_scratch() {
    // Ten seeds from the benchmark seed base 0xBE5C. Each certifies the NELL twin, absorbs a removal-heavy
    // drift (1,100 of 1,860 triples removed, 20 added at 90% accuracy)
    // and re-certifies from the carried posterior. A seed whose
    // surviving ledger still certifies keeps watching at zero cost;
    // at least half must re-open so the carryover path is exercised.
    // The counterfactual re-audits the drifted view cold with the same
    // seed.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let drive = |monitor: &mut MonitorSession<'_>, truth: &DeltaKg<'_>| -> u64 {
        let mut spent = 0u64;
        while let Some(polled) = monitor.next_request(16).unwrap() {
            let labels: Vec<bool> = polled
                .request
                .triples
                .iter()
                .map(|st| truth.is_correct(st.triple))
                .collect();
            spent += labels.len() as u64;
            monitor.submit(&labels).unwrap();
        }
        spent
    };
    let drift = DeltaBatch {
        predicate: Some("drift".into()),
        removes: (0..1100).collect(),
        adds: (0..20).map(|k| k % 10 != 0).collect(),
    };
    let seeds = 0xBE5C..0xBE5C + 10u64;
    let (mut reopened, mut carry, mut scratch) = (0u64, 0u64, 0u64);
    for seed in seeds.clone() {
        let mut truth = DeltaKg::with_truth(&kg, &kg);
        let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, seed);
        drive(&mut monitor, &truth);
        reopened += u64::from(monitor.apply_deltas(&drift).unwrap().reopened);
        truth.apply(&drift.removes, &drift.adds).unwrap();
        carry += drive(&mut monitor, &truth);
        let cold = evaluate(
            &truth,
            &OracleAnnotator,
            SamplingDesign::Srs,
            &method,
            &cfg,
            seed,
        )
        .unwrap();
        scratch += cold.observations;
    }
    let reps = seeds.end - seeds.start;
    assert!(
        reopened * 2 >= reps,
        "only {reopened}/{reps} drift batches re-opened annotation"
    );
    let (carry_mean, scratch_mean) = (carry as f64 / reps as f64, scratch as f64 / reps as f64);
    assert!(
        carry_mean < 0.8 * scratch_mean,
        "carryover {carry_mean:.1} vs scratch {scratch_mean:.1} annotations per \
         re-certification: need at least 20% savings"
    );
}
