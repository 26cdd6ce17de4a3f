//! Suspend at every submit point, resume, finish: the resumed campaign
//! must end bit-identical to the uninterrupted one. A session record is
//! its starting RNG state and its label log, and resume replays the log
//! without running the stopping rule; this sweep checks that the
//! replayed session stops exactly where the uninterrupted one does.
//!
//! Ignored in the default run (it resumes ~200,000 times); run it in
//! release:
//!
//! ```sh
//! cargo test --release -p kgae-core --test resume_sweep -- --ignored
//! ```

use kgae_core::engine::{EngineSpec, SessionEngine};
use kgae_core::{
    DeltaBatch, EvalConfig, EvaluationSession, IntervalMethod, PreparedDesign, SamplingDesign,
    StratifiedConfig,
};
use kgae_graph::stratify::Stratification;
use kgae_graph::{DeltaKg, GroundTruth, KnowledgeGraph};
use kgae_sampling::{ComparePrimary, ScsDriver};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Polls and labels one batch from `truth`; `false` once the engine has
/// no work (stopped, or a monitor watching).
fn step(truth: &dyn GroundTruth, engine: &mut dyn SessionEngine, batch: u64) -> bool {
    let Some(polled) = engine.next_request(batch).unwrap() else {
        return false;
    };
    let labels: Vec<bool> = polled
        .request
        .triples
        .iter()
        .map(|st| truth.is_correct(st.triple))
        .collect();
    engine.submit(&labels).unwrap();
    true
}

/// The engine's final state, bit for bit (`Debug` prints every float
/// exactly): the outcome of a stopped engine, the status of a watching
/// monitor.
fn fingerprint(engine: Box<dyn SessionEngine + '_>) -> String {
    match engine.stop_reason() {
        Some(_) => format!("{:?}", engine.into_outcome()),
        None => format!("{:?}", engine.status()),
    }
}

/// Runs `engine` to the end, snapshotting after every submit, then
/// resumes every snapshot and runs it to the end too. Returns the
/// number of suspension points checked.
fn sweep<'a>(
    label: &str,
    truth: &dyn GroundTruth,
    mut engine: Box<dyn SessionEngine + 'a>,
    resume: impl Fn(&[u8]) -> Box<dyn SessionEngine + 'a>,
    batch: u64,
) -> usize {
    let mut snapshots = Vec::new();
    while step(truth, engine.as_mut(), batch) {
        if engine.stop_reason().is_none() {
            snapshots.push(engine.snapshot().unwrap());
        }
    }
    let want = fingerprint(engine);
    for (point, bytes) in snapshots.iter().enumerate() {
        let mut resumed = resume(bytes);
        while step(truth, resumed.as_mut(), batch) {}
        assert_eq!(
            fingerprint(resumed),
            want,
            "{label}: resumed after submit {point}"
        );
    }
    snapshots.len()
}

#[test]
#[ignore = "release-mode sweep; run with --ignored"]
fn every_submit_point_resumes_to_the_uninterrupted_result() {
    let kg = kgae_graph::datasets::nell();
    let cfg = EvalConfig::default();
    let mut points = 0;

    // The six engine_grid cells at batch 1.
    let methods = [
        IntervalMethod::Wald,
        IntervalMethod::Wilson,
        IntervalMethod::ahpd_default(),
    ];
    for design in [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }] {
        let prepared = PreparedDesign::new(&kg, design);
        for method in &methods {
            for seed in 0..200 {
                let spec = EngineSpec::Plain {
                    kg: &kg,
                    prepared: &prepared,
                    method,
                    config: &cfg,
                    seed,
                };
                let label = format!("{design:?} {} seed {seed}", method.name());
                points += sweep(&label, &kg, spec.build(), |b| spec.resume(b).unwrap(), 1);
            }
        }
    }

    // The other cluster designs at batch 4.
    let method = IntervalMethod::ahpd_default();
    for design in [
        SamplingDesign::Wcs,
        SamplingDesign::Scs,
        SamplingDesign::Twcs { m: 5 },
    ] {
        let prepared = PreparedDesign::new(&kg, design);
        for seed in 0..50 {
            let spec = EngineSpec::Plain {
                kg: &kg,
                prepared: &prepared,
                method: &method,
                config: &cfg,
                seed,
            };
            let label = format!("{design:?} seed {seed}");
            points += sweep(&label, &kg, spec.build(), |b| spec.resume(b).unwrap(), 4);
        }
    }

    // A draw-limited SCS stream, resumed through resume_with_driver: it
    // ends StreamExhausted at the limit whether or not it was resumed.
    let tight = EvalConfig {
        epsilon: 0.005,
        ..EvalConfig::default()
    };
    let session = |rng| {
        let driver = Box::new(ScsDriver::new(&kg).limit_draws(60));
        EvaluationSession::with_driver(&kg, driver, SamplingDesign::Scs, &method, &tight, rng)
    };
    let resume = |bytes: &[u8]| -> Box<dyn SessionEngine + '_> {
        let driver = Box::new(ScsDriver::new(&kg).limit_draws(60));
        Box::new(
            EvaluationSession::resume_with_driver(
                &kg,
                driver,
                SamplingDesign::Scs,
                &method,
                &tight,
                SmallRng::seed_from_u64(0),
                bytes,
            )
            .unwrap(),
        )
    };
    for seed in 0..20 {
        let engine = Box::new(session(SmallRng::seed_from_u64(seed)));
        points += sweep(&format!("limited SCS seed {seed}"), &kg, engine, resume, 4);
    }

    // One stratified, one comparative and one monitor spec; the monitor
    // is swept through a carryover campaign re-opened by a delta.
    let stratification = Stratification::by_hash(&kg, 4, 1);
    let strat_cfg = StratifiedConfig::default();
    let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
    for seed in 0..20 {
        let stratified = EngineSpec::Stratified {
            kg: &kg,
            stratification: &stratification,
            method: &method,
            config: &strat_cfg,
            seed,
        };
        let comparative = EngineSpec::Comparative {
            kg: &kg,
            prepared: &srs,
            primary: ComparePrimary::AHpd,
            config: &cfg,
            seed,
        };
        for (kind, spec) in [("stratified", stratified), ("comparative", comparative)] {
            let label = format!("{kind} seed {seed}");
            points += sweep(&label, &kg, spec.build(), |b| spec.resume(b).unwrap(), 4);
        }

        let monitor = EngineSpec::Monitor {
            kg: &kg,
            method: &method,
            config: &cfg,
            carry_weight: 50.0,
            seed,
        };
        let mut truth = DeltaKg::with_truth(&kg, &kg);
        let mut engine = monitor.build();
        while step(&truth, engine.as_mut(), 4) {}
        let n = truth.num_triples();
        let delta = DeltaBatch {
            predicate: Some("drift".into()),
            removes: (0..n / 4).collect(),
            adds: vec![false; usize::try_from(n / 3).unwrap()],
        };
        assert!(!engine.apply_deltas(&delta).unwrap().watching, "re-opened");
        truth.apply(&delta.removes, &delta.adds).unwrap();
        let label = format!("monitor seed {seed}");
        points += sweep(&label, &truth, engine, |b| monitor.resume(b).unwrap(), 4);
    }

    // A partition below the per-stratum floor of 10: 36 strata of about
    // 8 triples on a 300-triple twin. The warm-up annotates whole
    // strata, so most suspension points resume through census strata.
    let small = kgae_graph::datasets::syn_scaled(300, 60, 0.85, 5);
    let tiny = Stratification::by_hash(&small, 36, 2);
    for batch in [1, 4] {
        for seed in 0..20 {
            let spec = EngineSpec::Stratified {
                kg: &small,
                stratification: &tiny,
                method: &method,
                config: &strat_cfg,
                seed,
            };
            let (mut with_census, mut total) = (0, 0);
            let mut engine = spec.build();
            while step(&small, engine.as_mut(), batch) {
                if engine.stop_reason().is_none() {
                    let strata = engine.status().strata.expect("stratified rows");
                    with_census += usize::from(strata.iter().any(|r| r.census));
                    total += 1;
                }
            }
            assert!(
                2 * with_census > total,
                "seed {seed}: a census stratum at {with_census} of {total} points"
            );
            let label = format!("census strata batch {batch} seed {seed}");
            points += sweep(
                &label,
                &small,
                spec.build(),
                |b| spec.resume(b).unwrap(),
                batch,
            );
        }
    }
    assert!(points > 100_000, "only {points} suspension points");
}
