//! Suspend at every submit point, resume, finish: the resumed campaign
//! must end bit-identical to the uninterrupted one. A session record is
//! its starting RNG state and its label log, and resume replays the log
//! without running the stopping rule; this sweep checks that the
//! replayed session stops exactly where the uninterrupted one does. A
//! monitor record is its event log, replayed through the live calls;
//! the monitor leg suspends across epochs and between delta batches.
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
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, KnowledgeGraph};
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

/// One step of a monitor script: annotate until the monitor watches,
/// or hand it a delta batch.
enum Step {
    Drive,
    Delta(DeltaBatch),
}

/// Epoch 0; a batch that keeps watching and one that re-opens; the
/// carry-over campaign; a batch that leaves 12 triples, below the
/// campaign floor, so the re-opened campaign ends in a poll that
/// harvests the exhausted view.
fn monitor_script(n: u64) -> Vec<Step> {
    let tiny = DeltaBatch {
        predicate: Some("tiny".into()),
        removes: vec![0, 1],
        adds: vec![],
    };
    let n = n - 2;
    let drift = DeltaBatch {
        predicate: Some("drift".into()),
        removes: (0..n / 4).collect(),
        adds: vec![false; usize::try_from(n / 3).unwrap()],
    };
    let n = n - n / 4 + n / 3;
    let shrink = DeltaBatch {
        predicate: None,
        removes: (0..n - 12).collect(),
        adds: vec![],
    };
    vec![
        Step::Drive,
        Step::Delta(tiny),
        Step::Delta(drift),
        Step::Drive,
        Step::Delta(shrink),
        Step::Drive,
    ]
}

/// Runs `script[from..]` on a monitor, applying each batch to `truth`
/// too, and calls `point(next, engine)` after every poll and every
/// batch, `next` being the step a run resumed there continues from.
/// Returns whether the monitor watched after each batch.
fn run_script(
    truth: &mut DeltaKg<'_>,
    engine: &mut dyn SessionEngine,
    script: &[Step],
    from: usize,
    point: &mut dyn FnMut(usize, &dyn SessionEngine),
) -> Vec<bool> {
    let mut watching = Vec::new();
    for (i, s) in script.iter().enumerate().skip(from) {
        match s {
            Step::Drive => loop {
                let more = step(truth, engine, 4);
                point(i, engine);
                if !more {
                    break;
                }
            },
            Step::Delta(delta) => {
                watching.push(engine.apply_deltas(delta).unwrap().watching);
                truth.apply(&delta.removes, &delta.adds).unwrap();
                point(i + 1, engine);
            }
        }
    }
    watching
}

/// Runs a monitor through `script`, snapshotting after every poll of
/// every epoch and after every batch; then resumes each snapshot on a
/// truth twin brought to the same view, runs the rest of the script,
/// and compares the final status with the uninterrupted run's. Returns
/// the number of suspension points checked and whether the monitor kept
/// watching through the first batch.
fn sweep_monitor(
    label: &str,
    kg: &CompactKg,
    spec: &EngineSpec<'_, '_>,
    script: &[Step],
) -> (usize, bool) {
    let mut snapshots = Vec::new();
    let mut engine = spec.build();
    let mut truth = DeltaKg::with_truth(kg, kg);
    let watching = run_script(
        &mut truth,
        engine.as_mut(),
        script,
        0,
        &mut |next, engine| {
            snapshots.push((next, engine.snapshot().unwrap()));
        },
    );
    assert_eq!(
        watching[1..],
        [false, false],
        "{label}: the last batches re-open"
    );
    let status = engine.status();
    let epoch = 2 + u64::from(!watching[0]);
    assert_eq!(status.monitor.as_ref().unwrap().epoch, epoch, "{label}");
    let census = status.primary.interval.unwrap();
    assert_eq!(
        census.width(),
        0.0,
        "{label}: the last campaign harvests a census"
    );
    let want = fingerprint(engine);
    for (point, (next, bytes)) in snapshots.iter().enumerate() {
        let mut truth = DeltaKg::with_truth(kg, kg);
        for s in &script[..*next] {
            if let Step::Delta(delta) = s {
                truth.apply(&delta.removes, &delta.adds).unwrap();
            }
        }
        let mut resumed = spec.resume(bytes).unwrap();
        run_script(&mut truth, resumed.as_mut(), script, *next, &mut |_, _| {});
        assert_eq!(
            fingerprint(resumed),
            want,
            "{label}: resumed at point {point} (step {next})"
        );
    }
    (snapshots.len(), watching[0])
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
                bytes,
            )
            .unwrap(),
        )
    };
    for seed in 0..20 {
        let engine = Box::new(session(SmallRng::seed_from_u64(seed)));
        points += sweep(&format!("limited SCS seed {seed}"), &kg, engine, resume, 4);
    }

    // One stratified, one comparative and one monitor spec.
    let stratification = Stratification::by_hash(&kg, 4, 1);
    let strat_cfg = StratifiedConfig::default();
    let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let script = monitor_script(kg.num_triples());
    let mut kept_watching = 0;
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
        let label = format!("monitor seed {seed}");
        let (checked, kept) = sweep_monitor(&label, &kg, &monitor, &script);
        points += checked;
        kept_watching += usize::from(kept);
    }
    assert!(
        kept_watching > 10,
        "the first batch kept {kept_watching} of 20 monitors watching"
    );

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
