//! Cross-crate integration tests: the full audit pipeline from dataset
//! generation through sampling, annotation, interval estimation and
//! stopping — asserting the paper-level behaviours every layer must
//! compose into.

use kgae::prelude::*;
use kgae_core::repeat_evaluation;

#[test]
fn recommended_configuration_converges_on_every_real_dataset() {
    // aHPD + TWCS (the paper's recommendation) on all four Table-1 twins.
    for (kg, mu) in [
        (kgae::graph::datasets::yago(), 0.99),
        (kgae::graph::datasets::nell(), 0.91),
        (kgae::graph::datasets::dbpedia(), 0.85),
        (kgae::graph::datasets::factbench(), 0.54),
    ] {
        let r = evaluate(
            &kg,
            &OracleAnnotator,
            SamplingDesign::Twcs { m: 3 },
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            7,
        )
        .unwrap();
        assert!(r.converged);
        assert!(r.interval.moe() <= 0.05 + 1e-12);
        assert!((r.mu_hat - mu).abs() < 0.2, "μ̂ = {} vs μ = {mu}", r.mu_hat);
        // The minimum-sample floor counts observations; distinct triples
        // can fall slightly short under with-replacement cluster draws.
        assert!(r.observations >= 30);
        assert!(r.annotated_triples <= r.observations);
        // Cost accounting is consistent with Eq. 12.
        let expect = r.annotated_entities as f64 * 45.0 + r.annotated_triples as f64 * 25.0;
        assert!((r.cost_seconds - expect).abs() < 1e-9);
    }
}

#[test]
fn ahpd_beats_wilson_on_skewed_accuracy() {
    // Finding F2 at small scale: fewer annotated triples on YAGO (μ=0.99).
    let kg = kgae::graph::datasets::yago();
    let cfg = EvalConfig::default();
    let wilson = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::Wilson,
        &cfg,
        60,
        3,
    );
    let ahpd = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &cfg,
        60,
        3,
    );
    assert!(
        ahpd.triples_summary().mean < wilson.triples_summary().mean,
        "aHPD {} vs Wilson {}",
        ahpd.triples_summary().mean,
        wilson.triples_summary().mean
    );
}

#[test]
fn ahpd_matches_wilson_on_quasi_symmetric_accuracy() {
    // Finding F2's flip side on FACTBENCH (μ = 0.54): parity, no penalty.
    let kg = kgae::graph::datasets::factbench();
    let cfg = EvalConfig::default();
    let wilson = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::Wilson,
        &cfg,
        40,
        5,
    );
    let ahpd = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &cfg,
        40,
        5,
    );
    let diff = (ahpd.triples_summary().mean - wilson.triples_summary().mean).abs();
    assert!(diff < 5.0, "diff = {diff}");
}

#[test]
fn example_1_zero_width_rate_is_reproduced() {
    let kg = kgae::graph::datasets::nell();
    let runs = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::Wald,
        &EvalConfig::default(),
        300,
        0xE1,
    );
    let rate = runs.zero_width_rate();
    assert!(
        (0.02..=0.15).contains(&rate),
        "zero-width rate = {rate} (paper: ~0.07)"
    );
    // aHPD produces none.
    let ahpd = repeat_evaluation(
        &kg,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &EvalConfig::default(),
        50,
        0xE1,
    );
    assert_eq!(ahpd.zero_width_halts, 0);
}

#[test]
fn scalability_mirror_small_and_large_syn_agree() {
    // §6.4: dataset size does not matter; a 100k-triple SYN replica and a
    // 2M-triple one need statistically indistinguishable sample sizes.
    let small = kgae::graph::datasets::syn_scaled(101_415, 5_000, 0.9, 1);
    let large = kgae::graph::datasets::syn_scaled(2_028_300, 100_000, 0.9, 1);
    let cfg = EvalConfig::default();
    let rs = repeat_evaluation(
        &small,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &cfg,
        40,
        9,
    );
    let rl = repeat_evaluation(
        &large,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &cfg,
        40,
        9,
    );
    let (ms, ml) = (rs.triples_summary().mean, rl.triples_summary().mean);
    assert!(
        (ms - ml).abs() < 0.25 * ms,
        "small {ms} vs large {ml} annotated triples"
    );
}

#[test]
fn noisy_annotators_shift_the_estimate_toward_one_half() {
    // With symmetric label noise e, the annotated accuracy converges to
    // μ(1-e) + (1-μ)e rather than μ — the framework measures what the
    // annotators say, as in real audits.
    let kg = kgae::graph::datasets::yago(); // μ = 0.99
    let noisy = kgae_core::NoisyAnnotator::new(0.2);
    let mut estimates = Vec::new();
    for seed in 0..20 {
        let r = evaluate(
            &kg,
            &noisy,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            seed,
        )
        .unwrap();
        estimates.push(r.mu_hat);
    }
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    let expected = 0.99 * 0.8 + 0.01 * 0.2;
    assert!(
        (mean - expected).abs() < 0.06,
        "mean = {mean}, expected ≈ {expected}"
    );
}

/// An annotator that logs the gold label of every triple it is asked
/// about, in request order, and answers as `inner` does.
struct Recording<A> {
    inner: A,
    truths: std::sync::Mutex<Vec<bool>>,
}

impl<A: Annotator> Annotator for Recording<A> {
    fn annotate<R: rand::Rng + ?Sized>(&self, truth: bool, rng: &mut R) -> bool {
        self.truths.lock().unwrap().push(truth);
        self.inner.annotate(truth, rng)
    }
}

/// The gold labels `annotator` was asked about in the SRS/Wilson audit
/// of `kg` from `seed`.
fn gold_sequence<A: Annotator>(kg: &kgae::graph::CompactKg, annotator: A, seed: u64) -> Vec<bool> {
    let recording = Recording {
        inner: annotator,
        truths: std::sync::Mutex::new(Vec::new()),
    };
    evaluate(
        kg,
        &recording,
        SamplingDesign::Srs,
        &IntervalMethod::Wilson,
        &EvalConfig::default(),
        seed,
    )
    .unwrap();
    recording.truths.into_inner().unwrap()
}

#[test]
fn noisy_and_oracle_audits_of_one_seed_sample_the_same_triples() {
    // The annotator draws from its own stream, so label noise never moves
    // the sampling stream: up to where the shorter audit stops, a noisy
    // audit is asked about exactly the triples the oracle audit of the
    // same seed is. At μ ≈ 0.5 any shifted draw shows in the gold labels.
    let kg = kgae::graph::datasets::factbench(); // μ = 0.54
    for seed in 0..5 {
        let oracle = gold_sequence(&kg, OracleAnnotator, seed);
        let noisy = gold_sequence(&kg, kgae_core::NoisyAnnotator::new(0.2), seed);
        let common = oracle.len().min(noisy.len());
        assert!(common >= 30, "seed {seed}: common prefix of {common}");
        assert_eq!(oracle[..common], noisy[..common], "seed {seed}");
    }
}

#[test]
fn in_memory_and_compact_kgs_share_the_pipeline() {
    // The same audit code runs against both storage backends.
    let mut b = InMemoryKg::builder();
    for i in 0..200 {
        b.add_fact(format!("e{}", i / 2), "p", format!("o{i}"), i % 8 != 0);
    }
    let kg = b.build();
    let r = evaluate(
        &kg,
        &OracleAnnotator,
        SamplingDesign::Srs,
        &IntervalMethod::ahpd_default(),
        &EvalConfig::default(),
        11,
    )
    .unwrap();
    assert!(r.converged);
    assert!(r.interval.contains(kg.true_accuracy()) || r.interval.moe() <= 0.05);
}
