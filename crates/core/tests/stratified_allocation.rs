//! The acceptance claim of stratified campaigns: on the NELL predicate
//! twin, whose per-predicate accuracies span 0.45–0.99 (per-stratum
//! variances differ by ~25×), width-greedy budget allocation reaches
//! the pooled MoE target with fewer annotations than proportional
//! allocation, and every campaign under either policy converges. An
//! ignored sweep audits the pooled interval's coverage at the stop.

use kgae_core::{IntervalMethod, SessionEngine, StratifiedConfig, StratifiedSession};
use kgae_graph::GroundTruth;
use kgae_sampling::AllocationPolicy;

#[test]
fn width_greedy_beats_proportional_on_nell_predicates() {
    // Ten seeds from the benchmark seed base 0xBE5C, at ε = 0.03 and
    // batch 8.
    let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
    let method = IntervalMethod::ahpd_default();
    let seeds = 0xBE5C..0xBE5C + 10;
    let mean_observations = |allocation: AllocationPolicy| {
        let cfg = StratifiedConfig {
            allocation,
            epsilon: 0.03,
            ..StratifiedConfig::default()
        };
        let total: u64 = seeds
            .clone()
            .map(|seed| {
                let result = run_campaign(&kg, &strat, &method, &cfg, seed);
                assert!(
                    result.converged,
                    "{} campaign, seed {seed}: did not converge",
                    allocation.canonical_name()
                );
                result.observations
            })
            .sum();
        total as f64 / seeds.clone().count() as f64
    };
    let greedy = mean_observations(AllocationPolicy::WidthGreedy);
    let proportional = mean_observations(AllocationPolicy::Proportional);
    assert!(
        greedy < proportional,
        "width-greedy {greedy:.1} vs proportional {proportional:.1} annotations/campaign"
    );
}

/// Runs one stratified campaign to its stop with oracle labels.
fn run_campaign(
    kg: &(impl kgae_graph::KnowledgeGraph + GroundTruth),
    strat: &kgae_graph::stratify::Stratification,
    method: &IntervalMethod,
    cfg: &StratifiedConfig,
    seed: u64,
) -> kgae_core::EvalResult {
    let mut session = StratifiedSession::new(kg, strat, method, cfg, seed);
    let mut labels = Vec::new();
    while let Some(req) = session.next_request(8).unwrap() {
        labels.clear();
        labels.extend(
            req.request
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple)),
        );
        session.submit(&labels).unwrap();
    }
    Box::new(session)
        .into_outcome()
        .expect("stratified result")
        .result
}

/// Stop-time coverage of the pooled interval: 4,000 aHPD campaigns per
/// row at batch 8, seeds `0xC0FE + 100000 + i`, at the default config
/// and, on NELL `by_predicate`, also at a budget of 90 observations,
/// which ends each campaign before every stratum has a label. Each
/// row's Clopper–Pearson 95% band on its coverage must reach the
/// nominal 0.95 (ignored sweep, ~6 s release).
#[test]
#[ignore = "coverage sweep: cargo test --release --test stratified_allocation -- --ignored"]
fn pooled_interval_covers_at_the_stop() {
    use kgae_graph::stratify::Stratification;
    const REPS: u64 = 4_000;
    let (yago, dbpedia, nell) = (
        kgae_graph::datasets::yago(),
        kgae_graph::datasets::dbpedia(),
        kgae_graph::datasets::nell(),
    );
    let (nell_pred, by_predicate) = kgae_graph::datasets::nell_by_predicate();
    let default = StratifiedConfig::default();
    let budget = StratifiedConfig {
        max_observations: Some(90),
        ..StratifiedConfig::default()
    };
    let rows = [
        (
            "YAGO by_hash(8)",
            &yago,
            Stratification::by_hash(&yago, 8, 1),
            &default,
        ),
        (
            "DBpedia by_hash(8)",
            &dbpedia,
            Stratification::by_hash(&dbpedia, 8, 1),
            &default,
        ),
        (
            "NELL by_predicate",
            &nell_pred,
            by_predicate.clone(),
            &default,
        ),
        (
            "NELL by_hash(8)",
            &nell,
            Stratification::by_hash(&nell, 8, 1),
            &default,
        ),
        (
            "NELL by_predicate, budget 90",
            &nell_pred,
            by_predicate,
            &budget,
        ),
    ];
    let method = IntervalMethod::ahpd_default();
    let mut failures = Vec::new();
    for (name, kg, strat, cfg) in &rows {
        let truth = kg.true_accuracy();
        let start = std::time::Instant::now();
        let (mut covered, mut annotations) = (0u64, 0u64);
        for i in 0..REPS {
            let result = run_campaign(*kg, strat, &method, cfg, 0xC0FE + 100_000 + i);
            covered += u64::from(result.interval.contains(truth));
            annotations += result.observations;
        }
        let band = kgae_intervals::clopper_pearson(covered, REPS, 0.05).unwrap();
        println!(
            "{name:<20} μ = {truth:.3}: coverage {:.4} {band}, mean annotations {:.1} ({:.2} s)",
            covered as f64 / REPS as f64,
            annotations as f64 / REPS as f64,
            start.elapsed().as_secs_f64()
        );
        if band.upper() < 0.95 {
            failures.push(*name);
        }
    }
    assert!(
        failures.is_empty(),
        "coverage band below 0.95: {failures:?}"
    );
}
