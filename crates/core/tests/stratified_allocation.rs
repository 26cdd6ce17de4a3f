//! The acceptance claim of stratified campaigns: on the NELL predicate
//! twin, whose per-predicate accuracies span 0.45–0.99 (per-stratum
//! variances differ by ~25×), width-greedy budget allocation reaches
//! the pooled MoE target with fewer annotations than proportional
//! allocation, and every campaign under either policy converges.

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
                let mut session = StratifiedSession::new(&kg, &strat, &method, &cfg, seed);
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
                let outcome = Box::new(session).into_outcome().expect("stratified result");
                assert!(
                    outcome.result.converged,
                    "{} campaign, seed {seed}: did not converge",
                    allocation.canonical_name()
                );
                outcome.result.observations
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
