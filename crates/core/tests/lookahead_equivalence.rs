//! The defining contract of the certified multi-step lookahead: across
//! seeds, datasets, and all four sampling designs, the lookahead loop
//! halts at the *same* unit, with the *same* sample and the *same*
//! interval, bit for bit, as a reference loop that constructs and checks
//! the interval after every annotated unit (paper Figure 1, literal).
//! Every interval is solved from the current sample alone, so how often
//! the loop constructed one before the stop cannot move a bit.

use kgae_core::{
    evaluate, EvalConfig, EvalResult, IntervalMethod, OracleAnnotator, SamplingDesign,
    StoppingPolicy,
};
use kgae_graph::CompactKg;
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

fn run(
    kg: &CompactKg,
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
) -> EvalResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    evaluate(kg, &OracleAnnotator, design, method, cfg, &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookahead_and_reference_loops_halt_identically(
        ds in datasets(),
        design in designs(),
        method in methods(),
        seed in 0u64..10_000,
        alpha in prop_oneof![Just(0.05), Just(0.10)],
    ) {
        let kg = dataset(ds, seed);
        let reference_cfg = EvalConfig {
            stopping: StoppingPolicy::EveryUnit,
            ..EvalConfig::default().with_alpha(alpha)
        };
        let lookahead_cfg = EvalConfig {
            stopping: StoppingPolicy::CertifiedLookahead,
            ..EvalConfig::default().with_alpha(alpha)
        };
        let reference = run(&kg, design, &method, &reference_cfg, seed);
        let lookahead = run(&kg, design, &method, &lookahead_cfg, seed);

        // Stopping statistics must match exactly: same sample, same
        // halting unit, same estimate, same convergence reason.
        prop_assert_eq!(
            lookahead.observations, reference.observations,
            "{} / {} / {ds}: stopped at different n", method.name(), design.name()
        );
        prop_assert_eq!(lookahead.annotated_triples, reference.annotated_triples);
        prop_assert_eq!(lookahead.annotated_entities, reference.annotated_entities);
        prop_assert_eq!(lookahead.stage1_draws, reference.stage1_draws);
        prop_assert_eq!(lookahead.converged, reference.converged);
        prop_assert_eq!(lookahead.halted_at_floor, reference.halted_at_floor);
        prop_assert!(
            lookahead.mu_hat == reference.mu_hat,
            "μ̂ differs: {} vs {}", lookahead.mu_hat, reference.mu_hat
        );
        prop_assert!(
            (lookahead.cost_seconds - reference.cost_seconds).abs() < 1e-9,
            "cost differs"
        );
        // The final intervals come from the same sample through the same
        // solver.
        prop_assert!(
            lookahead.interval.lower().to_bits() == reference.interval.lower().to_bits()
                && lookahead.interval.upper().to_bits() == reference.interval.upper().to_bits(),
            "{} / {}: interval {} vs {}",
            method.name(), design.name(), lookahead.interval, reference.interval
        );
    }
}

#[test]
fn lookahead_equivalence_on_the_benchmark_cell() {
    // The A/B benchmark cell (aHPD / SRS / NELL) pinned explicitly:
    // 200 seeds, bit-identical stopping statistics.
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let reference_cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..EvalConfig::default()
    };
    let lookahead_cfg = EvalConfig::default();
    for seed in 0..200 {
        let a = run(&kg, SamplingDesign::Srs, &method, &reference_cfg, seed);
        let b = run(&kg, SamplingDesign::Srs, &method, &lookahead_cfg, seed);
        assert_eq!(a.observations, b.observations, "seed {seed}");
        assert_eq!(a.annotated_triples, b.annotated_triples, "seed {seed}");
        assert!(a.mu_hat == b.mu_hat, "seed {seed}");
        assert_eq!(a.converged, b.converged, "seed {seed}");
    }
}
