//! The defining contract of the certified stopping checks (the SRS
//! lookahead and the cluster designs' one-step gate): across seeds,
//! datasets, and all four sampling designs, the default loop halts at
//! the *same* unit, with the *same* sample and the *same* interval, bit
//! for bit, as a reference loop that constructs and checks the interval
//! after every annotated unit (paper Figure 1, literal). Every interval
//! is solved from the current sample alone, so how often the loop
//! constructed one before the stop cannot move a bit.

use kgae_core::{
    evaluate, EvalConfig, EvalResult, IntervalMethod, OracleAnnotator, SamplingDesign,
    StoppingPolicy,
};
use kgae_graph::{CompactKg, KnowledgeGraph};
use kgae_intervals::{BetaPrior, Boundary};
use proptest::prelude::*;

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

/// aHPD over `Beta(c, c)` for five pseudo-counts `c`: the certificates
/// evaluate only the two extreme ones, so three interior priors are never
/// evaluated there.
fn symmetric_ahpd() -> IntervalMethod {
    IntervalMethod::AHpd(
        [0.2, 1.0 / 3.0, 0.5, 1.0, 2.0]
            .into_iter()
            .map(|c| BetaPrior::informative(c, c).unwrap())
            .collect(),
    )
}

fn methods() -> impl Strategy<Value = IntervalMethod> {
    prop_oneof![
        Just(IntervalMethod::ahpd_default()),
        Just(symmetric_ahpd()),
        Just(IntervalMethod::Hpd(BetaPrior::KERMAN)),
        Just(IntervalMethod::Hpd(BetaPrior::UNIFORM)),
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
    evaluate(kg, &OracleAnnotator, design, method, cfg, seed).unwrap()
}

/// Every field of a result, each float as its bits.
fn bits(r: &EvalResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.mu_hat.to_bits(),
        (r.interval.lower().to_bits(), r.interval.upper().to_bits()),
        r.annotated_triples,
        r.annotated_entities,
        r.observations,
        r.stage1_draws,
        r.cost_seconds.to_bits(),
        r.converged,
        r.halted_at_floor,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
    // The aHPD / NELL benchmark cells under SRS and TWCS(3), and the
    // FactBench and DBpedia TWCS(3) cells, pinned explicitly: seeds
    // 0..200 plus 100 seeds from the benchmark seed base 0xBE5C, with
    // every result field bit-identical.
    let (nell, factbench, dbpedia) = (
        kgae_graph::datasets::nell(),
        kgae_graph::datasets::factbench(),
        kgae_graph::datasets::dbpedia(),
    );
    let method = IntervalMethod::ahpd_default();
    let reference_cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..EvalConfig::default()
    };
    let lookahead_cfg = EvalConfig::default();
    let twcs3 = SamplingDesign::Twcs { m: 3 };
    let cells = [
        ("NELL", &nell, SamplingDesign::Srs),
        ("NELL", &nell, twcs3),
        ("FactBench", &factbench, twcs3),
        ("DBpedia", &dbpedia, twcs3),
    ];
    for (name, kg, design) in cells {
        for seed in (0..200).chain(0xBE5C..0xBE5C + 100) {
            let what = format!("{name} {} seed {seed}", design.name());
            let a = run(kg, design, &method, &reference_cfg, seed);
            let b = run(kg, design, &method, &lookahead_cfg, seed);
            assert_eq!(bits(&b), bits(&a), "{what}");
        }
    }
}

#[test]
fn gates_halt_identically_under_prior_data_conflict() {
    // The informative priors of paper Example 2, Beta(80, 20) and
    // Beta(90, 10), on a KG of accuracy 0.3: evidence that conflicts
    // with them first widens their posteriors, so whether a sample can
    // stop is not monotone in its size (in `n_eff` for the cluster gate,
    // in the horizon for the SRS skip). At these ε the campaigns stop
    // near the 30-triple floor, where that matters.
    let kg = kgae_graph::datasets::syn_scaled(4_000, 900, 0.3, 7);
    let method = IntervalMethod::AHpd(vec![
        BetaPrior::informative(80.0, 20.0).unwrap(),
        BetaPrior::informative(90.0, 10.0).unwrap(),
    ]);
    for epsilon in [0.065, 0.0725] {
        let default_cfg = EvalConfig {
            epsilon,
            ..EvalConfig::default()
        };
        let reference_cfg = EvalConfig {
            stopping: StoppingPolicy::EveryUnit,
            ..default_cfg.clone()
        };
        for design in [
            SamplingDesign::Srs,
            SamplingDesign::Twcs { m: 3 },
            SamplingDesign::Wcs,
        ] {
            for seed in 0..100 {
                let what = format!("ε = {epsilon} {} seed {seed}", design.name());
                let reference = run(&kg, design, &method, &reference_cfg, seed);
                let gated = run(&kg, design, &method, &default_cfg, seed);
                assert_eq!(bits(&gated), bits(&reference), "{what}");
            }
        }
    }
}

#[test]
fn srs_lookahead_probes_stay_inside_the_population() {
    // At ε = 0.01 every SRS aHPD campaign on NELL (N = 1,860) runs to the
    // census. The lookahead probes no horizon past the triples left, so
    // no count row past N is allocated: a count chunk holds 64 rows, and
    // the one holding row N ends before N + 64. Every campaign ends as
    // the every-unit loop's does, bit for bit.
    let nell = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    // Held, so the registry keeps the campaigns' tables to be read.
    let tables: Vec<_> = [BetaPrior::KERMAN, BetaPrior::JEFFREYS, BetaPrior::UNIFORM]
        .iter()
        .map(|prior| Boundary::shared(prior, 0.05, 0.02))
        .collect();
    let default_cfg = EvalConfig {
        epsilon: 0.01,
        ..EvalConfig::default()
    };
    let reference_cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..default_cfg.clone()
    };
    for seed in 0..20 {
        let reference = run(&nell, SamplingDesign::Srs, &method, &reference_cfg, seed);
        let lookahead = run(&nell, SamplingDesign::Srs, &method, &default_cfg, seed);
        assert_eq!(bits(&lookahead), bits(&reference), "seed {seed}");
        assert_eq!(
            lookahead.annotated_triples,
            nell.num_triples(),
            "seed {seed}"
        );
    }
    let reached: Vec<u64> = tables.iter().map(|t| t.count_rows_reached()).collect();
    assert!(reached.iter().any(|&r| r > 0), "{reached:?}");
    assert!(
        reached.iter().all(|&r| r <= nell.num_triples() + 64),
        "count rows past N = {}: {reached:?}",
        nell.num_triples()
    );
}

/// Cluster campaigns at ε = 0.02, where they run longest and their
/// one-step gate refutes the most draws: TWCS(3), WCS and SCS under aHPD
/// and HPD[Kerman] on the NELL and DBpedia twins, 100 seeds a cell, each
/// result bit-identical to the check-every-unit loop's. Run with
/// `cargo test --release -p kgae-core --test lookahead_equivalence -- --ignored`.
#[test]
#[ignore = "release-mode sweep; run with --ignored"]
fn cluster_gate_halts_identically_at_small_epsilon() {
    let (nell, dbpedia) = (
        kgae_graph::datasets::nell(),
        kgae_graph::datasets::dbpedia(),
    );
    let default_cfg = EvalConfig {
        epsilon: 0.02,
        ..EvalConfig::default()
    };
    let reference_cfg = EvalConfig {
        stopping: StoppingPolicy::EveryUnit,
        ..default_cfg.clone()
    };
    let designs = [
        SamplingDesign::Twcs { m: 3 },
        SamplingDesign::Wcs,
        SamplingDesign::Scs,
    ];
    let methods = [
        IntervalMethod::ahpd_default(),
        IntervalMethod::Hpd(BetaPrior::KERMAN),
    ];
    for (name, kg) in [("NELL", &nell), ("DBpedia", &dbpedia)] {
        for design in designs {
            for method in &methods {
                for seed in 0..100 {
                    let what = format!("{name} {} {} seed {seed}", design.name(), method.name());
                    let reference = run(kg, design, method, &reference_cfg, seed);
                    let gated = run(kg, design, method, &default_cfg, seed);
                    assert_eq!(bits(&gated), bits(&reference), "{what}");
                }
            }
        }
    }
}
