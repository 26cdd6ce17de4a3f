//! The defining contract of the comparative engine (acceptance
//! criterion of the multi-method refactor): a [`ComparativeSession`]
//! with primary method M produces a primary interval and stopping
//! point **bit-identical** to a standalone [`EvaluationSession`]
//! running M alone with the same seed/design/config — and every rival
//! that converges inside the shared stream reports the exact stopping
//! point and interval a standalone campaign of *that* method would
//! have reported.

use kgae_core::comparative::ComparativeSession;
use kgae_core::{
    compared_methods, AnnotationRequest, ComparativeResult, EvalConfig, EvalResult,
    EvaluationSession, IntervalMethod, PreparedDesign, SamplingDesign,
};
use kgae_graph::{CompactKg, GroundTruth};
use kgae_sampling::ComparePrimary;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn datasets() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("yago"),
        Just("nell"),
        Just("dbpedia"),
        Just("factbench"),
    ]
}

fn dataset(name: &str) -> CompactKg {
    match name {
        "yago" => kgae_graph::datasets::yago(),
        "nell" => kgae_graph::datasets::nell(),
        "dbpedia" => kgae_graph::datasets::dbpedia(),
        _ => kgae_graph::datasets::factbench(),
    }
}

fn primaries() -> impl Strategy<Value = ComparePrimary> {
    prop_oneof![
        Just(ComparePrimary::Wald),
        Just(ComparePrimary::Wilson),
        Just(ComparePrimary::Et),
        Just(ComparePrimary::AHpd),
    ]
}

fn designs() -> impl Strategy<Value = SamplingDesign> {
    // The issue's shared-stream designs; the wire fixes SRS, the core
    // engine also supports cluster streams.
    prop_oneof![
        Just(SamplingDesign::Srs),
        Just(SamplingDesign::Twcs { m: 3 })
    ]
}

fn drive_comparative(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    primary: ComparePrimary,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
) -> ComparativeResult {
    let mut session = ComparativeSession::new(kg, prepared, primary, cfg, seed);
    let mut labels = Vec::new();
    while let Some(request) = session.next_request(batch).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
    }
    session
        .into_result()
        .expect("stopped campaign has a result")
}

fn drive_standalone(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
) -> EvalResult {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    while session.next_request_into(1, &mut request).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
    }
    session.into_result().expect("stopped session has a result")
}

fn check_against_standalones(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    primary: ComparePrimary,
    cfg: &EvalConfig,
    seed: u64,
    what: &str,
) {
    let comparative = drive_comparative(kg, prepared, primary, cfg, seed, 16);
    let roster = compared_methods();

    // 1. The primary is bit-identical to its standalone twin.
    let standalone_primary =
        drive_standalone(kg, prepared, &roster[primary.roster_index()], cfg, seed);
    assert_eq!(
        comparative.primary, standalone_primary,
        "{what}: primary diverged from the standalone run"
    );
    let shared_total = comparative.primary.observations;

    // 2. Every rival row is the standalone counterfactual.
    for (index, method) in roster.iter().enumerate() {
        let row = &comparative.methods[index];
        assert_eq!(row.method, method.canonical_name(), "{what}: roster order");
        assert_eq!(row.primary, index == primary.roster_index());
        if row.primary {
            assert_eq!(row.stopped_at, Some(shared_total));
            continue;
        }
        let standalone = drive_standalone(kg, prepared, method, cfg, seed);
        if row.converged {
            // The rival's MoE fired inside the shared stream: its
            // counterfactual stopping point, estimate and interval must
            // be the standalone run's, bit for bit.
            assert!(
                standalone.converged,
                "{what}/{}: rival converged but the standalone did not",
                row.method
            );
            assert_eq!(
                row.stopped_at,
                Some(standalone.observations),
                "{what}/{}: counterfactual stopping point",
                row.method
            );
            assert_eq!(
                row.estimate.unwrap().to_bits(),
                standalone.mu_hat.to_bits(),
                "{what}/{}: counterfactual estimate bits",
                row.method
            );
            let interval = row.interval.unwrap();
            assert_eq!(
                (interval.lower().to_bits(), interval.upper().to_bits()),
                (
                    standalone.interval.lower().to_bits(),
                    standalone.interval.upper().to_bits()
                ),
                "{what}/{}: counterfactual interval bits",
                row.method
            );
        } else {
            // The rival did not converge inside the shared stream, so a
            // standalone run of it must stop later (or stop at the same
            // count for a non-MoE reason, e.g. both exhausted the KG).
            assert!(
                standalone.observations >= shared_total,
                "{what}/{}: standalone stopped at {} < shared total {}",
                row.method,
                standalone.observations,
                shared_total
            );
            if standalone.converged {
                assert!(
                    standalone.observations > shared_total,
                    "{what}/{}: standalone MoE fired within the shared stream \
                     but the rival row says it did not",
                    row.method
                );
            }
            assert_eq!(row.stopped_at, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn comparative_primary_and_counterfactuals_match_standalone_runs(
        ds in datasets(),
        design in designs(),
        primary in primaries(),
        seed in 0u64..10_000,
    ) {
        let kg = dataset(ds);
        let cfg = EvalConfig::default();
        let prepared = PreparedDesign::new(&kg, design);
        check_against_standalones(
            &kg,
            &prepared,
            primary,
            &cfg,
            seed,
            &format!("{ds}/{}/{}", design.name(), primary.canonical_name()),
        );
    }
}

#[test]
fn every_primary_pins_the_canonical_cell() {
    // Deterministic variant on the benchmark cell (SRS / NELL), every
    // primary, several seeds — quick failure isolation for the
    // property above.
    let kg = kgae_graph::datasets::nell();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    for primary in ComparePrimary::ALL {
        for seed in [0u64, 7, 101] {
            check_against_standalones(
                &kg,
                &prepared,
                primary,
                &cfg,
                seed,
                &format!("nell/srs/{}", primary.canonical_name()),
            );
        }
    }
}

#[test]
fn shared_stream_costs_a_fraction_of_independent_campaigns() {
    // The economic claim behind the engine: one shared stream prices
    // the whole comparison table at the primary's annotation cost,
    // strictly below the four independent campaigns it replaces, while
    // its aHPD primary stays bit-identical to a standalone aHPD run.
    // Seeds 1 and 42 at batch 16, plus ten seeds from the benchmark
    // seed base 0xBE5C at batch 1.
    let kg = kgae_graph::datasets::nell();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let roster = compared_methods();
    let cases = [(1u64, 16u64), (42, 16)]
        .into_iter()
        .chain((0xBE5C..0xBE5C + 10).map(|seed| (seed, 1)));
    for (seed, batch) in cases {
        let comparative =
            drive_comparative(&kg, &prepared, ComparePrimary::AHpd, &cfg, seed, batch);
        let standalone: Vec<EvalResult> = roster
            .iter()
            .map(|method| drive_standalone(&kg, &prepared, method, &cfg, seed))
            .collect();
        assert_eq!(
            comparative.primary,
            standalone[ComparePrimary::AHpd.roster_index()],
            "seed {seed}: primary diverged from the standalone aHPD run"
        );
        let independent: u64 = standalone.iter().map(|r| r.observations).sum();
        assert!(
            comparative.primary.observations < independent,
            "seed {seed}: shared stream used {} annotations vs {} across \
             four independent campaigns",
            comparative.primary.observations,
            independent
        );
    }
}

#[test]
fn budget_exhaustion_freezes_non_converged_rows() {
    // A budget far below any stopping point: the primary reports
    // BudgetExhausted and every row survives with converged rivals
    // impossible, estimate present, no stopping point.
    let kg = kgae_graph::datasets::factbench();
    let cfg = EvalConfig {
        max_observations: Some(60),
        ..EvalConfig::default()
    };
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let result = drive_comparative(&kg, &prepared, ComparePrimary::AHpd, &cfg, 9, 16);
    assert!(!result.primary.converged);
    assert!(result.primary.observations >= 60);
    for row in &result.methods {
        assert!(
            !row.converged,
            "{} converged under a 60-label budget",
            row.method
        );
        assert!(row.estimate.is_some());
        assert_eq!(
            row.stopped_at,
            if row.primary {
                Some(result.primary.observations)
            } else {
                None
            }
        );
    }
}
