//! Stratified audit: which predicates of a KG are rotten?
//!
//! A single KG-wide accuracy hides where the errors live. This example
//! audits the NELL predicate twin *per predicate*: one SRS estimator
//! per predicate stratum, a shared annotation budget allocated
//! width-greedily (Neyman-style — the batch goes to the stratum whose
//! weighted interval promises the largest pooled-width reduction per
//! annotation), and a pooled KG-wide estimate whose point value is
//! exactly the weighted combination of the per-stratum estimators.
//! The campaign speaks the same `SessionEngine` protocol as every other
//! engine: each polled batch names its stratum, and the final outcome
//! carries the pooled result plus one row per stratum.
//!
//! Also demonstrates suspend/resume: the campaign is snapshotted to
//! bytes mid-flight and resumed, continuing bit-identically.
//!
//! ```text
//! cargo run --release --example stratified_audit
//! ```

use kgae::core::stratified::{StratifiedConfig, StratifiedSession};
use kgae::core::{IntervalMethod, SessionEngine};
use kgae::graph::GroundTruth;
use kgae::sampling::AllocationPolicy;

fn main() {
    // --- 1. A KG with predicate structure -------------------------------
    // nell_by_predicate() returns the NELL-shaped twin plus its
    // per-predicate partition. For your own data, build a
    // `Stratification` with `by_predicate(&InMemoryKg)` or supply any
    // triple → stratum map with `Stratification::from_assignment`.
    let (kg, strat) = kgae::graph::datasets::nell_by_predicate();
    println!(
        "NELL predicate twin: {} triples, {} predicates (true accuracy {:.3})\n",
        strat.num_triples(),
        strat.num_strata(),
        kg.true_accuracy()
    );

    // --- 2. Run the stratified campaign ---------------------------------
    let cfg = StratifiedConfig {
        epsilon: 0.04, // pooled MoE target
        allocation: AllocationPolicy::WidthGreedy,
        ..StratifiedConfig::default()
    };
    let mut session =
        StratifiedSession::new(&kg, &strat, &IntervalMethod::ahpd_default(), &cfg, 42);

    let mut batches = 0u64;
    while let Some(req) = session.next_request(8).expect("poll") {
        // `req.stratum` names the predicate the batch audits. Annotate
        // externally — here, the oracle labels.
        let labels: Vec<bool> = req
            .request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        session.submit(&labels).expect("submit");
        batches += 1;

        // Suspend/resume mid-flight: the campaign serializes to a
        // compact binary snapshot and continues bit-identically.
        if batches == 10 {
            let bytes = session.snapshot().expect("snapshot");
            println!(
                "suspended after {batches} batches into {} snapshot bytes; resuming...\n",
                bytes.len()
            );
            session = StratifiedSession::resume(
                &kg,
                &strat,
                &IntervalMethod::ahpd_default(),
                &cfg,
                &bytes,
            )
            .expect("resume");
        }
    }

    // --- 3. Read the per-predicate report -------------------------------
    // The outcome's `result` is the pooled KG-wide answer and its
    // `strata` the per-predicate rows.
    let outcome = Box::new(session).into_outcome().expect("campaign finished");
    let pooled = &outcome.result;
    println!("predicate                 weight     n   estimate   95% interval");
    for row in outcome.strata.as_deref().expect("per-stratum rows") {
        let status = &row.status;
        println!(
            "{:<24} {:>6.1}% {:>5}      {:.3}   {}{}",
            row.name,
            100.0 * row.weight,
            status.observations,
            status.estimate.unwrap_or(f64::NAN),
            status
                .interval
                .map_or_else(|| "-".to_string(), |i| i.clamped_to_unit().to_string()),
            if row.census { "  (census)" } else { "" },
        );
    }
    println!(
        "\npooled KG-wide accuracy: {:.3} ∈ {} ({} annotations, {:.1} h)",
        pooled.mu_hat,
        pooled.interval,
        pooled.observations,
        pooled.cost_seconds / 3600.0
    );
    println!(
        "The tail predicates are the rotten ones — exactly what the flat \
         KG-wide number (μ̂ ≈ {:.2}) cannot tell you.",
        pooled.mu_hat
    );
}
