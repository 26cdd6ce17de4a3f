//! Comparative audit: the paper's method comparison on one annotation
//! budget.
//!
//! Running one campaign per interval method pays for human annotation
//! once per method. A `ComparativeSession` feeds a single SRS
//! annotation stream to the full roster — Wald, Wilson, ET and aHPD —
//! concurrently: the designated primary (aHPD, the paper-recommended
//! method) drives the stopping rule, while every rival records the
//! exact point at which *it* would have stopped. One campaign, the
//! whole comparison table.
//!
//! The campaign is driven through `SessionEngine`, the protocol every
//! engine speaks, so the same loop would drive any engine kind. A
//! suspended campaign's snapshot names its engine kind and resumes
//! byte-identically.
//!
//! ```text
//! cargo run --release --example comparative_audit
//! ```

use kgae::core::comparative::ComparativeSession;
use kgae::core::{EvalConfig, PreparedDesign, SamplingDesign, SessionEngine};
use kgae::graph::GroundTruth;
use kgae::sampling::ComparePrimary;

fn main() {
    // --- 1. A KG to audit and the shared sampling stream ---------------
    let kg = kgae::graph::datasets::nell();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let cfg = EvalConfig::default(); // α = 0.05, ε = 0.05
    println!(
        "NELL twin: {} triples, true accuracy {:.3}\n",
        kgae::graph::KnowledgeGraph::num_triples(&kg),
        kg.true_accuracy()
    );

    // --- 2. Race the full method roster on one stream -------------------
    let mut session = ComparativeSession::new(&kg, &prepared, ComparePrimary::AHpd, &cfg, 42);
    let mut units = 0u64;
    while let Some(polled) = session.next_request(1).expect("poll") {
        // Annotate externally — here, the oracle labels.
        let labels: Vec<bool> = polled
            .request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        session.submit(&labels).expect("submit");
        units += 1;

        // Suspend/resume mid-flight: the campaign (primary engine and
        // every rival's stop, if it has one) serializes into one tagged
        // snapshot and continues bit-identically.
        if units == 40 {
            let bytes = session.snapshot().expect("snapshot");
            println!(
                "suspended after {units} units into a {}-byte snapshot (record kind: {})",
                bytes.len(),
                kgae::core::snapshot_engine_kind(&bytes)
                    .expect("the record tag names the engine kind")
                    .name(),
            );
            session =
                ComparativeSession::resume(&kg, &prepared, ComparePrimary::AHpd, &cfg, &bytes)
                    .expect("resume");
        }
    }

    // --- 3. The live comparison table -----------------------------------
    // The outcome's `result` is the primary method's and its `methods`
    // the per-method rows, in roster order.
    let outcome = Box::new(session).into_outcome().expect("campaign finished");
    println!(
        "\nshared stream stopped after {} annotations (primary aHPD, MoE ≤ {}):\n",
        outcome.result.observations, cfg.epsilon
    );
    println!(
        "{:<14} {:>8} {:>11} {:>10} {:>22}",
        "method", "primary", "converged", "stopped@", "final interval"
    );
    for row in outcome.methods.as_deref().expect("per-method rows") {
        println!(
            "{:<14} {:>8} {:>11} {:>10} {:>22}",
            row.method,
            if row.primary { "yes" } else { "" },
            if row.converged { "yes" } else { "no" },
            row.stopped_at
                .map_or_else(|| "-".into(), |at| at.to_string()),
            row.interval.map_or_else(|| "-".into(), |i| format!("{i}")),
        );
    }
    println!(
        "\nFour independent campaigns would have paid for every method's \
         annotations separately;\nthe shared stream prices the whole table at \
         the primary's cost."
    );
}
