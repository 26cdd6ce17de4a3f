//! Quickstart: audit the accuracy of a hand-built knowledge graph.
//!
//! Builds a small annotated KG through the public API, then runs the
//! paper's recommended configuration (aHPD + TWCS) and the naive
//! baseline (Wald + SRS) side by side.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use kgae::prelude::*;

fn main() {
    // --- 1. Build (or load) an annotated KG -----------------------------
    // In production the labels come from your annotation pipeline; here
    // we fabricate a tiny curated graph. Subjects become entity clusters.
    let mut builder = InMemoryKg::builder();
    let people = [
        ("Alan_Turing", "bornIn", "London", true),
        ("Alan_Turing", "field", "Computer_Science", true),
        ("Alan_Turing", "bornIn", "Paris", false),
        ("Marie_Curie", "wonPrize", "Nobel_Prize_Physics", true),
        ("Marie_Curie", "bornIn", "Warsaw", true),
        ("Albert_Einstein", "bornIn", "Ulm", true),
        ("Albert_Einstein", "field", "Physics", true),
        ("Albert_Einstein", "wonPrize", "Fields_Medal", false),
    ];
    for (s, p, o, correct) in people {
        builder.add_fact(s, p, o, correct);
    }
    // Pad with generated facts so sampling has something to do.
    for i in 0..400 {
        let subject = format!("Entity_{}", i / 3);
        builder.add_fact(subject, "relatedTo", format!("Thing_{i}"), i % 10 != 0);
    }
    let kg = builder.build();
    println!(
        "KG: {} triples in {} entity clusters (true accuracy {:.3})\n",
        kg.num_triples(),
        kg.num_clusters(),
        kg.true_accuracy()
    );

    // --- 2. Audit with the paper's recommended setup --------------------
    let report = evaluate(
        &kg,
        &OracleAnnotator, // plug your human-annotation interface here
        SamplingDesign::Twcs { m: 3 },
        &IntervalMethod::ahpd_default(),
        &EvalConfig::default(), // α = 0.05, ε = 0.05, min sample 30
        42,                     // seed: same seed, same audit
    )
    .expect("evaluation");

    println!("aHPD + TWCS:");
    println!("  estimated accuracy : {:.3}", report.mu_hat);
    println!("  95% credible interval: {}", report.interval);
    println!(
        "  annotated          : {} triples across {} entities",
        report.annotated_triples, report.annotated_entities
    );
    println!("  annotation cost    : {:.2} h", report.cost_hours());

    // --- 3. Compare with the naive baseline -----------------------------
    let naive = evaluate(
        &kg,
        &OracleAnnotator,
        SamplingDesign::Srs,
        &IntervalMethod::Wald,
        &EvalConfig::default(),
        42, // seed: same seed, same audit
    )
    .expect("evaluation");
    println!("\nWald + SRS (baseline):");
    println!("  estimated accuracy : {:.3}", naive.mu_hat);
    println!("  95% confidence interval: {}", naive.interval);
    println!("  annotation cost    : {:.2} h", naive.cost_hours());
    println!(
        "\nThe credible interval is directly interpretable: the accuracy lies in {} \
         with 95% probability given the annotations.",
        report.interval
    );
}
