//! Web-scale audit: a 100M-triple synthetic KG held in ~50 MB.
//!
//! Reproduces the paper's scalability point (§6.4): the number of
//! annotations needed to certify accuracy does not grow with KG size —
//! auditing 101M triples costs the same ~100–400 annotations as auditing
//! 2,000.
//!
//! ```text
//! cargo run --release --example large_scale            # full 101M triples
//! cargo run --release --example large_scale -- 1000000 # any other size
//! ```
//!
//! The two wall-clock times go to stderr, so stdout is the same on every
//! run of the same build.

use kgae::prelude::*;
use std::time::Instant;

fn main() {
    let triples: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(101_415_011);
    let clusters = (triples as f64 / 20.283).round().max(1.0) as u32;

    let t0 = Instant::now();
    let kg = kgae::graph::datasets::syn_scaled(triples, clusters, 0.9, 1);
    eprintln!("generated in {:.2?}", t0.elapsed());
    println!(
        "generated {} triples in {} clusters ({} MB resident)",
        kg.num_triples(),
        kg.num_clusters(),
        kg.heap_bytes() >> 20,
    );

    let t0 = Instant::now();
    let report = evaluate(
        &kg,
        &OracleAnnotator,
        SamplingDesign::Twcs { m: 5 },
        &IntervalMethod::ahpd_default(),
        &EvalConfig::default(),
        2, // seed: same seed, same audit
    )
    .expect("evaluation");

    eprintln!("audit finished in {:.2?}", t0.elapsed());
    println!(
        "\naudit finished: μ̂ = {:.3}, 95% CrI = {}",
        report.mu_hat, report.interval
    );
    println!(
        "annotated {} of {} triples ({:.6}%) across {} entities — {:.2} h of annotator time",
        report.annotated_triples,
        kg.num_triples(),
        100.0 * report.annotated_triples as f64 / kg.num_triples() as f64,
        report.annotated_entities,
        report.cost_hours()
    );
}
