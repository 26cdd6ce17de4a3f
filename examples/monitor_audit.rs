//! Continuous accuracy monitoring over an evolving KG (paper §8).
//!
//! A long-lived `MonitorSession` certifies an interval once, then absorbs
//! KG churn — small updates at **zero** annotation cost, and a bulk drift
//! by re-opening annotation seeded with the surviving posterior,
//! converging with materially fewer labels than a restart from scratch.
//!
//! ```text
//! cargo run --release --example monitor_audit
//! ```

use kgae::core::{DeltaBatch, MonitorSession, SessionEngine};
use kgae::prelude::*;

/// Answers a monitor's annotation requests from the ground-truth twin
/// until the monitor is watching again; returns the labels spent.
fn annotate(monitor: &mut MonitorSession<'_>, truth: &kgae::graph::DeltaKg<'_>) -> u64 {
    let mut spent = 0u64;
    while let Some(polled) = monitor.next_request(16).expect("poll") {
        let labels: Vec<bool> = polled
            .request
            .triples
            .iter()
            .map(|st| truth.is_correct(st.triple))
            .collect();
        spent += labels.len() as u64;
        monitor.submit(&labels).expect("submit");
    }
    spent
}

fn certificate(monitor: &MonitorSession<'_>) -> String {
    let status = monitor.status().primary;
    format!(
        "μ̂ = {:.3}, CrI = {}",
        status.estimate.expect("watching monitor has an estimate"),
        status.interval.expect("watching monitor has an interval"),
    )
}

fn main() {
    let kg = kgae::graph::datasets::nell(); // μ = 0.91, 1.86 k triples
    let cfg = EvalConfig::default(); // α = 0.05, ε = 0.05
    let method = IntervalMethod::ahpd_default();

    // The truth twin sees the same deltas as the monitor, so it can
    // answer annotation requests against the *current* view — exactly
    // what a human annotation team would be shown.
    let mut truth = kgae::graph::DeltaKg::with_truth(&kg, &kg);
    let mut monitor = MonitorSession::new(&kg, &method, &cfg, 50.0, 42);

    // --- initial campaign ------------------------------------------------
    let spent = annotate(&mut monitor, &truth);
    println!(
        "initial campaign:   {} ({spent} annotations)",
        certificate(&monitor)
    );

    // --- routine churn: absorbed while watching --------------------------
    // The campaign stops the moment its interval meets the MoE target,
    // so the certificate has no slack: churn that touches annotated
    // evidence (or adds unlabeled triples) can immediately degrade it.
    // Pruning a few unannotated triples, though, is free.
    let fix = DeltaBatch {
        predicate: Some("generalizations".into()),
        removes: vec![17, 23, 99],
        adds: vec![],
    };
    let outcome = monitor.apply_deltas(&fix).expect("small delta");
    truth.apply(&fix.removes, &fix.adds).expect("twin");
    assert!(outcome.watching, "small churn must not re-open annotation");
    println!(
        "small churn:        {} (0 annotations, {} labels retired)",
        certificate(&monitor),
        outcome.retired_labels
    );

    // --- bulk drift: annotation re-opens with prior carryover ------------
    // A removal-heavy cleanup pass of NELL-like quality: a third of the
    // graph is pruned (retiring a third of the ledger evidence) and a
    // modest batch of ~90 %-correct facts lands. Enough survivors stay
    // labeled that the carried posterior remains informative about the
    // drifted view — the regime where carryover pays. (Addition-heavy
    // drift instead *dilutes* the carry: unseen triples contribute an
    // evidence-free mixture share, by design.)
    let drift = DeltaBatch {
        predicate: Some("atdate".into()),
        removes: (0..900).collect(),
        adds: (0..100).map(|k| k % 10 != 0).collect(),
    };
    let outcome = monitor.apply_deltas(&drift).expect("bulk delta");
    truth.apply(&drift.removes, &drift.adds).expect("twin");
    assert!(outcome.reopened, "bulk drift must re-open annotation");
    let report = monitor.report();
    let alarms: Vec<&str> = report
        .drift
        .iter()
        .filter(|r| r.alarm)
        .map(|r| r.predicate.as_str())
        .collect();
    println!(
        "bulk drift:         interval degraded, campaign re-opened (epoch {}, drift alarms: {alarms:?})",
        outcome.epoch
    );
    let carryover_spent = annotate(&mut monitor, &truth);
    println!(
        "carryover campaign: {} ({carryover_spent} annotations)",
        certificate(&monitor)
    );

    // --- the counterfactual: restart from scratch ------------------------
    // An auditor without the monitor's ledger re-certifies the drifted
    // view with a cold aHPD campaign.
    let scratch = evaluate(
        &truth,
        &OracleAnnotator,
        SamplingDesign::Srs,
        &method,
        &cfg,
        42, // seed: same seed, same audit
    )
    .expect("restart audit");
    println!(
        "restart (scratch):  μ̂ = {:.3}, CrI = {} ({} annotations)",
        scratch.mu_hat, scratch.interval, scratch.annotated_triples
    );
    println!(
        "\ncarryover recertified with {} labels vs {} from scratch — the \
         surviving posterior (capped at 50 pseudo-observations, hedged by \
         the uninformative priors) is what the monitor buys.",
        carryover_spent, scratch.annotated_triples
    );
}
