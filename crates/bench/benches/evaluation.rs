//! End-to-end evaluation runs (Figure 1 loop until MoE ≤ ε) per interval
//! method on the NELL twin — the per-repetition cost behind every table.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgae_core::{
    evaluate_prepared, EvalConfig, IntervalMethod, OracleAnnotator, PreparedDesign, SamplingDesign,
};

fn bench_evaluation(c: &mut Criterion) {
    let kg = kgae_graph::datasets::nell();
    let cfg = EvalConfig::default();
    let srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let twcs = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });

    let mut g = c.benchmark_group("end_to_end_evaluation_nell");
    g.sample_size(20);

    for (label, method) in [
        ("wald", IntervalMethod::Wald),
        ("wilson", IntervalMethod::Wilson),
        ("ahpd", IntervalMethod::ahpd_default()),
    ] {
        g.bench_function(format!("srs_{label}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    evaluate_prepared(&kg, &OracleAnnotator, &srs, &method, &cfg, seed).unwrap(),
                )
            })
        });
        g.bench_function(format!("twcs_{label}"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(
                    evaluate_prepared(&kg, &OracleAnnotator, &twcs, &method, &cfg, seed).unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_evaluation);
criterion_main!(benches);
