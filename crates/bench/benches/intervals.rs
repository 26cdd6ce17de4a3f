//! Construction latency of every interval method at a representative
//! annotation outcome (27/30 correct — a skewed, unimodal posterior).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgae_intervals::{
    agresti_coull, clopper_pearson, et_interval, hpd_interval, hpd_interval_exact, wald_srs,
    wilson, BetaPrior,
};

fn bench_intervals(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_construction");
    g.sample_size(60);

    let (tau, n, alpha) = (27u64, 30u64, 0.05);
    let mu = tau as f64 / n as f64;
    let post = BetaPrior::KERMAN.posterior(tau, n);

    g.bench_function("wald", |b| {
        b.iter(|| wald_srs(black_box(tau), black_box(n), alpha).unwrap())
    });
    g.bench_function("wilson", |b| {
        b.iter(|| wilson(black_box(mu), black_box(n as f64), alpha).unwrap())
    });
    g.bench_function("agresti_coull", |b| {
        b.iter(|| agresti_coull(black_box(tau as f64), black_box(n as f64), alpha).unwrap())
    });
    g.bench_function("clopper_pearson", |b| {
        b.iter(|| clopper_pearson(black_box(tau), black_box(n), alpha).unwrap())
    });
    g.bench_function("et", |b| {
        b.iter(|| et_interval(black_box(&post), alpha).unwrap())
    });
    g.bench_function("hpd_slsqp", |b| {
        b.iter(|| hpd_interval(black_box(&post), alpha).unwrap())
    });
    g.bench_function("hpd_exact", |b| {
        b.iter(|| hpd_interval_exact(black_box(&post), alpha).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_intervals);
criterion_main!(benches);
