//! HPD solver comparison: cold SLSQP (paper's method, ET warm start)
//! vs warm-started SLSQP vs the exact solver (Newton on the best-window
//! width, every engine path's solver), across posterior shapes and
//! evidence sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kgae_intervals::{hpd_interval, hpd_interval_exact, hpd_interval_warm, BetaPrior};

fn bench_hpd(c: &mut Criterion) {
    let mut g = c.benchmark_group("hpd_solvers");
    g.sample_size(40);

    let cases = [
        ("skewed_n30", 27u64, 30u64),
        ("central_n30", 15, 30),
        ("skewed_n400", 360, 400),
        ("limiting_all_correct", 30, 30),
    ];
    for (name, tau, n) in cases {
        let post = BetaPrior::KERMAN.posterior(tau, n);
        g.bench_with_input(BenchmarkId::new("slsqp_cold", name), &post, |b, p| {
            b.iter(|| hpd_interval(black_box(p), 0.05).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("newton_exact", name), &post, |b, p| {
            b.iter(|| hpd_interval_exact(black_box(p), 0.05).unwrap())
        });
        let warm = hpd_interval(&post, 0.05).unwrap();
        let warm = Some((warm.lower(), warm.upper()));
        g.bench_with_input(BenchmarkId::new("slsqp_warm", name), &post, |b, p| {
            b.iter(|| hpd_interval_warm(black_box(p), 0.05, warm).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hpd);
criterion_main!(benches);
