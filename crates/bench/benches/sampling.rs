//! Sampling-substrate throughput: SRS and TWCS units drawn through the
//! drivers sessions poll, and the PPS alias-table build, on a 1M-triple
//! SYN replica (50k clusters).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use kgae_sampling::{pps_by_size_table, DesignDriver, SrsDriver, TwcsDriver};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn bench_sampling(c: &mut Criterion) {
    let kg = kgae_graph::datasets::syn_scaled(1_015_000, 50_042, 0.9, 7);
    let table = Arc::new(pps_by_size_table(&kg));

    let mut g = c.benchmark_group("sampling");
    g.sample_size(30);

    g.throughput(Throughput::Elements(1_000));
    g.bench_function("srs_1000_draws", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            let mut d = SrsDriver::new(&kg);
            let (mut acc, mut unit) = (0u64, Vec::new());
            for _ in 0..1_000 {
                d.next_unit(&mut rng, &mut unit).unwrap();
                acc += unit[0].triple.index();
            }
            black_box(acc)
        })
    });

    g.throughput(Throughput::Elements(1_000));
    g.bench_function("twcs_1000_cluster_draws_m5", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut d = TwcsDriver::with_table(&kg, 5, Arc::clone(&table));
            let (mut acc, mut unit) = (0usize, Vec::new());
            for _ in 0..1_000 {
                d.next_unit(&mut rng, &mut unit).unwrap();
                acc += unit.len();
            }
            black_box(acc)
        })
    });

    g.throughput(Throughput::Elements(50_042));
    g.bench_function("alias_table_build_50k", |b| {
        b.iter(|| black_box(pps_by_size_table(&kg)))
    });
    g.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
