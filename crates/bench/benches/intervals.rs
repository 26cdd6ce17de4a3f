//! Construction latency of every interval method at a representative
//! annotation outcome (27/30 correct — a skewed, unimodal posterior; HPD
//! through its one solver, `hpd_interval_exact`),
//! the SRS aHPD certified-lookahead search at late-campaign NELL states,
//! and the TWCS(3) aHPD lookahead search at early-campaign NELL states
//! that certify a skip.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgae_core::{
    AnnotationRequest, EvalConfig, EvaluationSession, IntervalMethod, PreparedDesign, SampleState,
    SamplingDesign,
};
use kgae_graph::GroundTruth;
use kgae_intervals::{
    agresti_coull, clopper_pearson, et_interval, hpd_interval_exact, wald_srs, wilson, BetaPrior,
    Kernel,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

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
    g.bench_function("hpd_exact", |b| {
        b.iter(|| hpd_interval_exact(black_box(&post), alpha).unwrap())
    });
    g.finish();
}

/// The sample state after every annotation unit of one aHPD campaign on
/// NELL under `design`, and the design's largest unit.
fn campaign_states(
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
) -> (Vec<SampleState>, u64) {
    let kg = kgae_graph::datasets::nell();
    let prepared = PreparedDesign::new(&kg, design);
    let mut session = EvaluationSession::from_prepared(
        &kg,
        &prepared,
        method,
        cfg,
        SmallRng::seed_from_u64(seed),
    );
    let mut request = AnnotationRequest::default();
    let mut states = Vec::new();
    while session.next_request_into(1, &mut request).unwrap() {
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|t| kg.is_correct(t.triple))
            .collect();
        session.submit(&labels).unwrap();
        states.push(session.sample_state().clone());
    }
    (states, prepared.max_draw_size())
}

/// The sample state at each lookahead round of one SRS aHPD campaign on
/// NELL, from the first round on: the state after every annotation of
/// the campaign, visited at the intervals the certified skips set.
fn lookahead_rounds(method: &IntervalMethod, cfg: &EvalConfig, seed: u64) -> Vec<SampleState> {
    let (states, _) = campaign_states(SamplingDesign::Srs, method, cfg, seed);
    let mut rounds = Vec::new();
    let mut at = cfg.min_triples.saturating_sub(1) as usize;
    while at < states.len() {
        let skip =
            method.certified_skip_srs(&states[at], cfg.alpha, cfg.epsilon, Kernel::new(None));
        rounds.push(states[at].clone());
        at += skip as usize + 1;
    }
    rounds
}

fn bench_certified_skip_srs(c: &mut Criterion) {
    let mut g = c.benchmark_group("certified_skip_srs");
    g.sample_size(60);
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let rounds = lookahead_rounds(&method, &cfg, 7);
    // The campaign's last four lookahead rounds.
    for state in &rounds[rounds.len().saturating_sub(4)..] {
        let id = format!("tau{}_n{}", state.tau(), state.n());
        g.bench_function(id, |b| {
            b.iter(|| {
                method.certified_skip_srs(
                    black_box(state),
                    cfg.alpha,
                    cfg.epsilon,
                    Kernel::new(None),
                )
            })
        });
    }
    g.finish();
}

fn bench_certified_skip_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("certified_skip_cluster");
    g.sample_size(60);
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let (states, max_draw_size) = campaign_states(SamplingDesign::Twcs { m: 3 }, &method, &cfg, 7);
    let skip = |state: &SampleState| {
        method.certified_skip_cluster(state, cfg.alpha, cfg.epsilon, max_draw_size, false)
    };
    // The campaign's first lookahead rounds that certify a skip, visited
    // at the intervals the skips set from the first draw the stopping
    // rule is consulted at.
    let mut at = states
        .iter()
        .position(|s| s.n() >= cfg.min_triples && s.draws() >= cfg.min_draws)
        .unwrap_or(states.len());
    let mut rounds = Vec::new();
    while at < states.len() && rounds.len() < 4 {
        let s = skip(&states[at]);
        if s > 0 {
            rounds.push(&states[at]);
        }
        at += s as usize + 1;
    }
    for state in rounds {
        let id = format!("draws{}_n{}", state.draws(), state.n());
        g.bench_function(id, |b| b.iter(|| skip(black_box(state))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_intervals,
    bench_certified_skip_srs,
    bench_certified_skip_cluster
);
criterion_main!(benches);
