//! Construction latency of every interval method at a representative
//! annotation outcome (27/30 correct — a skewed, unimodal posterior; HPD
//! through its one solver, `hpd_interval_exact`),
//! the SRS aHPD certified-lookahead search at late-campaign NELL states
//! (over stopping-boundary tables the campaign settled, and over fresh
//! ones, as a configuration's first campaign meets them), and a
//! window's posterior mass in one pass
//! (`Beta::window_mass`) against two `cdf` calls on KG-like posteriors.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kgae_core::{
    AnnotationRequest, EvalConfig, EvaluationSession, IntervalMethod, PreparedDesign, SampleState,
    SamplingDesign,
};
use kgae_graph::{GroundTruth, KnowledgeGraph};
use kgae_intervals::{
    clopper_pearson, et_interval, hpd_interval_exact, wald_from_variance, wilson, BetaPrior,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::Cell;

fn bench_intervals(c: &mut Criterion) {
    let mut g = c.benchmark_group("interval_construction");
    g.sample_size(60);

    let (tau, n, alpha) = (27u64, 30u64, 0.05);
    let mu = tau as f64 / n as f64;
    let post = BetaPrior::KERMAN.posterior(tau, n);

    g.bench_function("wald", |b| {
        b.iter(|| {
            // The SRS plug-in: the binomial variance of the same counts.
            let (tau, n) = (black_box(tau) as f64, black_box(n) as f64);
            let mu = tau / n;
            wald_from_variance(mu, mu * (1.0 - mu) / n, alpha).unwrap()
        })
    });
    g.bench_function("wilson", |b| {
        b.iter(|| wilson(black_box(mu), black_box(n as f64), alpha).unwrap())
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

/// Triples of NELL an SRS sample `state` has not annotated yet.
fn left(state: &SampleState) -> u64 {
    static TRIPLES: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    TRIPLES.get_or_init(|| kgae_graph::datasets::nell().num_triples()) - state.n()
}

/// The sample state after every annotation of one SRS campaign on NELL.
fn campaign_states(method: &IntervalMethod, cfg: &EvalConfig, seed: u64) -> Vec<SampleState> {
    let kg = kgae_graph::datasets::nell();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
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
    states
}

/// The sample state at each lookahead round of one SRS aHPD campaign on
/// NELL, from the first round on: the state after every annotation of
/// the campaign, visited at the intervals the certified skips set.
fn lookahead_rounds(method: &IntervalMethod, cfg: &EvalConfig, seed: u64) -> Vec<SampleState> {
    let states = campaign_states(method, cfg, seed);
    let boundary = method.stopping_boundary(cfg.alpha, cfg.epsilon).unwrap();
    let mut rounds = Vec::new();
    let mut at = cfg.min_triples.saturating_sub(1) as usize;
    while at < states.len() {
        let skip = boundary.certified_skip(states[at].tau(), states[at].n(), left(&states[at]));
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
    let boundary = method.stopping_boundary(cfg.alpha, cfg.epsilon).unwrap();
    // Each ε one ulp past the last: a configuration no lookup has
    // settled yet.
    let fresh = Cell::new(cfg.epsilon);
    // The campaign's last four lookahead rounds, on the tables the
    // campaign settled and on fresh ones.
    for state in &rounds[rounds.len().saturating_sub(4)..] {
        let id = format!("tau{}_n{}", state.tau(), state.n());
        g.bench_function(&id, |b| {
            b.iter(|| {
                boundary.certified_skip(black_box(state.tau()), black_box(state.n()), left(state))
            })
        });
        g.bench_function(format!("{id}_fresh"), |b| {
            b.iter(|| {
                fresh.set(f64::from_bits(fresh.get().to_bits() + 1));
                let boundary = method.stopping_boundary(cfg.alpha, fresh.get()).unwrap();
                boundary.certified_skip(black_box(state.tau()), black_box(state.n()), left(state))
            })
        });
    }
    g.finish();
}

fn bench_window_mass(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_mass");
    g.sample_size(60);
    // Kerman posteriors at NELL-like accuracy, early and late in a
    // campaign, on their 95% HPD windows: where the stopping
    // certificate measures the mass.
    for (tau, n) in [(27u64, 30u64), (107, 120), (530, 600)] {
        let post = BetaPrior::KERMAN.posterior(tau, n);
        let hpd = hpd_interval_exact(&post, 0.05).unwrap();
        let (l, u) = (hpd.lower(), hpd.upper());
        let id = format!("tau{tau}_n{n}");
        g.bench_function(format!("{id}_one_pass"), |b| {
            b.iter(|| black_box(&post).window_mass(black_box(l), black_box(u)))
        });
        g.bench_function(format!("{id}_two_cdf"), |b| {
            b.iter(|| {
                let post = black_box(&post);
                post.cdf(black_box(u)) - post.cdf(black_box(l))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_intervals,
    bench_certified_skip_srs,
    bench_window_mass
);
criterion_main!(benches);
