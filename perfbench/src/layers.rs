//! Inner-layer replays for the traced run. The campaigns record the
//! `(τ, n)` posterior states, the draws and the labels they went
//! through; each inner layer's public functions are then timed, called
//! from outside, at exactly those inputs.

use crate::{median, time_per_call, Outcome};
use kgae_core::{AnnotationRequest, CostModel, CostTracker, DesignKind, SampleState};
use kgae_graph::CompactKg;
use kgae_intervals::{
    et_interval, hpd_interval, hpd_interval_exact, hpd_interval_warm, hpd_width_achievable,
    wald_from_variance, wilson, z_critical, BetaPrior, Kernel, KernelCache,
};
use kgae_sampling::{DesignDriver, SampledTriple, SrsDriver, TwcsDriver};
use kgae_stats::special::{betainc, betainc_inv, erfc_inv, ln_gamma};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Cap on each recorded input stream.
const RECORD_CAP: usize = 200_000;
/// Inputs each replay cycles through.
const REPLAY_INPUTS: usize = 2_048;
/// Rounds per replay; the reported figure is the median round.
const ROUNDS: usize = 9;

/// Inputs recorded by traced campaigns.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorded {
    /// `(τ, n)` after each SRS submit, in campaign order.
    pub srs_states: Vec<(u64, u64)>,
    /// The triples labeled, in order.
    pub draws: Vec<SampledTriple>,
    /// The labels, in order.
    pub labels: Vec<bool>,
}

impl Recorded {
    /// Records one absorbed request.
    pub fn observe(&mut self, request: &AnnotationRequest, labels: &[bool], state: &SampleState) {
        if self.draws.len() < RECORD_CAP {
            self.draws.extend_from_slice(&request.triples);
            self.labels.extend_from_slice(labels);
        }
        if state.kind() == DesignKind::Srs && state.n() > 0 && self.srs_states.len() < RECORD_CAP {
            self.srs_states.push((state.tau(), state.n()));
        }
    }
}

/// Evenly spaced runs of consecutive states (so warm starts see their
/// real predecessor), at most [`REPLAY_INPUTS`] in total.
fn sample_states(states: &[(u64, u64)]) -> Vec<(u64, u64)> {
    if states.len() <= REPLAY_INPUTS {
        return states.to_vec();
    }
    let stride = states.len() / REPLAY_INPUTS;
    (0..REPLAY_INPUTS).map(|i| states[i * stride]).collect()
}

const PRIORS: [BetaPrior; 3] = BetaPrior::UNINFORMATIVE;

/// Times the `stats`, `intervals`, `sampling` and `core` cost/state
/// layers at the recorded inputs and appends their per-call figures.
pub fn replay_inner(kg: &CompactKg, rec: &Recorded, alpha: f64, epsilon: f64, out: &mut Outcome) {
    let states = sample_states(&rec.srs_states);
    assert!(
        !states.is_empty(),
        "traced campaigns recorded no SRS states"
    );
    let k = states.len();
    let post = |i: usize| {
        let (tau, n) = states[i % k];
        PRIORS[i % 3].posterior(tau, n)
    };
    let posts: Vec<_> = (0..k).map(post).collect();
    let per = |i: usize| &posts[i % k];

    // stats.special, at the posterior shapes the campaigns reached.
    out.push(
        "stats.special.erfc_inv.ns_per_call",
        time_per_call(ROUNDS, k, |_| {
            black_box(erfc_inv(black_box(alpha)));
        }),
        "ns",
    );
    out.push(
        "stats.special.betainc.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            let p = per(i);
            let (tau, n) = states[i % k];
            let x = (tau as f64 / n as f64).clamp(0.01, 0.99);
            black_box(betainc(p.alpha(), p.beta(), black_box(x)).ok());
        }),
        "ns",
    );
    out.push(
        "stats.special.betainc_inv.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            let p = per(i);
            black_box(betainc_inv(p.alpha(), p.beta(), black_box(alpha / 2.0)).ok());
        }),
        "ns",
    );
    out.push(
        "stats.special.ln_gamma.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(ln_gamma(black_box(per(i).alpha())));
        }),
        "ns",
    );

    // intervals.frequentist
    out.push(
        "intervals.frequentist.z_critical.ns_per_call",
        time_per_call(ROUNDS, k, |_| {
            black_box(z_critical(black_box(alpha)));
        }),
        "ns",
    );
    out.push(
        "intervals.frequentist.wald.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            let (tau, n) = states[i % k];
            let mu = tau as f64 / n as f64;
            black_box(wald_from_variance(mu, mu * (1.0 - mu) / n as f64, alpha).ok());
        }),
        "ns",
    );
    out.push(
        "intervals.frequentist.wilson.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            let (tau, n) = states[i % k];
            black_box(wilson(tau as f64 / n as f64, n as f64, alpha).ok());
        }),
        "ns",
    );

    // intervals.hpd / intervals.et. Warm starts come from the exact
    // interval of the preceding recorded state under the same prior.
    let warm: Vec<Option<(f64, f64)>> = (0..k)
        .map(|i| {
            let prev = if i >= 3 { i - 3 } else { i };
            hpd_interval_exact(per(prev), alpha)
                .ok()
                .map(|iv| (iv.lower(), iv.upper()))
        })
        .collect();
    out.push(
        "intervals.hpd.exact.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(hpd_interval_exact(per(i), alpha).ok());
        }),
        "ns",
    );
    out.push(
        "intervals.hpd.warm.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(hpd_interval_warm(per(i), alpha, warm[i % k]).ok());
        }),
        "ns",
    );
    out.push(
        "intervals.hpd.cold.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(hpd_interval(per(i), alpha).ok());
        }),
        "ns",
    );
    out.push(
        "intervals.hpd.achievable.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(hpd_width_achievable(per(i), alpha, 2.0 * epsilon));
        }),
        "ns",
    );
    out.push(
        "intervals.et.ns_per_call",
        time_per_call(ROUNDS, k, |i| {
            black_box(et_interval(per(i), alpha).ok());
        }),
        "ns",
    );

    // intervals.kernel: a miss solves and inserts, a hit reads back.
    let mut keys: Vec<(usize, u64, u64)> = (0..k)
        .map(|i| (i % 3, states[i % k].0, states[i % k].1))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let cache = KernelCache::new();
        let kernel = Kernel::new(Some(&cache));
        let t0 = Instant::now();
        for &(p, tau, n) in &keys {
            black_box(kernel.hpd(&PRIORS[p], tau, n, alpha).ok());
        }
        miss.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
        let t0 = Instant::now();
        for &(p, tau, n) in &keys {
            black_box(kernel.hpd(&PRIORS[p], tau, n, alpha).ok());
        }
        hit.push(t0.elapsed().as_nanos() as f64 / keys.len() as f64);
    }
    out.push("intervals.kernel.hit_ns", median(&hit), "ns");
    out.push("intervals.kernel.miss_ns", median(&miss), "ns");

    // sampling.driver: SRS without replacement exhausts the KG, so each
    // round draws well under its size from a fresh driver.
    let units = 1_000usize;
    let mut buf = Vec::with_capacity(4);
    let mut srs = Vec::new();
    let mut twcs = Vec::new();
    let mut twcs_driver = TwcsDriver::new(kg, 3);
    for r in 0..ROUNDS {
        let mut rng = SmallRng::seed_from_u64(r as u64);
        let mut driver = SrsDriver::new(kg);
        let t0 = Instant::now();
        for _ in 0..units {
            black_box(driver.next_unit(&mut rng, &mut buf));
        }
        srs.push(t0.elapsed().as_nanos() as f64 / units as f64);
        let t0 = Instant::now();
        for _ in 0..units {
            black_box(twcs_driver.next_unit(&mut rng, &mut buf));
        }
        twcs.push(t0.elapsed().as_nanos() as f64 / units as f64);
    }
    out.push("sampling.driver.srs.ns_per_unit", median(&srs), "ns");
    out.push("sampling.driver.twcs.ns_per_unit", median(&twcs), "ns");

    // core.cost / core.state at the recorded draws and labels.
    let draws = &rec.draws[..rec.draws.len().min(50_000)];
    let labels = &rec.labels[..rec.labels.len().min(50_000)];
    let (mut cost, mut state) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let mut tracker = CostTracker::new(CostModel::PAPER);
        let t0 = Instant::now();
        for d in draws {
            black_box(tracker.record(d.triple, d.cluster));
        }
        cost.push(t0.elapsed().as_nanos() as f64 / draws.len().max(1) as f64);
        let mut s = SampleState::new_srs();
        let t0 = Instant::now();
        for &l in labels {
            s.record_triple(black_box(l));
        }
        black_box(s.n());
        state.push(t0.elapsed().as_nanos() as f64 / labels.len().max(1) as f64);
    }
    out.push("core.cost.record.ns_per_call", median(&cost), "ns");
    out.push("core.state.record.ns_per_call", median(&state), "ns");
}
