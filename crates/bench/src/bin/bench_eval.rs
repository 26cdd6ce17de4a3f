//! Kernel-cache A/B: the shared posterior-kernel memo table on vs. off,
//! in the deployment shape the service uses (one cache shared by every
//! campaign of a tenant pool), on three cells of the NELL twins:
//!
//! * aHPD/SRS poll-driven sessions at batch 1 — one interval solve per
//!   annotation, the per-poll regime the cache targets;
//! * comparative campaigns (Wald/Wilson/ET/aHPD racing one SRS stream,
//!   primary aHPD) — several solves per annotation over a shared
//!   `(τ, n)` grid;
//! * stratified width-greedy campaigns on the NELL predicate twin at
//!   ε = 0.03 — low-variance strata retrace short posterior paths.
//!
//! Each cell runs 5 alternating off/on pairs. An arm is a warm-up
//! campaign followed by the seeded campaigns (seeds from `0xBE5C`), and
//! every on-arm starts from a fresh cache that all its campaigns share.
//! The cache memoizes exact solver outputs keyed by the full method
//! configuration, so every pair must stop bit-identically. The speed
//! gates are decided on the median per-pair speedup (off wall / on
//! wall): cache-on must beat cache-off in every cell, and by at least
//! 1.25× on aHPD/SRS. Every pair and the IQR of the speedups is
//! printed; the run exits non-zero naming each failing cell and gate.
//!
//! Only the speed ratio needs timing: the deterministic claims about
//! these campaigns (lookahead and batching equivalence, the stratified,
//! comparative and monitor savings) are workspace tests, and repeatable
//! throughput figures come from `perfbench`.
//!
//! Usage: `cargo run --release -p kgae-bench --bin bench_eval [-- --reps
//! N]` — N campaigns per aHPD/SRS arm (default 600) and N/10, clamped
//! to 10–80, per comparative and stratified arm.

use kgae_bench::reps_from_args;
use kgae_core::comparative::ComparativeSession;
use kgae_core::{
    AnnotationRequest, EvalConfig, EvaluationSession, IntervalMethod, PreparedDesign,
    SamplingDesign, StratifiedConfig, StratifiedSession,
};
use kgae_graph::GroundTruth;
use kgae_intervals::KernelCache;
use kgae_sampling::{AllocationPolicy, ComparePrimary};
use kgae_stats::descriptive::{median, percentile};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Times one arm: a warm-up campaign, then `reps` seeded campaigns.
fn time_arm<R>(reps: u64, base_seed: u64, run: impl Fn(u64) -> R) -> (f64, Vec<R>) {
    let _ = run(base_seed);
    let t0 = Instant::now();
    let results: Vec<R> = (0..reps)
        .map(|rep| run(base_seed.wrapping_add(rep)))
        .collect();
    (t0.elapsed().as_secs_f64(), results)
}

/// Runs one cell's 5 alternating off/on pairs and returns its failed
/// gates: bit-identity in any pair, then the median speedup against
/// cache-off and against the cell's `floor`.
fn ab_cell<R: PartialEq>(
    cell: &str,
    reps: u64,
    base_seed: u64,
    floor: Option<f64>,
    run: impl Fn(Option<&Arc<KernelCache>>, u64) -> R,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut speedups = Vec::new();
    for pair in 1..=5 {
        let (off_wall, off) = time_arm(reps, base_seed, |seed| run(None, seed));
        let cache = Arc::new(KernelCache::new());
        let (on_wall, on) = time_arm(reps, base_seed, |seed| run(Some(&cache), seed));
        let speedup = off_wall / on_wall;
        eprintln!(
            "kernel_cache {cell:<11} pair {pair}: off {:>7.1} ms, on {:>7.1} ms → {speedup:.2}× \
             (hit rate {:.1}%, identical stopping: {})",
            1e3 * off_wall,
            1e3 * on_wall,
            100.0 * cache.stats().hit_rate(),
            off == on,
        );
        if off != on {
            failures.push(format!(
                "{cell}: bit-identity — cached campaigns diverged from uncached in pair {pair}"
            ));
        }
        speedups.push(speedup);
    }
    let median_speedup = median(&speedups);
    let iqr = percentile(&speedups, 0.75) - percentile(&speedups, 0.25);
    eprintln!(
        "kernel_cache {cell:<11}: median speedup {median_speedup:.2}× (IQR {iqr:.2}) over \
         {} pairs of {reps} campaigns",
        speedups.len()
    );
    if median_speedup <= 1.0 {
        failures.push(format!(
            "{cell}: beats cache-off — median speedup {median_speedup:.2}× (IQR {iqr:.2})"
        ));
    }
    if let Some(floor) = floor.filter(|&floor| median_speedup < floor) {
        failures.push(format!(
            "{cell}: {floor}× floor — median speedup {median_speedup:.2}× (IQR {iqr:.2})"
        ));
    }
    failures
}

fn main() {
    let reps = reps_from_args(600);
    let small_reps = (reps / 10).clamp(10, 80);
    let base_seed = 0xBE5C_u64;
    let kg = kgae_graph::datasets::nell();
    let (pred_kg, pred_strat) = kgae_graph::datasets::nell_by_predicate();
    let ahpd = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared_srs = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let strat_cfg = StratifiedConfig {
        allocation: AllocationPolicy::WidthGreedy,
        epsilon: 0.03,
        ..StratifiedConfig::default()
    };

    let mut failures = ab_cell("aHPD/SRS", reps, base_seed, Some(1.25), |kernel, seed| {
        let mut session = EvaluationSession::from_prepared(
            &kg,
            &prepared_srs,
            &ahpd,
            &cfg,
            SmallRng::seed_from_u64(seed),
        );
        if let Some(kernel) = kernel {
            session.set_kernel_cache(Arc::clone(kernel));
        }
        let mut request = AnnotationRequest::default();
        let mut labels: Vec<bool> = Vec::new();
        while session
            .next_request_into(1, &mut request)
            .expect("session protocol")
        {
            labels.clear();
            labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
            session.submit(&labels).expect("label submission");
        }
        session.into_result().expect("stopped session has a result")
    });
    failures.extend(ab_cell(
        "comparative",
        small_reps,
        base_seed,
        None,
        |kernel, seed| {
            let mut session =
                ComparativeSession::new(&kg, &prepared_srs, ComparePrimary::AHpd, &cfg, seed);
            if let Some(kernel) = kernel {
                session.set_kernel_cache(kernel);
            }
            let mut labels = Vec::new();
            while let Some(request) = session.next_request(1).expect("comparative poll") {
                labels.clear();
                labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
                session.submit(&labels).expect("comparative submit");
            }
            session.into_result().expect("comparative result")
        },
    ));
    failures.extend(ab_cell(
        "stratified",
        small_reps,
        base_seed,
        None,
        |kernel, seed| {
            let mut session =
                StratifiedSession::new(&pred_kg, &pred_strat, &ahpd, &strat_cfg, seed);
            if let Some(kernel) = kernel {
                session.set_kernel_cache(kernel);
            }
            let mut labels = Vec::new();
            while let Some(req) = session.next_request(8).expect("stratified poll") {
                labels.clear();
                labels.extend(
                    req.request
                        .triples
                        .iter()
                        .map(|st| pred_kg.is_correct(st.triple)),
                );
                session.submit(&labels).expect("stratified submit");
            }
            session.into_result().expect("stratified result")
        },
    ));

    // CI gates on the exit code, so every failed gate exits non-zero.
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("bench_eval: FAILED: kernel_cache {failure}");
        }
        std::process::exit(1);
    }
}
