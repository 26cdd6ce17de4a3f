//! The defining contract of the shared posterior-kernel cache: it is a
//! cost lever, never a semantics lever. A campaign driven with a
//! [`KernelCache`] attached — cold, warm, or shared with concurrent
//! campaigns — must match the uncached run *bit for bit*: the same
//! per-poll status trajectory, the same snapshot bytes at every
//! suspension point, and the same final result. The cache memoizes
//! exact solver outputs keyed by the full method configuration, so a
//! hit returns the identical f64 bits a fresh solve would produce;
//! these tests pin that claim across all four engine kinds.
//!
//! A final stress property shares one cache between N threads driving
//! interleaved campaigns and checks every result against an
//! isolated-cache baseline, plus the counter invariant
//! `hits + misses == lookups`.

use kgae_core::comparative::ComparativeSession;
use kgae_core::{
    AnnotationRequest, ComparativeResult, ComparativeStatus, DeltaBatch, EvalConfig, EvalResult,
    EvaluationSession, IntervalMethod, MonitorReport, MonitorSession, PreparedDesign,
    SamplingDesign, SessionEngine, SessionStatus, StratifiedConfig, StratifiedResult,
    StratifiedSession, StratifiedStatus,
};
use kgae_graph::{CompactKg, DeltaKg, GroundTruth};
use kgae_intervals::{BetaPrior, KernelCache};
use kgae_sampling::ComparePrimary;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn dataset(name: &str) -> CompactKg {
    match name {
        "yago" => kgae_graph::datasets::yago(),
        "factbench" => kgae_graph::datasets::factbench(),
        _ => kgae_graph::datasets::nell(),
    }
}

/// Drives a plain session to completion, recording the status after
/// every submitted batch and the snapshot bytes at every third one.
fn drive_plain(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    batch: u64,
    kernel: Option<&Arc<KernelCache>>,
) -> (Vec<SessionStatus>, Vec<Vec<u8>>, EvalResult) {
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    if let Some(kernel) = kernel {
        session.set_kernel_cache(Arc::clone(kernel));
    }
    let mut request = AnnotationRequest::default();
    let mut labels = Vec::new();
    let mut statuses = Vec::new();
    let mut snapshots = Vec::new();
    let mut batches = 0u64;
    while session.next_request_into(batch, &mut request).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
        statuses.push(session.status());
        batches += 1;
        if batches.is_multiple_of(3) && session.stop_reason().is_none() {
            snapshots.push(session.snapshot().unwrap());
        }
    }
    (
        statuses,
        snapshots,
        session.into_result().expect("stopped session has a result"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold pass, then a warm pass over the same memo table (all hits):
    /// both must equal the uncached run in statuses, snapshot bytes and
    /// final result, across designs, methods, datasets and seeds.
    #[test]
    fn cached_campaigns_are_bit_identical_to_uncached(
        ds in prop_oneof![Just("nell"), Just("yago"), Just("factbench")],
        design in prop_oneof![Just(SamplingDesign::Srs), Just(SamplingDesign::Twcs { m: 3 })],
        method in prop_oneof![
            Just(IntervalMethod::ahpd_default()),
            Just(IntervalMethod::Hpd(BetaPrior::KERMAN)),
            Just(IntervalMethod::Et(BetaPrior::JEFFREYS)),
            Just(IntervalMethod::Wilson),
        ],
        seed in 0u64..5_000,
        batch in prop_oneof![Just(1u64), Just(16)],
    ) {
        let kg = dataset(ds);
        let cfg = EvalConfig::default();
        let prepared = PreparedDesign::new(&kg, design);
        let uncached = drive_plain(&kg, &prepared, &method, &cfg, seed, batch, None);
        let cache = Arc::new(KernelCache::new());
        let cold = drive_plain(&kg, &prepared, &method, &cfg, seed, batch, Some(&cache));
        let warm = drive_plain(&kg, &prepared, &method, &cfg, seed, batch, Some(&cache));
        prop_assert_eq!(&uncached, &cold, "cold cache diverged");
        prop_assert_eq!(&uncached, &warm, "warm cache diverged");
    }
}

fn drive_stratified(
    kg: &CompactKg,
    strat: &kgae_graph::Stratification,
    method: &IntervalMethod,
    cfg: &StratifiedConfig,
    seed: u64,
    kernel: Option<&Arc<KernelCache>>,
) -> (Vec<StratifiedStatus>, Vec<Vec<u8>>, StratifiedResult) {
    let mut session = StratifiedSession::new(kg, strat, method, cfg, seed);
    if let Some(kernel) = kernel {
        session.set_kernel_cache(kernel);
    }
    let mut labels = Vec::new();
    let mut statuses = Vec::new();
    let mut snapshots = Vec::new();
    let mut batches = 0u64;
    while let Some(req) = session.next_request(8).unwrap() {
        labels.clear();
        labels.extend(
            req.request
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple)),
        );
        session.submit(&labels).unwrap();
        statuses.push(session.status());
        batches += 1;
        // A stopped campaign refuses to snapshot; both arms stop at
        // the same batch, so the guard is symmetric.
        if batches.is_multiple_of(3) {
            if let Ok(bytes) = session.snapshot() {
                snapshots.push(bytes);
            }
        }
    }
    (
        statuses,
        snapshots,
        session.into_result().expect("stratified result"),
    )
}

#[test]
fn stratified_campaigns_match_with_shared_cache() {
    let (kg, strat) = kgae_graph::datasets::nell_by_predicate();
    let method = IntervalMethod::ahpd_default();
    let cfg = StratifiedConfig::default();
    // One cache across all seeds — later campaigns run warm, matching
    // how the service shares a single cache across every tenant.
    let cache = Arc::new(KernelCache::new());
    for seed in 0..6 {
        let uncached = drive_stratified(&kg, &strat, &method, &cfg, seed, None);
        let cached = drive_stratified(&kg, &strat, &method, &cfg, seed, Some(&cache));
        assert_eq!(uncached, cached, "seed {seed}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared cache never hit: {stats:?}");
}

fn drive_comparative(
    kg: &CompactKg,
    prepared: &PreparedDesign,
    cfg: &EvalConfig,
    seed: u64,
    kernel: Option<&Arc<KernelCache>>,
) -> (Vec<ComparativeStatus>, Vec<Vec<u8>>, ComparativeResult) {
    let mut session = ComparativeSession::new(kg, prepared, ComparePrimary::AHpd, cfg, seed);
    if let Some(kernel) = kernel {
        session.set_kernel_cache(kernel);
    }
    let mut labels = Vec::new();
    let mut statuses = Vec::new();
    let mut snapshots = Vec::new();
    let mut batches = 0u64;
    while let Some(request) = session.next_request(4).unwrap() {
        labels.clear();
        labels.extend(request.triples.iter().map(|st| kg.is_correct(st.triple)));
        session.submit(&labels).unwrap();
        statuses.push(session.status());
        batches += 1;
        // A stopped campaign refuses to snapshot; both arms stop at
        // the same batch, so the guard is symmetric.
        if batches.is_multiple_of(3) {
            if let Ok(bytes) = session.snapshot() {
                snapshots.push(bytes);
            }
        }
    }
    (
        statuses,
        snapshots,
        session.into_result().expect("comparative result"),
    )
}

#[test]
fn comparative_campaigns_match_with_shared_cache() {
    let kg = kgae_graph::datasets::nell();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    let cfg = EvalConfig::default();
    let cache = Arc::new(KernelCache::new());
    for seed in 0..6 {
        let uncached = drive_comparative(&kg, &prepared, &cfg, seed, None);
        let cached = drive_comparative(&kg, &prepared, &cfg, seed, Some(&cache));
        assert_eq!(uncached, cached, "seed {seed}");
    }
    let stats = cache.stats();
    assert!(stats.hits > 0, "shared cache never hit: {stats:?}");
}

/// Certify, absorb a removal-heavy drift, re-certify from carryover —
/// the cache must survive the campaign teardown/reopen (the monitor
/// re-attaches it to every new inner campaign) without changing a bit.
fn drive_monitor_with_drift(
    kg: &CompactKg,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
    kernel: Option<&Arc<KernelCache>>,
) -> (Vec<MonitorReport>, Vec<Vec<u8>>, MonitorReport) {
    let mut truth = DeltaKg::with_truth(kg, kg);
    let mut monitor = MonitorSession::new(kg, method, cfg, 50.0, seed);
    if let Some(kernel) = kernel {
        monitor.set_kernel_cache(Arc::clone(kernel));
    }
    let mut reports = Vec::new();
    let mut snapshots = Vec::new();
    let drive = |monitor: &mut MonitorSession<'_>,
                 truth: &DeltaKg<'_>,
                 reports: &mut Vec<MonitorReport>,
                 snapshots: &mut Vec<Vec<u8>>| {
        while let Some(polled) = monitor.next_request(16).unwrap() {
            let labels: Vec<bool> = polled
                .request
                .triples
                .iter()
                .map(|st| truth.is_correct(st.triple))
                .collect();
            monitor.submit(&labels).unwrap();
            reports.push(monitor.report());
            snapshots.push(monitor.snapshot().unwrap());
        }
    };
    drive(&mut monitor, &truth, &mut reports, &mut snapshots);
    let drift = DeltaBatch {
        predicate: Some("drift".into()),
        removes: (0..1100).collect(),
        adds: (0..20).map(|k| k % 10 != 0).collect(),
    };
    monitor.apply_deltas(&drift).unwrap();
    truth.apply(&drift.removes, &drift.adds).unwrap();
    drive(&mut monitor, &truth, &mut reports, &mut snapshots);
    assert!(monitor.watching(), "seed {seed}: monitor must re-certify");
    (reports, snapshots, monitor.report())
}

#[test]
fn monitor_campaigns_match_with_shared_cache_across_reopen() {
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let cache = Arc::new(KernelCache::new());
    for seed in 0..4 {
        let uncached = drive_monitor_with_drift(&kg, &method, &cfg, seed, None);
        let cached = drive_monitor_with_drift(&kg, &method, &cfg, seed, Some(&cache));
        assert_eq!(uncached, cached, "seed {seed}");
    }
    // A replayed seed asks for exactly the interval solves its first
    // cached run stored, across the reopen too: the shared cache must
    // answer every one of them.
    let before = cache.stats();
    let replayed = drive_monitor_with_drift(&kg, &method, &cfg, 0, Some(&cache));
    let after = cache.stats();
    assert_eq!(
        replayed,
        drive_monitor_with_drift(&kg, &method, &cfg, 0, None),
        "replay diverged"
    );
    assert!(after.hits > before.hits, "replay never hit: {after:?}");
    assert_eq!(
        after.misses, before.misses,
        "replay missed the warm cache: {before:?} then {after:?}"
    );
}

#[test]
fn concurrent_campaigns_on_one_shared_cache_match_isolated_runs() {
    let kg = kgae_graph::datasets::nell();
    let method = IntervalMethod::ahpd_default();
    let cfg = EvalConfig::default();
    let prepared = PreparedDesign::new(&kg, SamplingDesign::Srs);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 6;

    // Baseline: every campaign with its own private cache — racing
    // inserts and shard evictions from other campaigns cannot help.
    let mut baseline = Vec::new();
    for seed in 0..THREADS * PER_THREAD {
        let solo = Arc::new(KernelCache::new());
        baseline.push(drive_plain(&kg, &prepared, &method, &cfg, seed, 16, Some(&solo)).2);
    }

    let shared = Arc::new(KernelCache::new());
    let results: Vec<(u64, EvalResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, kg, prepared, method, cfg) = (&shared, &kg, &prepared, &method, &cfg);
                scope.spawn(move || {
                    (0..PER_THREAD)
                        .map(|i| {
                            let seed = t * PER_THREAD + i;
                            let run =
                                drive_plain(kg, prepared, method, cfg, seed, 16, Some(shared));
                            (seed, run.2)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results.len() as u64, THREADS * PER_THREAD);
    for (seed, result) in &results {
        assert_eq!(&baseline[*seed as usize], result, "seed {seed}");
    }
    let stats = shared.stats();
    assert_eq!(
        stats.hits + stats.misses,
        stats.lookups(),
        "lookup counters must reconcile: {stats:?}"
    );
    assert!(stats.hits > 0, "shared cache never hit: {stats:?}");
}
