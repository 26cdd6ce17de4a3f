//! Registry-dispatched suspend/resume across every engine kind: for
//! plain × stratified × comparative engines — driven purely through the
//! object-safe `dyn SessionEngine` interface — a snapshot resumed via
//! the tag registry ([`EngineSpec::resume`]) re-snapshots to the
//! **identical bytes**, across seeds × datasets × batch sizes, and the
//! resumed engine finishes bit-identically to the uninterrupted one.

use kgae_core::engine::{
    peek_any_header, snapshot_engine_kind, EngineKind, EngineSpec, SessionEngine,
};
use kgae_core::{
    DeltaBatch, EvalConfig, EvalResult, IntervalMethod, MonitorReport, PreparedDesign,
    SamplingDesign, SessionError, StratifiedConfig,
};
use kgae_graph::stratify::Stratification;
use kgae_graph::{CompactKg, DeltaKg, GroundTruth, KnowledgeGraph};
use kgae_sampling::ComparePrimary;
use proptest::prelude::*;

/// Which engine kind a generated case exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PlainSrs,
    PlainTwcs,
    Stratified,
    Comparative,
}

fn kinds() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::PlainSrs),
        Just(Kind::PlainTwcs),
        Just(Kind::Stratified),
        Just(Kind::Comparative),
    ]
}

fn datasets() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("nell"), Just("dbpedia"), Just("factbench")]
}

fn dataset(name: &str) -> CompactKg {
    match name {
        "nell" => kgae_graph::datasets::nell(),
        "dbpedia" => kgae_graph::datasets::dbpedia(),
        _ => kgae_graph::datasets::factbench(),
    }
}

/// Everything a case's `EngineSpec` borrows, built once per case.
struct Resources {
    kg: CompactKg,
    prepared: PreparedDesign,
    stratification: Stratification,
    method: IntervalMethod,
    eval_cfg: EvalConfig,
    strat_cfg: StratifiedConfig,
}

impl Resources {
    fn new(kind: Kind, ds: &str) -> Self {
        let kg = dataset(ds);
        let design = match kind {
            Kind::PlainTwcs => SamplingDesign::Twcs { m: 3 },
            _ => SamplingDesign::Srs,
        };
        let prepared = PreparedDesign::new(&kg, design);
        let stratification = Stratification::by_hash(&kg, 4, 1);
        Self {
            kg,
            prepared,
            stratification,
            method: IntervalMethod::ahpd_default(),
            eval_cfg: EvalConfig::default(),
            strat_cfg: StratifiedConfig::default(),
        }
    }

    fn spec(&self, kind: Kind, seed: u64) -> EngineSpec<'_, '_> {
        match kind {
            Kind::PlainSrs | Kind::PlainTwcs => EngineSpec::Plain {
                kg: &self.kg,
                prepared: &self.prepared,
                method: &self.method,
                config: &self.eval_cfg,
                seed,
            },
            Kind::Stratified => EngineSpec::Stratified {
                kg: &self.kg,
                stratification: &self.stratification,
                method: &self.method,
                config: &self.strat_cfg,
                seed,
            },
            Kind::Comparative => EngineSpec::Comparative {
                kg: &self.kg,
                prepared: &self.prepared,
                primary: ComparePrimary::AHpd,
                config: &self.eval_cfg,
                seed,
            },
        }
    }
}

/// Drives any engine with oracle labels for up to `batches` polls;
/// returns false once the engine stops.
fn drive(kg: &CompactKg, engine: &mut dyn SessionEngine, batches: u64, batch: u64) -> bool {
    let mut labels = Vec::new();
    for _ in 0..batches {
        let Some(polled) = engine.next_request(batch).unwrap() else {
            return false;
        };
        labels.clear();
        labels.extend(
            polled
                .request
                .triples
                .iter()
                .map(|st| kg.is_correct(st.triple)),
        );
        engine.submit(&labels).unwrap();
    }
    true
}

/// Drives an engine to completion, returning its headline result.
fn finish(kg: &CompactKg, mut engine: Box<dyn SessionEngine + '_>) -> EvalResult {
    while drive(kg, engine.as_mut(), u64::MAX, 16) {}
    engine.into_outcome().expect("engine stopped").result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_resume_via_registry_is_byte_identical_for_every_engine_kind(
        kind in kinds(),
        ds in datasets(),
        seed in 0u64..10_000,
        batch in prop_oneof![Just(1u64), Just(7), Just(32)],
        warmup in 1u64..6,
    ) {
        let resources = Resources::new(kind, ds);
        let spec = resources.spec(kind, seed);
        let mut engine = spec.build();
        if !drive(&resources.kg, engine.as_mut(), warmup, batch)
            || engine.stop_reason().is_some()
        {
            // Converged inside the warm-up (possible on easy datasets):
            // nothing left to suspend, the case is vacuous.
            return Ok(());
        }

        // snapshot → resume-via-registry → snapshot: byte-identical,
        // entirely through the dyn interface.
        let snap = engine.snapshot().unwrap();
        prop_assert_eq!(snapshot_engine_kind(&snap).unwrap(), spec.kind());
        prop_assert_eq!(peek_any_header(&snap).unwrap().kind(), spec.kind());
        let resumed = spec.resume(&snap).unwrap();
        prop_assert_eq!(resumed.snapshot().unwrap(), snap.clone());

        // And the resumed engine finishes bit-identically to the
        // uninterrupted one.
        let interrupted = finish(&resources.kg, resumed);
        let straight = finish(&resources.kg, engine);
        prop_assert_eq!(interrupted, straight);
    }
}

/// Drives a monitor engine with oracle labels from the truth twin for
/// up to `batches` polls; returns false once the monitor reports no
/// work (it is watching — monitors never stop).
fn drive_monitor(
    truth: &DeltaKg<'_>,
    engine: &mut dyn SessionEngine,
    batches: u64,
    batch: u64,
) -> bool {
    let mut labels = Vec::new();
    for _ in 0..batches {
        let Some(polled) = engine.next_request(batch).unwrap() else {
            return false;
        };
        labels.clear();
        labels.extend(
            polled
                .request
                .triples
                .iter()
                .map(|st| truth.is_correct(st.triple)),
        );
        engine.submit(&labels).unwrap();
    }
    true
}

/// (estimate bits, interval bits, observations, triples, entities, report).
type MonitorFingerprint = (
    Option<u64>,
    Option<(u64, u64)>,
    u64,
    u64,
    u64,
    Option<MonitorReport>,
);

/// Bit-level identity of a monitor's full status view.
fn monitor_fingerprint(engine: &dyn SessionEngine) -> MonitorFingerprint {
    let view = engine.status();
    (
        view.primary.estimate.map(f64::to_bits),
        view.primary
            .interval
            .map(|i| (i.lower().to_bits(), i.upper().to_bits())),
        view.primary.observations,
        view.primary.annotated_triples,
        view.primary.cost_seconds.to_bits(),
        view.monitor,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tag-6 (monitor) suspend/resume through the registry: snapshot →
    /// resume-via-registry → snapshot is byte-identical while the
    /// initial campaign is open, while watching, and **mid-delta** —
    /// after a degrading batch has re-opened annotation — and the
    /// interrupted line converges to a bit-identical watching state.
    /// Oracle labels for the re-opened campaign come from a truth twin:
    /// a `DeltaKg::with_truth` overlay fed the same batches, so view
    /// ids resolve identically to the monitor's internal view.
    #[test]
    fn monitor_snapshots_resume_via_registry_byte_identically(
        ds in datasets(),
        seed in 0u64..10_000,
        batch in prop_oneof![Just(1u64), Just(7), Just(32)],
        warmup in 1u64..6,
        churn in 1u64..4,
    ) {
        let kg = dataset(ds);
        let method = IntervalMethod::ahpd_default();
        let cfg = EvalConfig::default();
        let spec = EngineSpec::Monitor {
            kg: &kg,
            method: &method,
            config: &cfg,
            carry_weight: 50.0,
            seed,
        };
        let mut truth = DeltaKg::with_truth(&kg, &kg);
        let mut engine = spec.build();

        // Suspend mid-initial-campaign (or just past it).
        drive_monitor(&truth, engine.as_mut(), warmup, batch);
        let snap = engine.snapshot().unwrap();
        prop_assert_eq!(snapshot_engine_kind(&snap).unwrap(), EngineKind::Monitor);
        prop_assert_eq!(peek_any_header(&snap).unwrap().kind(), EngineKind::Monitor);
        let mut resumed = spec.resume(&snap).unwrap();
        prop_assert_eq!(resumed.snapshot().unwrap(), snap);

        // Both lines converge to the same watching certificate.
        drive_monitor(&truth, engine.as_mut(), u64::MAX, batch);
        drive_monitor(&truth, resumed.as_mut(), u64::MAX, batch);
        prop_assert_eq!(
            monitor_fingerprint(engine.as_ref()),
            monitor_fingerprint(resumed.as_ref())
        );

        // The same degrading batch lands identically on both, and on
        // the truth twin.
        let n = truth.num_triples();
        let delta = DeltaBatch {
            predicate: Some("drift".into()),
            removes: (0..n * churn / 8).collect(),
            adds: vec![true; usize::try_from(n * churn / 6).unwrap()],
        };
        let on_straight = engine.apply_deltas(&delta).unwrap();
        let on_resumed = resumed.apply_deltas(&delta).unwrap();
        truth.apply(&delta.removes, &delta.adds).unwrap();
        prop_assert_eq!(on_straight, on_resumed);

        // Mid-delta suspension: snapshot the resumed line after the
        // batch (and, when annotation re-opened, part-way into the
        // carryover campaign).
        if !on_resumed.watching {
            drive_monitor(&truth, resumed.as_mut(), warmup, batch);
        }
        let snap = resumed.snapshot().unwrap();
        prop_assert_eq!(peek_any_header(&snap).unwrap().kind(), EngineKind::Monitor);
        let mut resumed_again = spec.resume(&snap).unwrap();
        prop_assert_eq!(resumed_again.snapshot().unwrap(), snap);

        // All three lines end watching with identical certificates,
        // epochs and drift rows.
        drive_monitor(&truth, engine.as_mut(), u64::MAX, batch);
        drive_monitor(&truth, resumed.as_mut(), u64::MAX, batch);
        drive_monitor(&truth, resumed_again.as_mut(), u64::MAX, batch);
        prop_assert_eq!(
            monitor_fingerprint(engine.as_ref()),
            monitor_fingerprint(resumed.as_ref())
        );
        prop_assert_eq!(
            monitor_fingerprint(engine.as_ref()),
            monitor_fingerprint(resumed_again.as_ref())
        );
    }
}

/// A version-1 record — the layout that still carried a per-prior solver
/// section — is rejected as a typed version mismatch for every registry
/// tag, before any kind-specific parsing; no v1 reader exists.
#[test]
fn version_1_records_are_rejected_for_every_registry_tag() {
    let kg = dataset("nell");
    let method = IntervalMethod::ahpd_default();
    let eval_cfg = EvalConfig::default();
    let strat_cfg = StratifiedConfig::default();
    let stratification = Stratification::by_hash(&kg, 4, 1);
    let prepared: Vec<PreparedDesign> = [
        SamplingDesign::Srs,
        SamplingDesign::Twcs { m: 3 },
        SamplingDesign::Wcs,
        SamplingDesign::Scs,
    ]
    .into_iter()
    .map(|design| PreparedDesign::new(&kg, design))
    .collect();
    let mut specs: Vec<EngineSpec<'_, '_>> = prepared
        .iter()
        .map(|prepared| EngineSpec::Plain {
            kg: &kg,
            prepared,
            method: &method,
            config: &eval_cfg,
            seed: 7,
        })
        .collect();
    specs.push(EngineSpec::Stratified {
        kg: &kg,
        stratification: &stratification,
        method: &method,
        config: &strat_cfg,
        seed: 7,
    });
    specs.push(EngineSpec::Comparative {
        kg: &kg,
        prepared: &prepared[0],
        primary: ComparePrimary::AHpd,
        config: &eval_cfg,
        seed: 7,
    });
    specs.push(EngineSpec::Monitor {
        kg: &kg,
        method: &method,
        config: &eval_cfg,
        carry_weight: 50.0,
        seed: 7,
    });
    let truth = DeltaKg::with_truth(&kg, &kg);
    for (tag, spec) in specs.iter().enumerate() {
        let mut engine = spec.build();
        assert!(
            drive_monitor(&truth, engine.as_mut(), 2, 4),
            "tag {tag} stopped"
        );
        let mut snap = engine.snapshot().unwrap();
        assert_eq!(usize::from(snap[10]), tag);
        assert_eq!(snap[8..10], 2u16.to_le_bytes(), "tag {tag}");
        spec.resume(&snap).unwrap();
        snap[8..10].copy_from_slice(&1u16.to_le_bytes());
        let unsupported = |e: Option<SessionError>| {
            matches!(
                e,
                Some(SessionError::SnapshotMismatch("unsupported version"))
            )
        };
        assert!(unsupported(spec.resume(&snap).err()), "tag {tag}");
        assert!(unsupported(peek_any_header(&snap).err()), "tag {tag}");
    }
}
