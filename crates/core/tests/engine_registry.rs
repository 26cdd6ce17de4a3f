//! Kind-checked suspend/resume across every engine kind: for
//! plain × stratified × comparative engines — driven purely through the
//! object-safe `dyn SessionEngine` interface — a snapshot resumed via
//! its record tag ([`EngineSpec::resume`]) re-snapshots to the
//! **identical bytes**, across seeds × datasets × batch sizes, and the
//! resumed engine finishes bit-identically to the uninterrupted one.

use kgae_core::engine::{snapshot_engine_kind, EngineKind, EngineSpec, SessionEngine};
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

        // snapshot → kind-checked resume → snapshot: byte-identical,
        // entirely through the dyn interface.
        let snap = engine.snapshot().unwrap();
        prop_assert_eq!(snapshot_engine_kind(&snap).unwrap(), spec.kind());
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

    /// Tag-6 (monitor) suspend/resume by record tag: snapshot →
    /// kind-checked resume → snapshot is byte-identical while the
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
        prop_assert_eq!(snapshot_engine_kind(&snap).unwrap(), EngineKind::Monitor);
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

/// Everything an engine spec of each record tag borrows: one NELL
/// twin, the four plain designs, a 4-way hash stratification and the
/// default configs.
struct EveryTag {
    kg: CompactKg,
    prepared: Vec<PreparedDesign>,
    stratification: Stratification,
    method: IntervalMethod,
    eval_cfg: EvalConfig,
    strat_cfg: StratifiedConfig,
}

impl EveryTag {
    fn new() -> Self {
        let kg = dataset("nell");
        let prepared = [
            SamplingDesign::Srs,
            SamplingDesign::Twcs { m: 3 },
            SamplingDesign::Wcs,
            SamplingDesign::Scs,
        ]
        .into_iter()
        .map(|design| PreparedDesign::new(&kg, design))
        .collect();
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

    /// One spec per record tag, in tag order 0–6: SRS, TWCS(3), WCS,
    /// SCS, stratified, comparative (SRS, aHPD primary), monitor.
    fn specs(&self, seed: u64) -> Vec<EngineSpec<'_, '_>> {
        let mut specs: Vec<EngineSpec<'_, '_>> = self
            .prepared
            .iter()
            .map(|prepared| EngineSpec::Plain {
                kg: &self.kg,
                prepared,
                method: &self.method,
                config: &self.eval_cfg,
                seed,
            })
            .collect();
        specs.push(EngineSpec::Stratified {
            kg: &self.kg,
            stratification: &self.stratification,
            method: &self.method,
            config: &self.strat_cfg,
            seed,
        });
        specs.push(EngineSpec::Comparative {
            kg: &self.kg,
            prepared: &self.prepared[0],
            primary: ComparePrimary::AHpd,
            config: &self.eval_cfg,
            seed,
        });
        specs.push(EngineSpec::Monitor {
            kg: &self.kg,
            method: &self.method,
            config: &self.eval_cfg,
            carry_weight: 50.0,
            seed,
        });
        specs
    }
}

/// Records of the retired versions are rejected as a typed version
/// mismatch for every record tag, before any kind-specific parsing:
/// version 1 still carried a per-prior solver section, version 2
/// serialized the session's derived state instead of its label log, and
/// version 3 stored census strata, rival countdowns and monitor
/// counters that version 4 derives, and version 4 stored the monitor's
/// overlay, ledger and open campaign where version 5 keeps its event
/// log. No reader for any of them exists.
#[test]
fn older_version_records_are_rejected_for_every_registry_tag() {
    let every = EveryTag::new();
    let truth = DeltaKg::with_truth(&every.kg, &every.kg);
    for (tag, spec) in every.specs(7).iter().enumerate() {
        let mut engine = spec.build();
        assert!(
            drive_monitor(&truth, engine.as_mut(), 2, 4),
            "tag {tag} stopped"
        );
        let mut snap = engine.snapshot().unwrap();
        assert_eq!(usize::from(snap[10]), tag);
        assert_eq!(snap[8..10], 5u16.to_le_bytes(), "tag {tag}");
        spec.resume(&snap).unwrap();
        for version in [1u16, 2, 3, 4] {
            snap[8..10].copy_from_slice(&version.to_le_bytes());
            let unsupported = |e: Option<SessionError>| {
                matches!(
                    e,
                    Some(SessionError::SnapshotMismatch("unsupported version"))
                )
            };
            assert!(
                unsupported(spec.resume(&snap).err()),
                "tag {tag} v{version}"
            );
            assert!(
                unsupported(snapshot_engine_kind(&snap).err()),
                "tag {tag} v{version}"
            );
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Golden snapshot bytes for every record tag: a mid-campaign snapshot
/// (seed 7, batch 4, first poll boundary at ≥ 40 observations) keeps
/// its exact length and digest across commits. Round-trip tests only
/// compare bytes within one build; this pins the encoding itself, so a
/// refactor that claims "no byte changes" is checked against the bytes
/// the previous code wrote.
#[test]
fn mid_campaign_snapshot_bytes_are_pinned_for_every_registry_tag() {
    const GOLDEN: [(usize, u64); 7] = [
        (196, 0x6485_5477_3c3a_a184),
        (197, 0x3ac7_0113_4c34_1e15),
        (197, 0x0472_08a7_c721_cc89),
        (197, 0x35c9_85b6_fedb_6c20),
        (921, 0x3526_705e_287a_64be),
        (325, 0x7bf2_c319_3dd9_aef9),
        (254, 0x1e51_7c10_02fe_937f),
    ];
    let every = EveryTag::new();
    let truth = DeltaKg::with_truth(&every.kg, &every.kg);
    for (tag, spec) in every.specs(7).iter().enumerate() {
        let mut engine = spec.build();
        while engine.headline().observations < 40 {
            assert!(
                drive_monitor(&truth, engine.as_mut(), 1, 4),
                "tag {tag} ran out of work"
            );
        }
        assert!(engine.stop_reason().is_none(), "tag {tag} stopped");
        let snap = engine.snapshot().unwrap();
        assert_eq!((snap.len(), fnv1a(&snap)), GOLDEN[tag], "tag {tag}");
    }
}
