//! The seeded workload generator. Every input a run feeds the program —
//! campaign specs and seeds, batch sizes, delta batches — is a pure
//! function of `(workload, --seed, campaign index)`, so the same seed
//! always replays the same inputs and `annotations_per_campaign`
//! repeats exactly.

use kgae_core::{DeltaBatch, IntervalMethod, SamplingDesign};
use kgae_service::api::SessionSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process poll-driven campaigns over the design × method grid.
    EngineGrid,
    /// The same campaigns sharing one posterior-kernel cache, as every
    /// session of a server does.
    EngineCached,
    /// Two HTTP clients running aHPD/SRS campaigns back to back.
    ServiceSteady,
    /// Two HTTP clients rotating engine kinds with suspend/evict churn.
    ServiceChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EngineGrid,
        Workload::EngineCached,
        Workload::ServiceSteady,
        Workload::ServiceChurn,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineGrid => "engine_grid",
            Workload::EngineCached => "engine_cached",
            Workload::ServiceSteady => "service_steady",
            Workload::ServiceChurn => "service_churn",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mixer.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampling seed of campaign `index` in a run seeded `run_seed`.
/// Kept below 2⁵² so it crosses the JSON wire exactly.
#[must_use]
pub fn campaign_seed(run_seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(run_seed) ^ index) & ((1 << 52) - 1)
}

/// The α and ε every campaign uses (the paper's setup).
pub const ALPHA: f64 = 0.05;
/// MoE target ε.
pub const EPSILON: f64 = 0.05;

/// One `engine_grid` cell: a design × method pair.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Metric-name fragment, e.g. `srs_ahpd`.
    pub name: &'static str,
    /// Sampling design.
    pub design: SamplingDesign,
    /// Interval method.
    pub method: IntervalMethod,
}

/// The six `engine_grid` cells, in round-robin order.
#[must_use]
pub fn grid_cells() -> Vec<GridCell> {
    const NAMES: [&str; 6] = [
        "srs_wald",
        "srs_wilson",
        "srs_ahpd",
        "twcs3_wald",
        "twcs3_wilson",
        "twcs3_ahpd",
    ];
    let designs = [SamplingDesign::Srs, SamplingDesign::Twcs { m: 3 }];
    let methods = [
        IntervalMethod::Wald,
        IntervalMethod::Wilson,
        IntervalMethod::ahpd_default(),
    ];
    NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| GridCell {
            name,
            design: designs[i / 3],
            method: methods[i % 3].clone(),
        })
        .collect()
}

/// Which grid cell campaign `index` runs (round robin).
#[must_use]
pub fn grid_cell_of(index: u64) -> usize {
    (index % 6) as usize
}

/// Labels per poll in the service workloads.
pub const SERVICE_BATCH: u64 = 4;
/// `service_churn` suspends and evicts after every this-many submits.
pub const CHURN_SUSPEND_EVERY: u64 = 4;

/// Everything a client does in one service campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Engine-kind tag (`plain`, `twcs`, `stratified`, `compare`,
    /// `monitor`).
    pub kind: &'static str,
    /// The session to create.
    pub spec: SessionSpec,
    /// Units per poll.
    pub batch: u64,
    /// Suspend + evict after every this-many submits.
    pub suspend_every: Option<u64>,
    /// The drift batch a monitor absorbs after certifying.
    pub delta: Option<DeltaBatch>,
}

fn spec(index: u64, seed: u64, dataset: &str, design: &str) -> SessionSpec {
    SessionSpec {
        id: format!("c{index:08}"),
        dataset: dataset.into(),
        design: design.parse().expect("benchmark design names parse"),
        method: IntervalMethod::ahpd_default(),
        seed,
        alpha: ALPHA,
        epsilon: EPSILON,
        max_observations: None,
        stratify: None,
        tenant: None,
    }
}

/// Triples in the NELL twin, the range monitor removes are drawn from.
pub const NELL_TRIPLES: u64 = 1_860;

/// A removal-heavy drift batch shaped like the `monitor_load` leg of
/// `bench_eval`: 1100 distinct removes out of the 1860 NELL triples
/// and 20 additions that are correct with probability 0.9.
#[must_use]
pub fn monitor_delta(seed: u64) -> DeltaBatch {
    let mut rng = SmallRng::seed_from_u64(splitmix64(seed ^ 0xDE17A));
    let mut ids: Vec<u64> = (0..NELL_TRIPLES).collect();
    for i in 0..1100usize {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    let mut removes = ids[..1100].to_vec();
    removes.sort_unstable();
    let adds = (0..20).map(|_| rng.gen_bool(0.9)).collect();
    DeltaBatch {
        predicate: Some("bulkPrune".into()),
        removes,
        adds,
    }
}

/// The plan of service campaign `index` of `workload` under `run_seed`.
///
/// # Panics
///
/// On the engine workloads, which run no service campaigns.
#[must_use]
pub fn service_plan(workload: Workload, run_seed: u64, index: u64) -> CampaignPlan {
    let seed = campaign_seed(run_seed, index);
    match workload {
        Workload::EngineGrid | Workload::EngineCached => {
            panic!("the engine workloads run no service campaigns")
        }
        Workload::ServiceSteady => CampaignPlan {
            kind: "plain",
            spec: spec(index, seed, "nell", "srs"),
            batch: SERVICE_BATCH,
            suspend_every: None,
            delta: None,
        },
        Workload::ServiceChurn => {
            let (kind, dataset, design) = match index % 4 {
                0 => ("twcs", "nell", "twcs:3"),
                1 => ("stratified", "nell-pred", "stratified"),
                2 => ("compare", "nell", "compare:ahpd"),
                _ => ("monitor", "nell", "monitor:50"),
            };
            CampaignPlan {
                kind,
                spec: spec(index, seed, dataset, design),
                batch: SERVICE_BATCH,
                suspend_every: Some(CHURN_SUSPEND_EVERY),
                delta: (kind == "monitor").then(|| monitor_delta(seed)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_indices_and_runs() {
        assert_ne!(campaign_seed(1, 0), campaign_seed(1, 1));
        assert_ne!(campaign_seed(1, 0), campaign_seed(2, 0));
        assert!(campaign_seed(u64::MAX, u64::MAX) < 1 << 52);
    }

    #[test]
    fn monitor_deltas_are_valid_batches() {
        let d = monitor_delta(99);
        assert_eq!(d.removes.len(), 1100);
        assert!(d.removes.windows(2).all(|w| w[0] < w[1]));
        assert!(*d.removes.last().unwrap() < NELL_TRIPLES);
        assert_eq!(d.adds.len(), 20);
    }

    #[test]
    fn churn_rotates_engine_kinds() {
        let kinds: Vec<_> = (0..4)
            .map(|i| service_plan(Workload::ServiceChurn, 5, i).kind)
            .collect();
        assert_eq!(kinds, ["twcs", "stratified", "compare", "monitor"]);
    }
}
