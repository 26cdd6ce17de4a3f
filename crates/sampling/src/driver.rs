//! The sampling designs of paper §2.4, each as a stage-1 driver — the
//! design-specific half of the poll-based evaluation engine.
//!
//! The evaluation loop of paper Figure 1 needs exactly two things from a
//! sampling design: the next *unit* to annotate (one triple under SRS,
//! one stage-1 cluster draw under the cluster designs) and how a labeled
//! unit converts into a per-unit estimate. [`DesignDriver`] captures
//! that contract behind an object-safe trait, so the engine
//! (`kgae-core`'s `EvaluationSession`) runs one control flow over SRS,
//! TWCS, WCS and SCS instead of duplicating the loop per design.
//!
//! * [`SrsDriver`] — incremental Simple Random Sampling without
//!   replacement over triples, O(1) per draw at any KG scale;
//! * [`TwcsDriver`] — Two-stage Weighted Cluster Sampling: PPS clusters
//!   (Walker alias table) + capped within-cluster SRS;
//! * [`WcsDriver`] / [`ScsDriver`] — whole-cluster strategies from the
//!   broader cluster-sampling family (online-appendix baselines): PPS
//!   and uniform stage-1 clusters, every triple of the cluster annotated;
//! * [`StratumSrsDriver`] — SRS within one stratum of a stratified
//!   campaign.
//!
//! Each driver draws its own units. Drivers borrow the KG as
//! `&dyn KnowledgeGraph` — any backend implementing the trait plugs in —
//! and the PPS designs share one prebuilt alias table
//! ([`pps_by_size_table`]) via `Arc`, so constructing a driver per
//! evaluation repetition never re-pays the O(#clusters) table build.
//! Randomness crosses the trait boundary as `&mut dyn RngCore` (the
//! object-safe core of the vendored `rand`).
//!
//! ```
//! use kgae_sampling::{DesignDriver, TwcsDriver};
//! use rand::SeedableRng;
//!
//! let kg = kgae_graph::datasets::yago();
//! let mut driver = TwcsDriver::new(&kg, 3);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let mut unit = Vec::new();
//! let cluster = driver.next_unit(&mut rng, &mut unit).unwrap();
//! assert!(unit.len() as u64 <= 3);
//! assert!(unit.iter().all(|st| st.cluster == cluster));
//! ```

use crate::alias::AliasTable;
use crate::distinct::{floyd_sample, IncrementalWithoutReplacement};
use kgae_graph::{ClusterId, KnowledgeGraph, TripleId};
use rand::{Rng, RngCore};
use std::sync::Arc;

/// One sampled triple together with its owning cluster (needed by the
/// annotation cost model, which charges entity identification once per
/// distinct cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledTriple {
    /// The sampled triple.
    pub triple: TripleId,
    /// The entity cluster the triple belongs to.
    pub cluster: ClusterId,
}

/// Builds the PPS-by-size alias table of a KG (`π_i = M_i / M`).
///
/// O(#clusters); build it once per dataset and share it across repeated
/// evaluation runs via [`TwcsDriver::with_table`] and
/// [`WcsDriver::with_table`] — rebuilding it per run would dominate the
/// cost on 5M-cluster graphs.
#[must_use]
pub fn pps_by_size_table<K: KnowledgeGraph + ?Sized>(kg: &K) -> AliasTable {
    let weights: Vec<f64> = (0..kg.num_clusters())
        .map(|c| kg.cluster_size(ClusterId(c)) as f64)
        .collect();
    AliasTable::new(&weights)
}

/// How one labeled sampling unit feeds the design's estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnitEstimator {
    /// SRS: units are single triples pooled into the sample proportion
    /// (Eq. 2); there is no per-unit estimate.
    Triple,
    /// TWCS/WCS: the per-draw estimate is the cluster sample mean
    /// `μ̂_i` (Eq. 3).
    SampleMean,
    /// SCS: the Hansen–Hurwitz per-draw estimate `scale · τ_i` with
    /// `scale = N / M`.
    HansenHurwitz {
        /// `N / M` (clusters over triples).
        scale: f64,
    },
}

/// How a stratified evaluation campaign spends its next annotation
/// batch across strata.
///
/// The policies are deterministic given the same per-stratum state, so
/// a suspended stratified session resumes onto the exact allocation
/// trajectory it left.
///
/// ```
/// use kgae_sampling::driver::AllocationPolicy;
///
/// let p: AllocationPolicy = "width-greedy".parse().unwrap();
/// assert_eq!(p, AllocationPolicy::WidthGreedy);
/// assert_eq!(p.canonical_name(), "width-greedy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationPolicy {
    /// Neyman-style width-greedy: give the next batch to the stratum
    /// whose weighted HPD interval promises the largest pooled-width
    /// reduction per annotation (score `(W_h · width_h)² / n_h`).
    /// Equalizing raw widths is provably no better than proportional
    /// under equal weights; this marginal-reduction form converges to
    /// the Neyman optimum `n_h ∝ W_h σ_h`.
    #[default]
    WidthGreedy,
    /// Proportional allocation: keep `n_h / W_h` balanced (the textbook
    /// `n_h ∝ M_h / M` baseline).
    Proportional,
    /// Equal allocation: keep raw per-stratum sample sizes balanced.
    Equal,
}

impl AllocationPolicy {
    /// The canonical lower-case wire name.
    #[must_use]
    pub fn canonical_name(self) -> &'static str {
        match self {
            AllocationPolicy::WidthGreedy => "width-greedy",
            AllocationPolicy::Proportional => "proportional",
            AllocationPolicy::Equal => "equal",
        }
    }
}

impl std::fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for AllocationPolicy {
    type Err = DesignParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "width-greedy" | "widest" | "neyman" => Ok(AllocationPolicy::WidthGreedy),
            "proportional" => Ok(AllocationPolicy::Proportional),
            "equal" => Ok(AllocationPolicy::Equal),
            _ => Err(DesignParseError(s.to_string())),
        }
    }
}

/// The primary interval method of a comparative session — the wire
/// half of `compare:<primary>` designs. The roster a comparative
/// session races is fixed (the paper's four-way comparison: Wald,
/// Wilson, ET, aHPD); the primary names the method whose convergence
/// stops the shared annotation stream.
///
/// This is a *name*, not a method: `kgae-core` maps it onto its
/// `IntervalMethod` roster. It lives here so the design grammar stays
/// in one crate.
///
/// ```
/// use kgae_sampling::driver::ComparePrimary;
///
/// let p: ComparePrimary = "ahpd".parse().unwrap();
/// assert_eq!(p, ComparePrimary::AHpd);
/// assert_eq!(p.canonical_name(), "ahpd");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ComparePrimary {
    /// The Wald CI drives the stopping rule.
    Wald,
    /// The Wilson CI drives the stopping rule.
    Wilson,
    /// The equal-tailed credible interval (Jeffreys prior) drives the
    /// stopping rule.
    Et,
    /// The adaptive HPD algorithm drives the stopping rule (the
    /// paper-recommended default).
    #[default]
    AHpd,
}

impl ComparePrimary {
    /// Every primary, in the fixed roster order of a comparative
    /// session's per-method rows.
    pub const ALL: [ComparePrimary; 4] = [
        ComparePrimary::Wald,
        ComparePrimary::Wilson,
        ComparePrimary::Et,
        ComparePrimary::AHpd,
    ];

    /// The canonical lower-case wire name (also the method's canonical
    /// `IntervalMethod` name in `kgae-core`).
    #[must_use]
    pub fn canonical_name(self) -> &'static str {
        match self {
            ComparePrimary::Wald => "wald",
            ComparePrimary::Wilson => "wilson",
            ComparePrimary::Et => "et",
            ComparePrimary::AHpd => "ahpd",
        }
    }

    /// The primary's index in the fixed roster ([`ComparePrimary::ALL`]
    /// order) — the position of its row in comparative status reports.
    #[must_use]
    pub fn roster_index(self) -> usize {
        match self {
            ComparePrimary::Wald => 0,
            ComparePrimary::Wilson => 1,
            ComparePrimary::Et => 2,
            ComparePrimary::AHpd => 3,
        }
    }
}

impl std::fmt::Display for ComparePrimary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for ComparePrimary {
    type Err = DesignParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "wald" => Ok(ComparePrimary::Wald),
            "wilson" => Ok(ComparePrimary::Wilson),
            "et" => Ok(ComparePrimary::Et),
            "ahpd" => Ok(ComparePrimary::AHpd),
            _ => Err(DesignParseError(s.to_string())),
        }
    }
}

/// A sampling design identified by name — the wire form of a design.
/// The session service receives designs as strings (`"srs"`,
/// `"twcs:3"`, `"wcs"`, `"scs"`, `"stratified:<allocation>"`,
/// `"compare:<primary>"`, `"monitor:<carry>"`) and parses them into a
/// spec; `kgae-core` converts the four single-driver designs into its
/// `SamplingDesign`, which builds the matching [`DesignDriver`], so both
/// sides agree on one grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignSpec {
    /// Simple random sampling of triples.
    Srs,
    /// Two-stage weighted cluster sampling with second-stage cap `m`.
    Twcs {
        /// Second-stage sample size (`m ≥ 1`).
        m: u64,
    },
    /// Weighted (PPS) cluster sampling, whole clusters.
    Wcs,
    /// Simple cluster sampling, whole clusters.
    Scs,
    /// Stratified SRS: the KG is partitioned into strata and a
    /// coordinator (`kgae-core`'s `StratifiedSession`) runs one
    /// SRS-within-stratum engine per stratum under the given batch
    /// [`AllocationPolicy`]. This is a *session-level* design: it has no
    /// single [`DesignDriver`] (each stratum gets a [`StratumSrsDriver`]).
    Stratified {
        /// How annotation batches are allocated across strata.
        allocation: AllocationPolicy,
    },
    /// Comparative multi-method evaluation: one SRS annotation stream
    /// fanned out to the full interval-method roster, stopping when the
    /// designated primary converges. Like [`DesignSpec::Stratified`]
    /// this is a *session-level* design (`kgae-core`'s
    /// `ComparativeSession` owns one SRS [`DesignDriver`] and a tracker
    /// per rival method).
    Compare {
        /// The method whose convergence stops the shared stream.
        primary: ComparePrimary,
    },
    /// Continuous accuracy monitoring: a long-lived SRS engine
    /// (`kgae-core`'s `MonitorSession`) over a delta-applying view of
    /// the KG, re-opening annotation only when updates degrade the
    /// credible interval. A *session-level* design like
    /// [`DesignSpec::Stratified`].
    Monitor {
        /// Cap on the pseudo-observations carried between campaigns.
        carry: u64,
    },
}

/// Default pseudo-observation cap of `monitor` designs when the grammar
/// omits `:<carry>`.
pub const DEFAULT_MONITOR_CARRY: u64 = 50;

impl DesignSpec {
    /// The canonical lower-case wire name (`"srs"`, `"twcs:3"`, ...).
    /// [`DesignSpec::from_str`](std::str::FromStr) parses it back.
    #[must_use]
    pub fn canonical_name(&self) -> String {
        match self {
            DesignSpec::Srs => "srs".into(),
            DesignSpec::Twcs { m } => format!("twcs:{m}"),
            DesignSpec::Wcs => "wcs".into(),
            DesignSpec::Scs => "scs".into(),
            DesignSpec::Stratified { allocation } => {
                format!("stratified:{}", allocation.canonical_name())
            }
            DesignSpec::Compare { primary } => format!("compare:{}", primary.canonical_name()),
            DesignSpec::Monitor { carry } => format!("monitor:{carry}"),
        }
    }
}

impl std::fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical_name())
    }
}

/// Error parsing a design name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignParseError(
    /// The offending name.
    pub String,
);

impl std::fmt::Display for DesignParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown sampling design {:?} (expected srs, twcs:<m>, wcs or scs)",
            self.0
        )
    }
}

impl std::error::Error for DesignParseError {}

impl std::str::FromStr for DesignSpec {
    type Err = DesignParseError;

    /// Parses a design name, case-insensitively. Accepted forms:
    /// `srs`, `wcs`, `scs`, `twcs:<m>` (canonical), the display form
    /// `twcs(m=<m>)` used in the paper tables,
    /// `stratified[:<allocation>]` (allocation defaults to
    /// `width-greedy`), `compare:<primary>` (primary ∈
    /// `wald|wilson|et|ahpd`, always explicit), and
    /// `monitor[:<carry>]` (carry ≥ 1 pseudo-observations, default
    /// [`DEFAULT_MONITOR_CARRY`]). `m` must be ≥ 1.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || DesignParseError(s.to_string());
        match lower.as_str() {
            "srs" => return Ok(DesignSpec::Srs),
            "wcs" => return Ok(DesignSpec::Wcs),
            "scs" => return Ok(DesignSpec::Scs),
            "stratified" => {
                return Ok(DesignSpec::Stratified {
                    allocation: AllocationPolicy::default(),
                })
            }
            "monitor" => {
                return Ok(DesignSpec::Monitor {
                    carry: DEFAULT_MONITOR_CARRY,
                })
            }
            _ => {}
        }
        if let Some(alloc) = lower.strip_prefix("stratified:") {
            let allocation = alloc.parse().map_err(|_| err())?;
            return Ok(DesignSpec::Stratified { allocation });
        }
        if let Some(primary) = lower.strip_prefix("compare:") {
            let primary = primary.parse().map_err(|_| err())?;
            return Ok(DesignSpec::Compare { primary });
        }
        if let Some(carry) = lower.strip_prefix("monitor:") {
            let carry: u64 = carry.parse().map_err(|_| err())?;
            if carry == 0 {
                return Err(err());
            }
            return Ok(DesignSpec::Monitor { carry });
        }
        let m_str = lower
            .strip_prefix("twcs:")
            .or_else(|| {
                lower
                    .strip_prefix("twcs(m=")
                    .and_then(|rest| rest.strip_suffix(')'))
            })
            .ok_or_else(err)?;
        let m: u64 = m_str.parse().map_err(|_| err())?;
        if m == 0 {
            return Err(err());
        }
        Ok(DesignSpec::Twcs { m })
    }
}

/// A sampling design reduced to its poll contract: hand out stage-1
/// units until the stream is exhausted.
///
/// Object-safe on purpose — the evaluation session stores
/// `Box<dyn DesignDriver>` and swaps designs without re-monomorphizing
/// the engine.
pub trait DesignDriver {
    /// Samples the next stage-1 unit into `out` (cleared first) and
    /// returns its cluster, or `None` when the design's stream is
    /// exhausted (SRS: every triple drawn; bounded streams: the draw
    /// limit reached). Exhaustion is a state, not a panic: every
    /// subsequent call keeps returning `None`.
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId>;

    /// How labeled units feed the estimator.
    fn estimator(&self) -> UnitEstimator;

    /// Units handed out so far.
    fn units_drawn(&self) -> u64;

    /// Returns the driver to its just-built state: the same stream a
    /// fresh driver would hand out under the same RNG state.
    /// Construction-time configuration (e.g. [`ScsDriver::limit_draws`])
    /// is kept.
    fn rewind(&mut self);

    /// Makes room for up to `units` more units in the state the driver
    /// keeps per unit drawn, and returns how many it made room for:
    /// `units` capped by what the stream still holds, or 0 for a driver
    /// that keeps no such state. A capacity hint; no draw changes.
    fn reserve(&mut self, _units: u64) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// SRS
// ---------------------------------------------------------------------

/// SRS driver: units are single triples, drawn without replacement
/// through a lazy Fisher–Yates stream; the stream exhausts once the
/// whole KG has been drawn (the estimate then equals the true accuracy
/// and the MoE is zero).
pub struct SrsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    stream: IncrementalWithoutReplacement,
}

impl<'a> SrsDriver<'a> {
    /// Driver over all triples of `kg`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        Self {
            kg,
            stream: IncrementalWithoutReplacement::new(kg.num_triples()),
        }
    }
}

impl DesignDriver for SrsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let triple = TripleId(self.stream.next_draw(rng)?);
        let cluster = self.kg.cluster_of(triple);
        out.push(SampledTriple { triple, cluster });
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::Triple
    }

    fn units_drawn(&self) -> u64 {
        self.stream.drawn()
    }

    fn rewind(&mut self) {
        self.stream = IncrementalWithoutReplacement::new(self.kg.num_triples());
    }

    fn reserve(&mut self, units: u64) -> u64 {
        self.stream.reserve(units)
    }
}

// ---------------------------------------------------------------------
// TWCS
// ---------------------------------------------------------------------

/// TWCS driver (paper §2.4). Stage 1 draws an entity cluster with
/// probability proportional to its size (`π_i = M_i / M`), with
/// replacement across draws. Stage 2 draws `min(M_i, m)` triples from
/// the chosen cluster by SRS without replacement. The per-draw estimate
/// is the cluster sample mean `μ̂_i`, and the TWCS estimator is the mean
/// of those (Eq. 3) — unbiased under PPS because the size-biased
/// inclusion cancels against the within-cluster mean. Stateless across
/// draws, so the stream never exhausts.
pub struct TwcsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    alias: Arc<AliasTable>,
    /// Second-stage sample size `m` (the paper uses 3 for the small KGs
    /// and 5 for SYN 100M, per Gao et al.'s recommendation of 3–5).
    m: u64,
    drawn: u64,
}

impl<'a> TwcsDriver<'a> {
    /// Builds the driver, constructing the PPS table (O(#clusters);
    /// prefer [`TwcsDriver::with_table`] for repeated evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph, m: u64) -> Self {
        Self::with_table(kg, m, Arc::new(pps_by_size_table(kg)))
    }

    /// Builds the driver around a shared, prebuilt PPS table.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or the table size disagrees with the KG.
    #[must_use]
    pub fn with_table(kg: &'a dyn KnowledgeGraph, m: u64, alias: Arc<AliasTable>) -> Self {
        assert!(m > 0, "second-stage size m must be positive");
        assert_table_matches(kg, &alias);
        Self {
            kg,
            alias,
            m,
            drawn: 0,
        }
    }
}

impl DesignDriver for TwcsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let cluster = ClusterId(self.alias.sample(rng));
        let range = self.kg.cluster_triples(cluster);
        let size = range.end - range.start;
        floyd_sample(rng, size, size.min(self.m), out, |off| SampledTriple {
            triple: TripleId(range.start + off),
            cluster,
        });
        self.drawn += 1;
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::SampleMean
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn rewind(&mut self) {
        self.drawn = 0;
    }
}

// ---------------------------------------------------------------------
// Whole-cluster designs: WCS and SCS
// ---------------------------------------------------------------------

/// WCS driver: PPS stage-1 clusters (with replacement, like TWCS), but
/// every triple of the chosen cluster is annotated; the estimator is the
/// plain mean of full-cluster accuracies. Cheap per entity, but it can
/// burn many annotations on large clusters — the inefficiency TWCS's
/// capped second stage fixes (Gao et al. 2019).
pub struct WcsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    alias: Arc<AliasTable>,
    drawn: u64,
}

impl<'a> WcsDriver<'a> {
    /// Builds the driver, constructing the PPS table (O(#clusters);
    /// prefer [`WcsDriver::with_table`] for repeated evaluations).
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        Self::with_table(kg, Arc::new(pps_by_size_table(kg)))
    }

    /// Builds the driver around a shared, prebuilt PPS table.
    ///
    /// # Panics
    ///
    /// Panics if the table size disagrees with the KG.
    #[must_use]
    pub fn with_table(kg: &'a dyn KnowledgeGraph, alias: Arc<AliasTable>) -> Self {
        assert_table_matches(kg, &alias);
        Self {
            kg,
            alias,
            drawn: 0,
        }
    }
}

impl DesignDriver for WcsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        let cluster = ClusterId(self.alias.sample(rng));
        whole_cluster(self.kg, cluster, out);
        self.drawn += 1;
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::SampleMean
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn rewind(&mut self) {
        self.drawn = 0;
    }
}

/// SCS driver: uniform stage-1 clusters (with replacement),
/// whole-cluster annotation, Hansen–Hurwitz estimation scaled by `N/M`.
///
/// Supports an optional stage-1 draw limit
/// ([`ScsDriver::limit_draws`]) modeling a bounded external annotation
/// stream (e.g. a crowdsourcing batch that ends): once the limit is
/// reached the stream reports exhaustion instead of drawing further.
pub struct ScsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    scale: f64,
    drawn: u64,
    draw_limit: Option<u64>,
}

impl<'a> ScsDriver<'a> {
    /// Builds the driver (O(1): uniform stage-1 draws need no table).
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph) -> Self {
        let scale = f64::from(kg.num_clusters()) / kg.num_triples() as f64;
        Self {
            kg,
            scale,
            drawn: 0,
            draw_limit: None,
        }
    }

    /// Caps the stream at `limit` stage-1 draws; the driver reports
    /// exhaustion afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` (a stream that can never produce a unit
    /// has no defined estimate).
    #[must_use]
    pub fn limit_draws(mut self, limit: u64) -> Self {
        assert!(limit > 0, "draw limit must be positive");
        self.draw_limit = Some(limit);
        self
    }
}

impl DesignDriver for ScsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        if self.draw_limit.is_some_and(|cap| self.drawn >= cap) {
            return None;
        }
        let cluster = ClusterId(rng.gen_range(0..self.kg.num_clusters()));
        whole_cluster(self.kg, cluster, out);
        self.drawn += 1;
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::HansenHurwitz { scale: self.scale }
    }

    fn units_drawn(&self) -> u64 {
        self.drawn
    }

    fn rewind(&mut self) {
        self.drawn = 0;
    }
}

/// Replaces `out`'s contents with every triple of `cluster`.
fn whole_cluster(kg: &dyn KnowledgeGraph, cluster: ClusterId, out: &mut Vec<SampledTriple>) {
    out.clear();
    out.extend(kg.cluster_triples(cluster).map(|t| SampledTriple {
        triple: TripleId(t),
        cluster,
    }));
}

fn assert_table_matches(kg: &dyn KnowledgeGraph, alias: &AliasTable) {
    assert_eq!(
        alias.len(),
        kg.num_clusters() as usize,
        "alias table does not match the KG"
    );
}

// ---------------------------------------------------------------------
// Stratum SRS
// ---------------------------------------------------------------------

/// SRS-without-replacement restricted to one stratum of a KG: a
/// member-list of triple ids (in *parent* coordinates) drawn through a
/// lazy Fisher–Yates stream. One such driver per stratum is the
/// design-specific half of the stratified evaluation coordinator.
///
/// The member list rides in an `Arc`, shared with the `Stratification`
/// that produced it — constructing a driver per stratum session copies a
/// pointer, never the list.
pub struct StratumSrsDriver<'a> {
    kg: &'a dyn KnowledgeGraph,
    members: Arc<Vec<u64>>,
    stream: IncrementalWithoutReplacement,
}

impl<'a> StratumSrsDriver<'a> {
    /// Driver over the stratum whose member triple ids are `members`
    /// (parent-KG coordinates, typically sorted — the order is part of
    /// the sampling stream's identity, so resume with the same list).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or any id is out of range for `kg`.
    #[must_use]
    pub fn new(kg: &'a dyn KnowledgeGraph, members: Arc<Vec<u64>>) -> Self {
        assert!(!members.is_empty(), "a stratum cannot be empty");
        assert!(
            members.iter().all(|&t| t < kg.num_triples()),
            "stratum member out of range for the KG"
        );
        let stream = IncrementalWithoutReplacement::new(members.len() as u64);
        Self {
            kg,
            members,
            stream,
        }
    }

    /// Number of triples in the stratum.
    #[must_use]
    pub fn stratum_size(&self) -> u64 {
        self.members.len() as u64
    }
}

impl DesignDriver for StratumSrsDriver<'_> {
    fn next_unit(
        &mut self,
        rng: &mut dyn RngCore,
        out: &mut Vec<SampledTriple>,
    ) -> Option<ClusterId> {
        out.clear();
        let local = self.stream.next_draw(rng)?;
        let triple = TripleId(self.members[local as usize]);
        let cluster = self.kg.cluster_of(triple);
        out.push(SampledTriple { triple, cluster });
        Some(cluster)
    }

    fn estimator(&self) -> UnitEstimator {
        UnitEstimator::Triple
    }

    fn units_drawn(&self) -> u64 {
        self.stream.drawn()
    }

    fn rewind(&mut self) {
        self.stream = IncrementalWithoutReplacement::new(self.stratum_size());
    }

    fn reserve(&mut self, units: u64) -> u64 {
        self.stream.reserve(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgae_graph::compact::{CompactKg, LabelStore};
    use kgae_graph::GroundTruth;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn kg(sizes: &[u64]) -> CompactKg {
        CompactKg::new(sizes, LabelStore::Hashed { seed: 9, rate: 0.8 })
    }

    #[test]
    fn srs_driver_streams_distinct_singletons_then_exhausts() {
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = SrsDriver::new(&kg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        while let Some(cluster) = d.next_unit(&mut rng, &mut buf) {
            assert_eq!(buf.len(), 1);
            assert_eq!(buf[0].cluster, cluster);
            assert_eq!(kg.cluster_of(buf[0].triple), cluster);
            assert!(seen.insert(buf[0].triple));
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(d.units_drawn(), 10);
        // Exhaustion is sticky.
        assert!(d.next_unit(&mut rng, &mut buf).is_none());
        assert_eq!(d.estimator(), UnitEstimator::Triple);
    }

    #[test]
    fn srs_driver_sample_mean_is_unbiased() {
        // Average the 5-triple sample proportion over many repetitions;
        // it must match the true accuracy (estimator unbiasedness, Eq. 2).
        let kg = kgae_graph::datasets::nell();
        let mut total = 0.0;
        let reps = 3_000;
        let mut buf = Vec::new();
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut d = SrsDriver::new(&kg);
            let mut correct = 0u32;
            for _ in 0..5 {
                d.next_unit(&mut rng, &mut buf).unwrap();
                if kg.is_correct(buf[0].triple) {
                    correct += 1;
                }
            }
            total += f64::from(correct) / 5.0;
        }
        let mean = total / reps as f64;
        let se = (0.91 * 0.09 / (5.0 * reps as f64)).sqrt();
        assert!(
            (mean - kg.true_accuracy()).abs() < 5.0 * se,
            "mean = {mean}, true = {}",
            kg.true_accuracy()
        );
    }

    #[test]
    fn srs_driver_per_triple_inclusion_is_uniform() {
        let kg = kg(&[3, 1, 4, 2]);
        let mut counts = vec![0u64; kg.num_triples() as usize];
        let reps = 40_000u64;
        let mut buf = Vec::new();
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut d = SrsDriver::new(&kg);
            for _ in 0..3 {
                d.next_unit(&mut rng, &mut buf).unwrap();
                counts[buf[0].triple.index() as usize] += 1;
            }
        }
        for (t, &c) in counts.iter().enumerate() {
            let f = c as f64 / reps as f64;
            assert!((f - 0.3).abs() < 0.015, "triple {t}: inclusion {f}");
        }
    }

    #[test]
    fn twcs_driver_stage1_is_size_proportional() {
        let kg = kg(&[1, 9, 10, 80]);
        let mut d = TwcsDriver::new(&kg, 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0u64; 4];
        let mut buf = Vec::new();
        let reps = 200_000;
        for _ in 0..reps {
            counts[d.next_unit(&mut rng, &mut buf).unwrap().index() as usize] += 1;
        }
        for (c, &n) in counts.iter().enumerate() {
            let want = kg.cluster_size(ClusterId(c as u32)) as f64 / 100.0;
            let got = n as f64 / reps as f64;
            assert!((got - want).abs() < 0.005, "cluster {c}: {got} vs {want}");
        }
    }

    #[test]
    fn twcs_driver_stage2_draws_min_of_size_and_m() {
        let kg = kgae_graph::datasets::yago(); // clusters of size 1–3 mostly
        let mut d = TwcsDriver::new(&kg, 3);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut buf = Vec::new();
        for _ in 0..500 {
            let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
            let size = kg.cluster_size(cluster);
            assert_eq!(buf.len() as u64, size.min(3));
            // Distinct triples, all from the drawn cluster.
            let set: HashSet<_> = buf.iter().map(|t| t.triple).collect();
            assert_eq!(set.len(), buf.len());
            for t in &buf {
                assert_eq!(kg.cluster_of(t.triple), cluster);
            }
        }
    }

    /// Mean over `reps` units of each unit's estimate (`estimate` maps
    /// the unit's correct-triple count and size to it).
    fn mean_unit_estimate(
        kg: &CompactKg,
        d: &mut dyn DesignDriver,
        seed: u64,
        reps: u32,
        estimate: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut buf = Vec::new();
        let mut total = 0.0;
        for _ in 0..reps {
            d.next_unit(&mut rng, &mut buf).unwrap();
            let correct = buf.iter().filter(|t| kg.is_correct(t.triple)).count() as f64;
            total += estimate(correct, buf.len() as f64);
        }
        total / f64::from(reps)
    }

    #[test]
    fn twcs_driver_estimator_is_unbiased_under_pps() {
        // Mean of cluster sample means over many draws must equal μ even
        // with heavily correlated labels (NELL's beta-binomial model).
        let kg = kgae_graph::datasets::nell();
        let mut d = TwcsDriver::new(&kg, 3);
        let mean = mean_unit_estimate(&kg, &mut d, 4, 60_000, |c, n| c / n);
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.005,
            "TWCS mean = {mean}, μ = {}",
            kg.true_accuracy()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn twcs_driver_rejects_zero_m() {
        let kg = kgae_graph::datasets::yago();
        let _ = TwcsDriver::new(&kg, 0);
    }

    #[test]
    fn scs_driver_annotates_whole_clusters() {
        let kg = kgae_graph::datasets::yago();
        let mut d = ScsDriver::new(&kg);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut buf = Vec::new();
        for _ in 0..200 {
            let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
            assert_eq!(buf.len() as u64, kg.cluster_size(cluster));
        }
    }

    #[test]
    fn wcs_driver_mean_of_cluster_accuracies_is_unbiased() {
        let kg = kgae_graph::datasets::dbpedia();
        let mut d = WcsDriver::new(&kg);
        let mean = mean_unit_estimate(&kg, &mut d, 2, 40_000, |c, n| c / n);
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.005,
            "WCS mean = {mean}"
        );
    }

    #[test]
    fn scs_driver_hansen_hurwitz_is_unbiased() {
        // SCS estimator: μ̂ = (N / (n M)) Σ τ_i with uniform clusters,
        // at the scale the driver reports.
        let kg = kgae_graph::datasets::factbench();
        let mut d = ScsDriver::new(&kg);
        let UnitEstimator::HansenHurwitz { scale } = d.estimator() else {
            panic!("SCS estimator is {:?}", d.estimator());
        };
        let mean = mean_unit_estimate(&kg, &mut d, 3, 40_000, |c, _| scale * c);
        assert!(
            (mean - kg.true_accuracy()).abs() < 0.01,
            "SCS HH mean = {mean}, μ = {}",
            kg.true_accuracy()
        );
    }

    #[test]
    fn twcs_driver_with_m_at_least_every_cluster_size_takes_whole_clusters() {
        // m ≥ the largest cluster (and ≥ the number of clusters): the
        // capped second stage degenerates to whole-cluster draws.
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = TwcsDriver::new(&kg, 64);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut buf = Vec::new();
        for _ in 0..50 {
            let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
            assert_eq!(buf.len() as u64, kg.cluster_size(cluster));
            let distinct: HashSet<_> = buf.iter().map(|t| t.triple).collect();
            assert_eq!(distinct.len(), buf.len());
        }
        assert_eq!(d.units_drawn(), 50);
    }

    #[test]
    fn cluster_drivers_handle_single_triple_clusters() {
        // Every cluster has exactly one triple: cluster designs
        // degenerate to (weighted) triple sampling and every unit is a
        // singleton.
        let kg = kg(&[1; 40]);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut buf = Vec::new();
        let mut twcs = TwcsDriver::new(&kg, 3);
        let mut wcs = WcsDriver::new(&kg);
        let mut scs = ScsDriver::new(&kg);
        let drivers: [&mut dyn DesignDriver; 3] = [&mut twcs, &mut wcs, &mut scs];
        for d in drivers {
            for _ in 0..30 {
                let cluster = d.next_unit(&mut rng, &mut buf).unwrap();
                assert_eq!(buf.len(), 1);
                assert_eq!(buf[0].cluster, cluster);
            }
        }
    }

    #[test]
    fn scs_driver_reports_exhaustion_at_the_draw_limit() {
        let kg = kg(&[3, 1, 4, 2]);
        let mut d = ScsDriver::new(&kg).limit_draws(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut buf = Vec::new();
        for _ in 0..5 {
            assert!(d.next_unit(&mut rng, &mut buf).is_some());
        }
        // Exhausted: keeps returning None without panicking, and the
        // buffer is left cleared.
        for _ in 0..3 {
            assert!(d.next_unit(&mut rng, &mut buf).is_none());
            assert!(buf.is_empty());
        }
        assert_eq!(d.units_drawn(), 5);
        match d.estimator() {
            UnitEstimator::HansenHurwitz { scale } => {
                assert!((scale - 4.0 / 10.0).abs() < 1e-12);
            }
            other => panic!("SCS estimator is {other:?}"),
        }
    }

    #[test]
    fn rewind_replays_the_exact_stream_and_keeps_configuration() {
        // After a rewind, re-seeding the RNG reproduces the stream from
        // its start; a draw-limited SCS driver keeps its limit.
        let kg = kg(&[10, 10, 10]);
        let members = Arc::new((0..30u64).filter(|t| t % 3 != 1).collect::<Vec<_>>());
        let drivers: Vec<Box<dyn DesignDriver + '_>> = vec![
            Box::new(SrsDriver::new(&kg)),
            Box::new(TwcsDriver::new(&kg, 3)),
            Box::new(WcsDriver::new(&kg)),
            Box::new(ScsDriver::new(&kg).limit_draws(9)),
            Box::new(StratumSrsDriver::new(&kg, members)),
        ];
        for mut d in drivers {
            let mut buf = Vec::new();
            let mut stream = |d: &mut Box<dyn DesignDriver + '_>| {
                let mut rng = SmallRng::seed_from_u64(6);
                let mut units = Vec::new();
                while let Some(cluster) = d.next_unit(&mut rng, &mut buf) {
                    units.push((cluster, buf.clone()));
                    if units.len() == 12 {
                        break;
                    }
                }
                units
            };
            let first = stream(&mut d);
            assert!(d.units_drawn() > 0);
            d.rewind();
            assert_eq!(d.units_drawn(), 0);
            assert_eq!(stream(&mut d), first);
        }
    }

    #[test]
    fn design_spec_names_round_trip_and_reject_garbage() {
        let specs = [
            DesignSpec::Srs,
            DesignSpec::Twcs { m: 3 },
            DesignSpec::Twcs { m: 17 },
            DesignSpec::Wcs,
            DesignSpec::Scs,
        ];
        for spec in specs {
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
            // Case-insensitive, and the paper display form also parses.
            assert_eq!(
                spec.canonical_name()
                    .to_ascii_uppercase()
                    .parse::<DesignSpec>()
                    .unwrap(),
                spec
            );
        }
        assert_eq!(
            "TWCS(m=5)".parse::<DesignSpec>().unwrap(),
            DesignSpec::Twcs { m: 5 }
        );
        assert_eq!(" srs ".parse::<DesignSpec>().unwrap(), DesignSpec::Srs);
        for bad in [
            "", "srss", "twcs", "twcs:", "twcs:0", "twcs:-1", "twcs(m=3", "pps",
        ] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn stratified_design_names_round_trip() {
        for (name, allocation) in [
            ("stratified", AllocationPolicy::WidthGreedy),
            ("stratified:width-greedy", AllocationPolicy::WidthGreedy),
            ("stratified:proportional", AllocationPolicy::Proportional),
            ("stratified:equal", AllocationPolicy::Equal),
            ("STRATIFIED:EQUAL", AllocationPolicy::Equal),
        ] {
            let spec: DesignSpec = name.parse().unwrap();
            assert_eq!(spec, DesignSpec::Stratified { allocation }, "{name}");
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
        }
        for bad in ["stratified:", "stratified:zipf", "stratified:widest:"] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn compare_design_names_round_trip() {
        for (name, primary) in [
            ("compare:wald", ComparePrimary::Wald),
            ("compare:wilson", ComparePrimary::Wilson),
            ("compare:et", ComparePrimary::Et),
            ("compare:ahpd", ComparePrimary::AHpd),
            ("COMPARE:AHPD", ComparePrimary::AHpd),
        ] {
            let spec: DesignSpec = name.parse().unwrap();
            assert_eq!(spec, DesignSpec::Compare { primary }, "{name}");
            assert_eq!(spec.canonical_name().parse::<DesignSpec>().unwrap(), spec);
            assert_eq!(
                primary.canonical_name().parse::<ComparePrimary>().unwrap(),
                primary
            );
        }
        // Roster order is the contract of per-method status rows.
        for (i, p) in ComparePrimary::ALL.into_iter().enumerate() {
            assert_eq!(p.roster_index(), i);
        }
        // The primary is always explicit: a bare "compare" is invalid.
        for bad in ["compare", "compare:", "compare:hpd", "compare:bayes"] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn stratum_driver_streams_exactly_its_members_then_exhausts() {
        let kg = kg(&[3, 1, 4, 2]);
        let members = Arc::new(vec![0u64, 3, 4, 8, 9]);
        let mut d = StratumSrsDriver::new(&kg, members.clone());
        assert_eq!(d.stratum_size(), 5);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut buf = Vec::new();
        let mut seen = HashSet::new();
        while let Some(cluster) = d.next_unit(&mut rng, &mut buf) {
            assert_eq!(buf.len(), 1);
            assert_eq!(buf[0].cluster, cluster);
            assert_eq!(kg.cluster_of(buf[0].triple), cluster);
            assert!(members.contains(&buf[0].triple.index()));
            assert!(seen.insert(buf[0].triple));
        }
        assert_eq!(seen.len(), 5, "every member drawn exactly once");
        assert_eq!(d.units_drawn(), 5);
        assert!(d.next_unit(&mut rng, &mut buf).is_none(), "sticky");
        assert_eq!(d.estimator(), UnitEstimator::Triple);
    }
}
