//! The iterative evaluation framework (paper Figure 1), as a seeded
//! closed-loop client of the poll-based engine.
//!
//! ```text
//! loop:
//!   1. sample a unit (SRS: one triple; cluster designs: one stage-1 draw)
//!   2. annotate it (and merge with previous annotations)
//!   3. estimate μ̂ and build the 1-α interval
//!   4. quality control: stop when MoE <= ε
//! ```
//!
//! The stopping check runs after every annotated unit once the minimum
//! sample is reached (30 triples, and ≥ 2 stage-1 draws under cluster
//! designs so the variance estimator exists). This granularity is what
//! reproduces the paper's numbers — e.g. Wald on NELL halting at exactly
//! `n = 30` with `μ̂ = 1.0` in ~7% of runs (Example 1), and Wald/SRS on
//! SYN-0.5 needing `z²·0.25/ε² ≈ 384` triples (Table 4).
//!
//! [`evaluate`] / [`evaluate_prepared`] are seeded clients of
//! [`crate::session::EvaluationSession`]: they poll a session seeded
//! `SmallRng::seed_from_u64(seed)` one unit at a time, label its triples
//! with the in-process [`Annotator`] and submit the labels. The
//! annotator draws from a stream of its own (see [`evaluate_prepared`]),
//! so an imperfect annotator sees the same units as the oracle
//! campaign of the same seed.

use crate::annotator::Annotator;
use crate::cost::CostModel;
use crate::method::IntervalMethod;
use crate::session::{AnnotationRequest, EvaluationSession, SessionError};
use kgae_graph::{GroundTruth, KnowledgeGraph};
use kgae_intervals::{Interval, IntervalError};
use kgae_sampling::driver::DesignSpec;
use kgae_sampling::{
    pps_by_size_table, AliasTable, DesignDriver, ScsDriver, SrsDriver, TwcsDriver, WcsDriver,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The sampling strategy S of the minimization problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplingDesign {
    /// Simple random sampling of triples (§2.4).
    Srs,
    /// Two-stage weighted cluster sampling with second-stage cap `m`
    /// (§2.4; the paper uses `m = 3` for the small KGs, `m = 5` for
    /// SYN 100M).
    Twcs {
        /// Second-stage sample size.
        m: u64,
    },
    /// Weighted (PPS) cluster sampling, whole clusters (online appendix).
    Wcs,
    /// Simple cluster sampling, whole clusters (online appendix).
    Scs,
}

impl SamplingDesign {
    /// Display name used in tables.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            SamplingDesign::Srs => "SRS".into(),
            SamplingDesign::Twcs { m } => format!("TWCS(m={m})"),
            SamplingDesign::Wcs => "WCS".into(),
            SamplingDesign::Scs => "SCS".into(),
        }
    }

    /// The design as a wire-level [`DesignSpec`] — the form the session
    /// service exchanges over HTTP.
    #[must_use]
    pub fn spec(&self) -> DesignSpec {
        match *self {
            SamplingDesign::Srs => DesignSpec::Srs,
            SamplingDesign::Twcs { m } => DesignSpec::Twcs { m },
            SamplingDesign::Wcs => DesignSpec::Wcs,
            SamplingDesign::Scs => DesignSpec::Scs,
        }
    }

    /// Canonical lower-case wire name (`"srs"`, `"twcs:3"`, ...);
    /// [`SamplingDesign::from_str`](std::str::FromStr) parses it back.
    #[must_use]
    pub fn canonical_name(&self) -> String {
        self.spec().canonical_name()
    }
}

impl TryFrom<DesignSpec> for SamplingDesign {
    type Error = kgae_sampling::driver::DesignParseError;

    /// Every single-driver design converts; the session-level designs
    /// do not — [`DesignSpec::Stratified`] denotes a coordinated family
    /// of per-stratum SRS engines
    /// ([`crate::stratified::StratifiedSession`]) and
    /// [`DesignSpec::Compare`] a shared SRS stream raced by the full
    /// method roster ([`crate::comparative::ComparativeSession`]), and
    /// [`DesignSpec::Monitor`] a long-lived SRS campaign sequence over
    /// an evolving view ([`crate::monitor::MonitorSession`]) — not one
    /// driver.
    fn try_from(spec: DesignSpec) -> Result<Self, Self::Error> {
        match spec {
            DesignSpec::Srs => Ok(SamplingDesign::Srs),
            DesignSpec::Twcs { m } => Ok(SamplingDesign::Twcs { m }),
            DesignSpec::Wcs => Ok(SamplingDesign::Wcs),
            DesignSpec::Scs => Ok(SamplingDesign::Scs),
            DesignSpec::Stratified { .. }
            | DesignSpec::Compare { .. }
            | DesignSpec::Monitor { .. } => Err(kgae_sampling::driver::DesignParseError(
                spec.canonical_name(),
            )),
        }
    }
}

impl std::str::FromStr for SamplingDesign {
    type Err = kgae_sampling::driver::DesignParseError;

    /// Parses a design name with the [`DesignSpec`] grammar: `srs`,
    /// `twcs:<m>` (or `twcs(m=<m>)`), `wcs`, `scs`, case-insensitively.
    /// `stratified[:<allocation>]` and `compare:<primary>` parse as
    /// [`DesignSpec`]s but are rejected here — they are not
    /// single-driver designs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<DesignSpec>().and_then(SamplingDesign::try_from)
    }
}

/// How the stopping rule consults interval construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoppingPolicy {
    /// Construct and check the `1-α` interval after every annotated unit
    /// (every triple under SRS, every stage-1 draw under cluster
    /// designs) — the literal loop of Figure 1. This is the reference
    /// path and the baseline of the lookahead A/B benchmark.
    EveryUnit,
    /// Certified stopping checks. Under SRS, a multi-step lookahead from
    /// Theorem 1's width bound computes the first future annotation at
    /// which `MoE ≤ ε` is achievable and skips interval construction
    /// entirely until then. Under cluster designs, an exact one-step
    /// gate constructs the interval only at draws where the current
    /// posterior could stop. Halts at the same unit with the same
    /// sample as [`StoppingPolicy::EveryUnit`]: every skipped or gated
    /// unit is one where the constructed interval would have been wider
    /// than `2ε`.
    #[default]
    CertifiedLookahead,
}

/// Evaluation-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Significance level α of the `1-α` interval.
    pub alpha: f64,
    /// Upper bound ε on the Margin of Error (the stopping rule).
    pub epsilon: f64,
    /// Minimum annotated triples before the stopping rule is consulted.
    pub min_triples: u64,
    /// Minimum stage-1 draws under cluster designs (variance estimators
    /// need at least two).
    pub min_draws: usize,
    /// Optional cap on total annotation *observations*; exceeded ⇒ the
    /// run reports `converged = false`.
    pub max_observations: Option<u64>,
    /// Optional annotation budget in seconds of annotator time (Eq. 12
    /// units). §6.5 discusses evaluations "terminating prematurely (due
    /// to budget exhaustion)" — this models that budget.
    pub max_cost_seconds: Option<f64>,
    /// Cost constants (Eq. 12).
    pub cost_model: CostModel,
    /// Stopping-check scheduling (certified lookahead by default;
    /// [`StoppingPolicy::EveryUnit`] is the reference/benchmark path).
    pub stopping: StoppingPolicy,
}

impl Default for EvalConfig {
    /// The paper's setup: `α = 0.05`, `ε = 0.05`, minimum sample 30.
    fn default() -> Self {
        Self {
            alpha: 0.05,
            epsilon: 0.05,
            min_triples: 30,
            min_draws: 2,
            max_observations: None,
            max_cost_seconds: None,
            cost_model: CostModel::PAPER,
            stopping: StoppingPolicy::default(),
        }
    }
}

impl EvalConfig {
    /// Same configuration at a different significance level (Figure 4
    /// sweeps α ∈ {0.10, 0.05, 0.01}).
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }
}

/// Outcome of one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// Estimated accuracy `μ̂` at the stop.
    pub mu_hat: f64,
    /// The final `1-α` interval.
    pub interval: Interval,
    /// Distinct triples annotated (the paper's "Triples" column).
    pub annotated_triples: u64,
    /// Distinct entities identified (drives the cost model).
    pub annotated_entities: u64,
    /// Total observations including with-replacement re-draws.
    pub observations: u64,
    /// Stage-1 draws (0 under SRS).
    pub stage1_draws: u64,
    /// Annotation cost in seconds (Eq. 12).
    pub cost_seconds: f64,
    /// Whether the MoE criterion was met (vs. budget/KG exhaustion).
    pub converged: bool,
    /// Whether the run halted at the *first* consultation of the
    /// stopping rule — i.e. at the minimum sample (`min_triples`
    /// observations under SRS; `min_draws` stage-1 draws reaching
    /// `min_triples` observations under cluster designs, where
    /// observations typically overshoot the floor). This is the
    /// "halted at the minimum sample" condition of the Example 1
    /// zero-width pathology; comparing raw observation counts against
    /// `min_triples` misclassifies cluster runs.
    pub halted_at_floor: bool,
}

impl EvalResult {
    /// Annotation cost in hours (the unit of Tables 3–4).
    #[must_use]
    pub fn cost_hours(&self) -> f64 {
        self.cost_seconds / 3600.0
    }
}

/// Per-dataset sampling resources prebuilt once and shared across
/// repeated evaluation runs (and across threads).
///
/// The PPS alias table over cluster sizes is O(#clusters) to build — 5M
/// entries for SYN 100M — so rebuilding it inside every one of the 1000
/// repetitions would dominate the runtime of the scalability experiment.
#[derive(Debug, Clone)]
pub struct PreparedDesign {
    design: SamplingDesign,
    /// Arc-shared so per-repetition sessions/drivers clone a pointer,
    /// never the O(#clusters) table.
    pps: Option<Arc<AliasTable>>,
}

impl PreparedDesign {
    /// Prepares the design against a KG (builds the PPS table when the
    /// design needs one).
    pub fn new<K: KnowledgeGraph + ?Sized>(kg: &K, design: SamplingDesign) -> Self {
        let pps = match design {
            SamplingDesign::Twcs { .. } | SamplingDesign::Wcs => {
                Some(Arc::new(pps_by_size_table(kg)))
            }
            SamplingDesign::Srs | SamplingDesign::Scs => None,
        };
        Self { design, pps }
    }

    /// The underlying design.
    #[must_use]
    pub fn design(&self) -> SamplingDesign {
        self.design
    }

    /// A fresh driver for the design over `kg`; the PPS designs share
    /// the prepared alias table (an `Arc` clone — pointer copy, not table
    /// copy).
    pub(crate) fn driver<'a>(
        &self,
        kg: &'a dyn KnowledgeGraph,
    ) -> Box<dyn DesignDriver + Send + 'a> {
        let pps = || {
            Arc::clone(
                self.pps
                    .as_ref()
                    .expect("PPS designs are prepared with a table"),
            )
        };
        match self.design {
            SamplingDesign::Srs => Box::new(SrsDriver::new(kg)),
            SamplingDesign::Twcs { m } => Box::new(TwcsDriver::with_table(kg, m, pps())),
            SamplingDesign::Wcs => Box::new(WcsDriver::with_table(kg, pps())),
            SamplingDesign::Scs => Box::new(ScsDriver::new(kg)),
        }
    }
}

/// Runs the full iterative evaluation of Figure 1 from `seed`.
///
/// Annotation labels are cached per triple, so a triple re-drawn by a
/// with-replacement cluster design reuses its recorded label (and costs
/// nothing extra, matching the set semantics of Eq. 12).
pub fn evaluate<K, A>(
    kg: &K,
    annotator: &A,
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
) -> Result<EvalResult, IntervalError>
where
    K: KnowledgeGraph + GroundTruth,
    A: Annotator,
{
    evaluate_prepared(
        kg,
        annotator,
        &PreparedDesign::new(kg, design),
        method,
        cfg,
        seed,
    )
}

/// The tag that derives the annotator's stream from a campaign seed:
/// the ASCII bytes of `"annotate"`.
const ANNOTATOR_STREAM_TAG: u64 = u64::from_be_bytes(*b"annotate");

/// [`evaluate`] against a [`PreparedDesign`] (shares the PPS table
/// across repetitions via `Arc` — per-repetition setup copies a
/// pointer, never the O(#clusters) table).
///
/// A client of the poll-based [`EvaluationSession`] seeded
/// `SmallRng::seed_from_u64(seed)`: poll one unit, label its triples
/// with the in-process annotator, submit, repeat until the session
/// stops. The annotator draws from its own stream,
/// `SmallRng::seed_from_u64(kgae_graph::hash::mix2(seed, tag))` with the
/// fixed tag `u64::from_be_bytes(*b"annotate")`, so its draws never
/// move the sampling stream: a [`crate::NoisyAnnotator`] campaign
/// samples the same units as the oracle campaign of the same seed, up
/// to where either stops.
pub fn evaluate_prepared<K, A>(
    kg: &K,
    annotator: &A,
    prepared: &PreparedDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    seed: u64,
) -> Result<EvalResult, IntervalError>
where
    K: KnowledgeGraph + GroundTruth,
    A: Annotator,
{
    let mut session =
        EvaluationSession::from_prepared(kg, prepared, method, cfg, SmallRng::seed_from_u64(seed));
    let mut annotator_rng =
        SmallRng::seed_from_u64(kgae_graph::hash::mix2(seed, ANNOTATOR_STREAM_TAG));
    let mut request = AnnotationRequest::default();
    let mut labels: Vec<bool> = Vec::new();
    loop {
        match session.next_request_into(1, &mut request) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(unwrap_interval_error(e)),
        }
        labels.clear();
        for st in &request.triples {
            let truth = kg.is_correct(st.triple);
            labels.push(annotator.annotate(truth, &mut annotator_rng));
        }
        if let Err(e) = session.submit(&labels) {
            return Err(unwrap_interval_error(e));
        }
    }
    Ok(session
        .into_result()
        .expect("a stopped session has a result"))
}

/// The closed-loop driver obeys the session protocol by construction,
/// so the only session error it can surface is a solver failure.
fn unwrap_interval_error(e: SessionError) -> IntervalError {
    match e {
        SessionError::Interval(err) => err,
        other => unreachable!("closed-loop driver violated the session protocol: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotator::OracleAnnotator;

    fn run(
        kg: &kgae_graph::CompactKg,
        design: SamplingDesign,
        method: IntervalMethod,
        seed: u64,
    ) -> EvalResult {
        evaluate(
            kg,
            &OracleAnnotator,
            design,
            &method,
            &EvalConfig::default(),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn srs_converges_and_respects_moe() {
        let kg = kgae_graph::datasets::nell();
        let r = run(&kg, SamplingDesign::Srs, IntervalMethod::Wilson, 11);
        assert!(r.converged);
        assert!(r.interval.moe() <= 0.05 + 1e-12);
        assert!(r.annotated_triples >= 30);
        assert!((r.mu_hat - 0.91).abs() < 0.15, "μ̂ = {}", r.mu_hat);
        // SRS never re-draws: observations equal distinct triples.
        assert_eq!(r.observations, r.annotated_triples);
        assert_eq!(r.stage1_draws, 0);
    }

    #[test]
    fn minimum_sample_floor_is_respected() {
        // YAGO is 99% accurate: everything halts at/near the floor, never
        // below it.
        let kg = kgae_graph::datasets::yago();
        for seed in 0..20 {
            let r = run(&kg, SamplingDesign::Srs, IntervalMethod::Wald, seed);
            assert!(r.annotated_triples >= 30, "halted below the floor");
        }
    }

    #[test]
    fn example_1_wald_zero_width_halts_exist() {
        // On NELL ~6-8% of Wald/SRS runs halt at exactly n = 30 with
        // μ̂ = 1.0 and a zero-width interval (paper Example 1).
        let kg = kgae_graph::datasets::nell();
        let mut zero_width = 0;
        let reps = 200;
        for seed in 0..reps {
            let r = run(&kg, SamplingDesign::Srs, IntervalMethod::Wald, seed);
            if r.interval.width() == 0.0 && r.annotated_triples == 30 {
                zero_width += 1;
                assert_eq!(r.mu_hat, 1.0);
            }
        }
        let rate = zero_width as f64 / reps as f64;
        assert!(
            (0.01..0.20).contains(&rate),
            "zero-width halt rate = {rate}"
        );
    }

    #[test]
    fn twcs_converges_with_cluster_estimator() {
        let kg = kgae_graph::datasets::dbpedia();
        let r = run(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            IntervalMethod::ahpd_default(),
            5,
        );
        assert!(r.converged);
        assert!(r.interval.moe() <= 0.05 + 1e-12);
        assert!(r.stage1_draws >= 2);
        assert!((r.mu_hat - 0.85).abs() < 0.2, "μ̂ = {}", r.mu_hat);
        // Entity amortization: fewer entities than triples.
        assert!(r.annotated_entities <= r.annotated_triples);
    }

    #[test]
    fn twcs_costs_less_per_triple_than_srs() {
        let kg = kgae_graph::datasets::factbench();
        let srs = run(&kg, SamplingDesign::Srs, IntervalMethod::Wilson, 42);
        let twcs = run(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            IntervalMethod::Wilson,
            42,
        );
        let srs_per = srs.cost_seconds / srs.annotated_triples as f64;
        let twcs_per = twcs.cost_seconds / twcs.annotated_triples as f64;
        assert!(
            twcs_per < srs_per,
            "TWCS {twcs_per:.1}s/triple vs SRS {srs_per:.1}s/triple"
        );
    }

    #[test]
    fn wcs_and_scs_run_to_convergence() {
        let kg = kgae_graph::datasets::nell();
        for design in [SamplingDesign::Wcs, SamplingDesign::Scs] {
            let r = run(&kg, design, IntervalMethod::Wilson, 3);
            assert!(r.converged, "{}", design.name());
            assert!(r.interval.moe() <= 0.05 + 1e-12);
        }
    }

    #[test]
    fn budget_cap_reports_non_convergence() {
        let kg = kgae_graph::datasets::factbench();
        let cfg = EvalConfig {
            max_observations: Some(50),
            ..Default::default()
        };
        let r = evaluate(
            &kg,
            &OracleAnnotator,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &cfg,
            9,
        )
        .unwrap();
        // FACTBENCH at μ=0.54 needs ~378 triples; 50 cannot converge.
        assert!(!r.converged);
        assert!(r.observations >= 50);
    }

    #[test]
    fn cost_budget_exhaustion_reports_non_convergence() {
        // §6.5: a budget too small for convergence terminates the audit
        // prematurely but still yields an estimate and interval.
        let kg = kgae_graph::datasets::factbench();
        let cfg = EvalConfig {
            max_cost_seconds: Some(3_600.0), // one annotator-hour
            ..Default::default()
        };
        let r = evaluate(
            &kg,
            &OracleAnnotator,
            SamplingDesign::Srs,
            &IntervalMethod::ahpd_default(),
            &cfg,
            4,
        )
        .unwrap();
        assert!(!r.converged);
        assert!(r.cost_seconds >= 3_600.0);
        assert!(r.cost_seconds < 3_700.0, "overshoot: {}", r.cost_seconds);
        assert!(r.interval.moe() > 0.05);
    }

    #[test]
    fn exhausting_a_tiny_kg_yields_the_exact_accuracy() {
        // 40-triple KG at μ = 0.5 can never reach MoE ≤ 0.05 by sampling;
        // the framework annotates everything and returns μ exactly.
        let kg = kgae_graph::datasets::syn_scaled(40, 10, 0.5, 123);
        let r = evaluate(
            &kg,
            &OracleAnnotator,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            1,
        )
        .unwrap();
        assert!(r.converged);
        assert_eq!(r.annotated_triples, 40);
        assert_eq!(r.interval.width(), 0.0);
        // Hashed labels: compare against the realized accuracy of the 40
        // labels, not the nominal generation rate.
        assert!((r.mu_hat - kg.measure_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn prepared_driver_reconstructs_every_design() {
        let kg = kgae_graph::compact::CompactKg::new(
            &[3, 1, 4, 2],
            kgae_graph::compact::LabelStore::Hashed { seed: 9, rate: 0.8 },
        );
        let mut rng = SmallRng::seed_from_u64(8);
        let mut buf = Vec::new();
        for (design, est_is_triple) in [
            (SamplingDesign::Srs, true),
            (SamplingDesign::Twcs { m: 3 }, false),
            (SamplingDesign::Wcs, false),
            (SamplingDesign::Scs, false),
        ] {
            let mut d = PreparedDesign::new(&kg, design).driver(&kg);
            assert!(d.next_unit(&mut rng, &mut buf).is_some(), "{design:?}");
            assert_eq!(
                matches!(d.estimator(), kgae_sampling::UnitEstimator::Triple),
                est_is_triple,
                "{design:?}"
            );
        }
        // A prepared driver produces the exact stream of a directly
        // constructed one.
        let mut a = PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 2 }).driver(&kg);
        let mut b = TwcsDriver::new(&kg, 2);
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        let mut buf_b = Vec::new();
        for _ in 0..20 {
            assert_eq!(
                a.next_unit(&mut rng_a, &mut buf),
                b.next_unit(&mut rng_b, &mut buf_b)
            );
            assert_eq!(buf, buf_b);
        }
    }

    #[test]
    fn designs_report_names() {
        assert_eq!(SamplingDesign::Srs.name(), "SRS");
        assert_eq!(SamplingDesign::Twcs { m: 3 }.name(), "TWCS(m=3)");
        assert_eq!(SamplingDesign::Wcs.name(), "WCS");
        assert_eq!(SamplingDesign::Scs.name(), "SCS");
    }

    #[test]
    fn design_and_method_wire_names_round_trip() {
        let designs = [
            SamplingDesign::Srs,
            SamplingDesign::Twcs { m: 5 },
            SamplingDesign::Wcs,
            SamplingDesign::Scs,
        ];
        for d in designs {
            assert_eq!(d.canonical_name().parse::<SamplingDesign>().unwrap(), d);
        }
        assert!("pps".parse::<SamplingDesign>().is_err());

        use kgae_intervals::BetaPrior;
        let methods = [
            IntervalMethod::Wald,
            IntervalMethod::Wilson,
            IntervalMethod::Et(BetaPrior::KERMAN),
            IntervalMethod::Hpd(BetaPrior::UNIFORM),
            IntervalMethod::ahpd_default(),
        ];
        for m in methods {
            assert_eq!(m.canonical_name().parse::<IntervalMethod>().unwrap(), m);
        }
        assert_eq!(
            "et".parse::<IntervalMethod>().unwrap(),
            IntervalMethod::Et(BetaPrior::JEFFREYS)
        );
        for bad in ["", "waldo", "et[", "et[beta(80,20)]", "hpd[kermann]"] {
            assert!(bad.parse::<IntervalMethod>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let kg = kgae_graph::datasets::dbpedia();
        let a = run(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            IntervalMethod::ahpd_default(),
            77,
        );
        let b = run(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            IntervalMethod::ahpd_default(),
            77,
        );
        assert_eq!(a, b);
    }
}
