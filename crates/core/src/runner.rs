//! Repeated-evaluation harness.
//!
//! Every number in the paper's tables is a mean ± std over 1000 repeated
//! evaluation runs; this module runs those repetitions across threads
//! (crossbeam scoped threads, deterministic per-repetition seeding) and
//! aggregates the metrics the tables report, plus diagnostics (coverage
//! of the true μ, zero-width-halt rate for Example 1).
//!
//! Scheduling is **work-stealing**: workers pull repetition indices from
//! a shared atomic counter instead of owning static chunks. Per-rep
//! wall-time is heavily skewed — a FACTBENCH rep (μ = 0.54, ~380
//! triples) costs an order of magnitude more than a YAGO rep halting at
//! the 30-triple floor — so static chunking leaves threads idle at the
//! tail. Determinism is unaffected: each repetition is seeded by
//! `base_seed + rep` regardless of which worker runs it, and results are
//! re-ordered by repetition index before aggregation.

use crate::annotator::OracleAnnotator;
use crate::framework::{evaluate_prepared, EvalConfig, EvalResult, PreparedDesign, SamplingDesign};
use crate::method::IntervalMethod;
use kgae_graph::{GroundTruth, KnowledgeGraph};
use kgae_stats::descriptive::Summary;
use kgae_stats::htest::{pooled_t_test, TTestResult};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregated outcome of `reps` independent evaluation runs.
#[derive(Debug, Clone)]
pub struct RepeatedRuns {
    /// Method display name.
    pub method: String,
    /// Design display name.
    pub design: String,
    /// Distinct annotated triples per run.
    pub triples: Vec<f64>,
    /// Annotation cost in hours per run.
    pub cost_hours: Vec<f64>,
    /// Final accuracy estimates per run.
    pub mu_hats: Vec<f64>,
    /// Runs whose final interval contained the true μ.
    pub coverage_hits: u64,
    /// Runs that halted at the minimum sample with a zero-width interval
    /// (the Example 1 pathology; only Wald produces these).
    pub zero_width_halts: u64,
    /// Runs that hit the observation budget without meeting the MoE.
    pub non_converged: u64,
}

impl RepeatedRuns {
    /// `mean ± std` of the annotated-triples column.
    #[must_use]
    pub fn triples_summary(&self) -> Summary {
        Summary::from_slice(&self.triples)
    }

    /// `mean ± std` of the cost column (hours).
    #[must_use]
    pub fn cost_summary(&self) -> Summary {
        Summary::from_slice(&self.cost_hours)
    }

    /// Empirical coverage of the true accuracy by the final intervals.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.coverage_hits as f64 / self.triples.len() as f64
    }

    /// Fraction of runs exhibiting the zero-width-halt pathology.
    #[must_use]
    pub fn zero_width_rate(&self) -> f64 {
        self.zero_width_halts as f64 / self.triples.len() as f64
    }
}

/// Independent two-sample t-test between two methods' annotation costs
/// (the paper's † / ‡ significance markers, p < 0.01).
pub fn cost_t_test(a: &RepeatedRuns, b: &RepeatedRuns) -> kgae_stats::Result<TTestResult> {
    pooled_t_test(&a.cost_hours, &b.cost_hours)
}

/// Runs `reps` evaluations with the oracle annotator, in parallel, with
/// per-repetition deterministic seeds (`base_seed + rep`).
///
/// # Panics
///
/// Panics if any repetition fails to construct an interval — with valid
/// configs this indicates a programming error, not a data condition.
pub fn repeat_evaluation<K>(
    kg: &K,
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    reps: u64,
    base_seed: u64,
) -> RepeatedRuns
where
    K: KnowledgeGraph + GroundTruth,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(reps.max(1) as usize);
    // Build PPS tables once; every repetition on every thread shares
    // the same PreparedDesign by reference (the alias table inside is
    // Arc-shared, so even per-session setup copies a pointer at most).
    let prepared = &PreparedDesign::new(kg, design);

    // Work-stealing dispenser: each worker claims the next unclaimed
    // repetition index; skewed per-rep costs self-balance.
    let next_rep = AtomicU64::new(0);
    let mut all_results: Vec<Vec<(u64, EvalResult)>> = Vec::with_capacity(threads);
    crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let method = method.clone();
            let cfg = cfg.clone();
            let next_rep = &next_rep;
            handles.push(scope.spawn(move |_| {
                let mut out = Vec::new();
                loop {
                    let rep = next_rep.fetch_add(1, Ordering::Relaxed);
                    if rep >= reps {
                        break;
                    }
                    let mut rng = SmallRng::seed_from_u64(base_seed.wrapping_add(rep));
                    let r =
                        evaluate_prepared(kg, &OracleAnnotator, prepared, &method, &cfg, &mut rng)
                            .expect("evaluation must not fail under valid configuration");
                    out.push((rep, r));
                }
                out
            }));
        }
        for h in handles {
            all_results.push(h.join().expect("worker thread panicked"));
        }
    })
    .expect("crossbeam scope failed");

    // Restore repetition order so aggregates (and the per-rep vectors
    // exposed to t-tests) are independent of scheduling.
    let mut ordered: Vec<(u64, EvalResult)> = all_results.into_iter().flatten().collect();
    ordered.sort_unstable_by_key(|(rep, _)| *rep);

    let mu = kg.true_accuracy();
    let mut runs = RepeatedRuns {
        method: method.name(),
        design: design.name(),
        triples: Vec::with_capacity(reps as usize),
        cost_hours: Vec::with_capacity(reps as usize),
        mu_hats: Vec::with_capacity(reps as usize),
        coverage_hits: 0,
        zero_width_halts: 0,
        non_converged: 0,
    };
    for (_, r) in ordered {
        runs.triples.push(r.annotated_triples as f64);
        runs.cost_hours.push(r.cost_hours());
        runs.mu_hats.push(r.mu_hat);
        if r.interval.contains(mu) {
            runs.coverage_hits += 1;
        }
        // "Halted at the minimum sample" is reported by the framework
        // itself (first consultation of the stopping rule). The previous
        // detector compared `observations == min_triples`, which under
        // cluster designs silently missed floor halts whose draws
        // overshoot the 30-observation floor (observations ≠ distinct
        // triples ≠ the check schedule).
        if r.converged && r.interval.width() == 0.0 && r.halted_at_floor {
            runs.zero_width_halts += 1;
        }
        if !r.converged {
            runs.non_converged += 1;
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_runs_aggregate_consistently() {
        let kg = kgae_graph::datasets::nell();
        let runs = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            40,
            7,
        );
        assert_eq!(runs.triples.len(), 40);
        assert_eq!(runs.cost_hours.len(), 40);
        assert_eq!(runs.non_converged, 0);
        let s = runs.triples_summary();
        assert!(s.mean >= 30.0);
        // Estimates unbiased: mean μ̂ close to 0.91.
        let mean_mu = runs.mu_hats.iter().sum::<f64>() / runs.mu_hats.len() as f64;
        assert!((mean_mu - 0.91).abs() < 0.05, "mean μ̂ = {mean_mu}");
    }

    #[test]
    fn parallel_execution_is_deterministic() {
        let kg = kgae_graph::datasets::yago();
        let a = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            24,
            99,
        );
        let b = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::ahpd_default(),
            &EvalConfig::default(),
            24,
            99,
        );
        // Per-rep seeding makes results independent of thread scheduling,
        // but chunk order could vary; sorted vectors must be identical.
        let mut ta = a.triples.clone();
        let mut tb = b.triples.clone();
        ta.sort_by(f64::total_cmp);
        tb.sort_by(f64::total_cmp);
        assert_eq!(ta, tb);
    }

    #[test]
    fn t_tests_between_methods() {
        let kg = kgae_graph::datasets::nell();
        let wald = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wald,
            &EvalConfig::default(),
            30,
            1,
        );
        let same = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wald,
            &EvalConfig::default(),
            30,
            1,
        );
        let t = cost_t_test(&wald, &same).unwrap();
        assert!(!t.significant_at(0.01), "identical runs must not differ");
        let t2 = pooled_t_test(&wald.triples, &same.triples).unwrap();
        assert!((t2.t).abs() < 1e-9);
    }

    #[test]
    fn zero_width_halt_detector_counts_cluster_floor_halts() {
        // Regression: the old detector compared `observations ==
        // min_triples`, but cluster draws land in batches, so a run that
        // halts at its *first* stopping check usually holds 31–32
        // observations and was silently missed. YAGO (μ = 0.99) under
        // TWCS/Wald produces such floor halts with zero-width intervals
        // in a large fraction of runs.
        let kg = kgae_graph::datasets::yago();
        let reps = 60;
        let runs = repeat_evaluation(
            &kg,
            SamplingDesign::Twcs { m: 3 },
            &IntervalMethod::Wald,
            &EvalConfig::default(),
            reps,
            11,
        );
        assert!(
            runs.zero_width_halts > 0,
            "no zero-width floor halts detected on YAGO/TWCS/Wald"
        );

        // Demonstrate the miscount directly: among the individual runs,
        // floor halts with observations ≠ min_triples exist — exactly
        // the runs the old `observations == min_triples` test dropped.
        let cfg = EvalConfig::default();
        let prepared = crate::framework::PreparedDesign::new(&kg, SamplingDesign::Twcs { m: 3 });
        let mut overshooting_floor_halts = 0u64;
        for rep in 0..reps {
            let mut rng = SmallRng::seed_from_u64(11u64.wrapping_add(rep));
            let r = evaluate_prepared(
                &kg,
                &OracleAnnotator,
                &prepared,
                &IntervalMethod::Wald,
                &cfg,
                &mut rng,
            )
            .unwrap();
            if r.converged
                && r.interval.width() == 0.0
                && r.halted_at_floor
                && r.observations != cfg.min_triples
            {
                overshooting_floor_halts += 1;
            }
        }
        assert!(
            overshooting_floor_halts > 0,
            "expected floor halts whose observations overshoot min_triples"
        );
    }

    #[test]
    fn coverage_is_high_for_wilson() {
        let kg = kgae_graph::datasets::dbpedia();
        let runs = repeat_evaluation(
            &kg,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            60,
            5,
        );
        assert!(runs.coverage() > 0.85, "coverage = {}", runs.coverage());
    }
}
