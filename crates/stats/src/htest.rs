//! Two-sample hypothesis tests.
//!
//! The paper marks table cells with † / ‡ when "standard independent
//! t-tests" find the aHPD vs. Wald / Wilson difference significant at
//! `p < 0.01` (§6.3); the experiment harness runs the classic
//! pooled-variance test to match the paper's wording.

use crate::descriptive::{mean, sample_variance};
use crate::dist::StudentT;
use crate::{Result, StatsError};

/// Outcome of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TTestResult {
    /// True when the two-sided p-value is below `alpha`.
    #[must_use]
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Standard (pooled-variance) independent two-sample t-test.
pub fn pooled_t_test(xs: &[f64], ys: &[f64]) -> Result<TTestResult> {
    check_sizes(xs, ys)?;
    pooled_t_test_from_summary(
        mean(xs),
        sample_variance(xs),
        xs.len() as f64,
        mean(ys),
        sample_variance(ys),
        ys.len() as f64,
    )
}

/// Pooled t-test from sufficient statistics (mean, sample variance, n).
pub fn pooled_t_test_from_summary(
    m1: f64,
    v1: f64,
    n1: f64,
    m2: f64,
    v2: f64,
    n2: f64,
) -> Result<TTestResult> {
    let df = n1 + n2 - 2.0;
    if df < 1.0 {
        return Err(StatsError::InsufficientData {
            needed: 3,
            got: (n1 + n2) as usize,
        });
    }
    let pooled = ((n1 - 1.0) * v1 + (n2 - 1.0) * v2) / df;
    let se = (pooled * (1.0 / n1 + 1.0 / n2)).sqrt();
    finish(m1 - m2, se, df)
}

fn check_sizes(xs: &[f64], ys: &[f64]) -> Result<()> {
    if xs.len() < 2 || ys.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: xs.len().min(ys.len()),
        });
    }
    Ok(())
}

fn finish(diff: f64, se: f64, df: f64) -> Result<TTestResult> {
    if se == 0.0 {
        // Both samples are constants: identical means ⇒ p = 1, otherwise
        // the difference is exact ⇒ p = 0.
        return Ok(TTestResult {
            t: if diff == 0.0 { 0.0 } else { f64::INFINITY },
            df,
            p_value: if diff == 0.0 { 1.0 } else { 0.0 },
        });
    }
    let t = diff / se;
    let dist = StudentT::new(df)?;
    Ok(TTestResult {
        t,
        df,
        p_value: dist.two_sided_p(t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_not_significant() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = pooled_t_test(&xs, &xs).unwrap();
        assert!(r.t.abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!(!r.significant_at(0.01));
    }

    #[test]
    fn textbook_pooled_example() {
        // Two small samples with a clear mean shift.
        let a = [30.02, 29.99, 30.11, 29.97, 30.01, 29.99];
        let b = [29.89, 29.93, 29.72, 29.98, 30.02, 29.98];
        let r = pooled_t_test(&a, &b).unwrap();
        // Known worked example: t ≈ 1.959, df = 10.
        assert!((r.t - 1.959).abs() < 5e-3, "t = {}", r.t);
        assert_eq!(r.df, 10.0);
        assert!(r.p_value > 0.05 && r.p_value < 0.10, "p = {}", r.p_value);
    }

    #[test]
    fn large_shift_is_significant_at_one_percent() {
        let xs: Vec<f64> = (0..100).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        let ys: Vec<f64> = (0..100).map(|i| 11.0 + (i % 7) as f64 * 0.1).collect();
        let r = pooled_t_test(&xs, &ys).unwrap();
        assert!(r.significant_at(0.01));
        assert!(r.t < 0.0);
    }

    #[test]
    fn summary_interface_matches_sample_interface() {
        let xs = [5.0, 6.0, 7.5, 4.5, 6.5, 5.5];
        let ys = [6.2, 7.0, 8.1, 6.9, 7.4];
        let from_samples = pooled_t_test(&xs, &ys).unwrap();
        let from_summary = pooled_t_test_from_summary(
            mean(&xs),
            sample_variance(&xs),
            xs.len() as f64,
            mean(&ys),
            sample_variance(&ys),
            ys.len() as f64,
        )
        .unwrap();
        assert!((from_samples.t - from_summary.t).abs() < 1e-12);
        assert!((from_samples.p_value - from_summary.p_value).abs() < 1e-12);
    }

    #[test]
    fn degenerate_zero_variance() {
        let xs = [2.0, 2.0, 2.0];
        let ys = [3.0, 3.0, 3.0];
        let r = pooled_t_test(&xs, &ys).unwrap();
        assert_eq!(r.p_value, 0.0);
        let r = pooled_t_test(&xs, &xs).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn insufficient_data_is_an_error() {
        assert!(pooled_t_test(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pooled_t_test(&[1.0, 2.0], &[]).is_err());
    }
}
