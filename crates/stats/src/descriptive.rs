//! Descriptive statistics.
//!
//! The experiment tables report `mean ± std` over 1000 repeated evaluation
//! runs; [`OnlineMoments`] (Welford's algorithm) accumulates those without
//! storing the raw samples, and [`Summary`] formats them the way the paper
//! prints table cells (`96 ± 44`).

use std::fmt;

/// Arithmetic mean of a slice. Returns `NaN` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (`n - 1` denominator). `NaN` if `n < 2`.
#[must_use]
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
#[must_use]
pub fn std_dev(xs: &[f64]) -> f64 {
    sample_variance(xs).sqrt()
}

/// Linear-interpolation percentile (`q ∈ [0, 1]`) of unsorted data.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=1.0).contains(&q), "percentile q = {q} outside [0,1]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = pos - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Median (50th percentile).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Welford online accumulator for count / mean / variance.
///
/// Numerically stable for long streams and mergeable across threads, which
/// is how the parallel repetition runner aggregates per-worker results.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (`NaN` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`NaN` when `n < 2`).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Sum of squared deviations from the mean (`Σ(x_i − x̄)²`, Welford's
    /// `M2`).
    #[must_use]
    pub fn sum_sq_dev(&self) -> f64 {
        self.m2
    }

    /// Snapshot as a [`Summary`].
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            mean: self.mean(),
            std: self.std_dev(),
            n: self.n,
        }
    }
}

/// `mean ± std` over `n` repetitions — one cell of a paper table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean over the repetitions.
    pub mean: f64,
    /// Sample standard deviation over the repetitions.
    pub std: f64,
    /// Number of repetitions.
    pub n: u64,
}

impl Summary {
    /// Summarizes a slice of observations.
    #[must_use]
    pub fn from_slice(xs: &[f64]) -> Self {
        Self {
            mean: mean(xs),
            std: std_dev(xs),
            n: xs.len() as u64,
        }
    }

    /// Formats as the paper prints integer-valued cells, e.g. `96 ± 44`.
    #[must_use]
    pub fn display_int(&self) -> String {
        format!("{:.0} ± {:.0}", self.mean, self.std)
    }

    /// Formats with two decimals, e.g. `1.76 ± 0.79` (cost columns).
    #[must_use]
    pub fn display_2dp(&self) -> String {
        format!("{:.2} ± {:.2}", self.mean, self.std)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.std, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-15);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert!(mean(&[]).is_nan());
        assert!(sample_variance(&[1.0]).is_nan());
        assert_eq!(mean(&[42.0]), 42.0);
    }

    #[test]
    fn percentile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-15);
        assert!((percentile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 7919) % 101) as f64 * 0.37)
            .collect();
        let mut acc = OnlineMoments::new();
        for &x in &xs {
            acc.push(x);
        }
        assert_eq!(acc.count(), 1000);
        assert!((acc.mean() - mean(&xs)).abs() < 1e-10);
        assert!((acc.sample_variance() - sample_variance(&xs)).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineMoments::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineMoments::new();
        let mut right = OnlineMoments::new();
        for &x in &xs[..123] {
            left.push(x);
        }
        for &x in &xs[123..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineMoments::new();
        a.push(1.0);
        a.push(3.0);
        let before = a;
        a.merge(&OnlineMoments::new());
        assert_eq!(a, before);

        let mut empty = OnlineMoments::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summary_formatting_matches_paper_style() {
        let s = Summary {
            mean: 96.4,
            std: 43.8,
            n: 1000,
        };
        assert_eq!(s.display_int(), "96 ± 44");
        let c = Summary {
            mean: 1.758,
            std: 0.789,
            n: 1000,
        };
        assert_eq!(c.display_2dp(), "1.76 ± 0.79");
    }
}
