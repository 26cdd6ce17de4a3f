//! Annotation models.
//!
//! The paper's framework obtains correctness labels from human annotators
//! (phase 2 of Figure 1). The reproduction simulates them as transforms of
//! the gold label: a perfect oracle (what the paper's experiments assume,
//! since their datasets *are* the gold labels) and a noisy single
//! annotator.

use rand::Rng;

/// A (possibly imperfect) annotator producing a correctness label given
/// the gold label.
pub trait Annotator: Send + Sync {
    /// Produces the label recorded for a triple whose gold label is
    /// `truth`.
    fn annotate<R: Rng + ?Sized>(&self, truth: bool, rng: &mut R) -> bool;
}

/// Reads the gold label verbatim — the paper's experimental setting.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleAnnotator;

impl Annotator for OracleAnnotator {
    #[inline]
    fn annotate<R: Rng + ?Sized>(&self, truth: bool, _rng: &mut R) -> bool {
        truth
    }
}

/// Flips the gold label with a fixed error probability — a single
/// imperfect crowd worker.
#[derive(Debug, Clone, Copy)]
pub struct NoisyAnnotator {
    /// Probability of recording the wrong label.
    pub error_rate: f64,
}

impl NoisyAnnotator {
    /// Creates a noisy annotator.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= error_rate <= 1`.
    #[must_use]
    pub fn new(error_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error_rate {error_rate} outside [0, 1]"
        );
        Self { error_rate }
    }
}

impl Annotator for NoisyAnnotator {
    fn annotate<R: Rng + ?Sized>(&self, truth: bool, rng: &mut R) -> bool {
        if rng.gen_bool(self.error_rate) {
            !truth
        } else {
            truth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn oracle_is_exact() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(OracleAnnotator.annotate(true, &mut rng));
            assert!(!OracleAnnotator.annotate(false, &mut rng));
        }
    }

    #[test]
    fn noisy_error_rate_is_calibrated() {
        let a = NoisyAnnotator::new(0.2);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100_000;
        let errors = (0..n).filter(|_| !a.annotate(true, &mut rng)).count();
        let rate = errors as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_error_rate_rejected() {
        let _ = NoisyAnnotator::new(1.5);
    }
}
