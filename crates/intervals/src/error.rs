use kgae_optim::OptimError;
use kgae_stats::StatsError;
use std::fmt;

/// Errors from interval construction.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalError {
    /// A statistical kernel failed (bad parameters, no convergence).
    Stats(StatsError),
    /// The HPD solver failed.
    Optim(OptimError),
    /// The posterior is U-shaped (`α < 1` and `β < 1`), where the highest
    /// density region is a *union of two intervals* and no single HPD
    /// interval exists. Zero annotations under a sub-uniform prior
    /// produce it, and so do cluster designs with little effective
    /// evidence: Kerman at `n_eff = 1`, `μ̂ = 0.5` is `Beta(0.83, 0.83)`.
    /// The evaluation engines map it to the uninformative `[0, 1]`
    /// interval.
    UShapedPosterior {
        /// Posterior α parameter.
        alpha: f64,
        /// Posterior β parameter.
        beta: f64,
    },
}

impl fmt::Display for IntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntervalError::Stats(e) => write!(f, "stats error: {e}"),
            IntervalError::Optim(e) => write!(f, "optimization error: {e}"),
            IntervalError::UShapedPosterior { alpha, beta } => write!(
                f,
                "Beta({alpha}, {beta}) is U-shaped: the HPD region is not a single interval"
            ),
        }
    }
}

impl std::error::Error for IntervalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IntervalError::Stats(e) => Some(e),
            IntervalError::Optim(e) => Some(e),
            IntervalError::UShapedPosterior { .. } => None,
        }
    }
}

impl From<StatsError> for IntervalError {
    fn from(e: StatsError) -> Self {
        IntervalError::Stats(e)
    }
}

impl From<OptimError> for IntervalError {
    fn from(e: OptimError) -> Self {
        IntervalError::Optim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: IntervalError = StatsError::InvalidProbability(2.0).into();
        assert!(e.to_string().contains("stats"));
        let e: IntervalError = OptimError::InvalidBracket { lo: 0.0, hi: 1.0 }.into();
        assert!(e.to_string().contains("optimization"));
        let e = IntervalError::UShapedPosterior {
            alpha: 0.5,
            beta: 0.5,
        };
        assert!(e.to_string().contains("U-shaped"));
    }
}
