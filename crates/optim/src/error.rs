use std::fmt;

/// Errors produced by the optimization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The provided bracket does not contain a sign change / minimum.
    InvalidBracket {
        /// Left end of the offending bracket.
        lo: f64,
        /// Right end of the offending bracket.
        hi: f64,
    },
    /// An iteration limit was reached before convergence.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::InvalidBracket { lo, hi } => {
                write!(f, "invalid bracket [{lo}, {hi}]")
            }
            OptimError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(OptimError::InvalidBracket { lo: 0.0, hi: 1.0 }
            .to_string()
            .contains("[0, 1]"));
        assert!(OptimError::NoConvergence {
            algorithm: "newton-hpd",
            iterations: 100
        }
        .to_string()
        .contains("newton-hpd"));
    }
}
