//! # kgae-optim
//!
//! Numerical optimization substrate for the HPD credible-interval solver.
//!
//! The paper computes Highest Posterior Density intervals by minimizing the
//! interval width `u - l` under the coverage constraint
//! `F(u) - F(l) = 1 - α` with both endpoints bounded to `[0, 1]`, using the
//! SLSQP sequential-quadratic-programming method (Kraft 1988). This crate
//! provides:
//!
//! * [`slsqp`] — a dense SQP solver for small smooth problems with equality
//!   constraints and box bounds (damped BFGS Hessian approximation,
//!   primal active-set QP subproblems, L1-merit backtracking line search);
//! * [`root`] — bracketed root finding (bisection and Brent), the test
//!   oracle for the exact HPD solver;
//! * [`linalg`] — the small dense LU factorization backing the QP solves.
//!
//! Everything is `f64`, allocation-light, and panic-free on valid input.
//!
//! ## Example
//!
//! ```
//! use kgae_optim::root::{brent, RootConfig};
//!
//! // The golden ratio is the positive root of x² − x − 1.
//! let phi = brent(|x| x * x - x - 1.0, 1.0, 2.0, RootConfig::default()).unwrap();
//! assert!((phi - 1.618_033_988_749_895).abs() < 1e-10);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod linalg;
pub mod root;
pub mod slsqp;

mod error;

pub use error::OptimError;

/// Convenience alias for fallible optimization routines.
pub type Result<T> = std::result::Result<T, OptimError>;
