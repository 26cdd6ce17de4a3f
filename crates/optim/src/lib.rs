//! # kgae-optim
//!
//! Bracketed root finding and the error type of the HPD interval solver.
//!
//! The HPD interval is computed by an exact solver in `kgae-intervals`
//! (Newton on the width of the best-placed window), which needs no
//! general-purpose optimizer. This crate provides:
//!
//! * [`root`] — Brent's bracketed root finder, the independent test
//!   oracle for the exact HPD solver;
//! * [`OptimError`] — the failure type the HPD solver reports.
//!
//! Everything is `f64`, allocation-free, and panic-free on valid input.
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

pub mod root;

mod error;

pub use error::OptimError;

/// Convenience alias for fallible optimization routines.
pub type Result<T> = std::result::Result<T, OptimError>;
