//! # kgae-stats
//!
//! Statistical substrate for knowledge-graph accuracy estimation.
//!
//! The KG accuracy-evaluation methods of Marchesin & Silvello (SIGMOD 2025)
//! need SciPy-grade special functions (regularized incomplete beta and its
//! inverse, error function, log-gamma), probability distributions (Beta,
//! Normal, Binomial, Student-t, Gamma) and two-sample significance tests.
//! The Rust ecosystem offers no single vetted crate covering all of these,
//! so this crate implements them from scratch with extensive unit and
//! property-based tests.
//!
//! ## Layout
//!
//! * [`special`] — scalar special functions (`ln_gamma`, `erf`, `betainc`,
//!   `betainc_inv`, `gammainc`, ...). These are the numerical kernels.
//! * [`dist`] — distribution objects built on top of the kernels, exposing
//!   `pdf` / `cdf` / `quantile` / `sample` in a uniform style.
//! * [`descriptive`] — summary statistics (Welford online moments,
//!   mean ± std summaries used by the experiment tables).
//! * [`hash`] — the SplitMix64 mixer and the integer hasher of the
//!   workspace's maps keyed by program-generated integers.
//! * [`htest`] — the pooled two-sample t-test used for the
//!   significance daggers in Tables 2–4 of the paper.
//!
//! ## Example
//!
//! ```
//! use kgae_stats::dist::Beta;
//!
//! // Posterior after observing 9 correct / 1 incorrect triples under a
//! // Jeffreys prior Beta(1/2, 1/2).
//! let post = Beta::new(0.5 + 9.0, 0.5 + 1.0).unwrap();
//! let p = post.cdf(0.95) - post.cdf(0.60);
//! assert!(p > 0.5); // most of the mass sits in (0.60, 0.95)
//! let q = post.quantile(0.975).unwrap();
//! assert!((post.cdf(q) - 0.975).abs() < 1e-10);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod descriptive;
pub mod dist;
mod error;
pub mod hash;
pub mod htest;
pub mod special;

pub use error::StatsError;

/// Convenience alias for fallible statistical computations.
pub type Result<T> = std::result::Result<T, StatsError>;
