//! Scalar special functions.
//!
//! These are the numerical kernels every interval method in the paper rests
//! on: beta quantiles drive ET credible intervals and the HPD initial guess
//! (paper Eq. 9–11), the error function drives normal critical values for
//! Wald/Wilson (Eq. 5, 7), and log-gamma underpins all beta/binomial
//! densities. Accuracy targets are ~1e-13 relative error in the regions the
//! framework exercises (`a, b` in `[1/3, 1e7]`, probabilities in
//! `[1e-12, 1 - 1e-12]`), verified in the test suites of this module.

mod beta_fn;
mod erf;
mod gamma;
mod gamma_inc;

pub(crate) use beta_fn::betainc_pair_pre;
pub use beta_fn::{betainc, betainc_inv, betainc_inv_pre, betainc_pre, ln_beta};
pub use erf::{erf, erfc, erfc_inv};
pub use gamma::{ln_choose, ln_gamma};
pub use gamma_inc::{gammainc_lower, gammainc_upper};

/// Machine-level relative tolerance used by the iterative kernels.
pub(crate) const EPS: f64 = 3.0e-16;

/// Smallest representable magnitude guard used by continued fractions
/// (modified Lentz algorithm) to avoid division by zero.
pub(crate) const FPMIN: f64 = 1.0e-300;
