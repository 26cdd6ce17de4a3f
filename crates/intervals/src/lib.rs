//! # kgae-intervals
//!
//! Every `1-α` interval method the paper evaluates, under one roof:
//!
//! * frequentist confidence intervals — [`wald_srs`] / [`wald_from_variance`]
//!   (§3.1), [`wilson`] (§3.2), plus [`agresti_coull`] and
//!   [`clopper_pearson`] as extra baselines for the coverage ablation;
//! * Bayesian credible intervals on the conjugate Beta–Binomial model —
//!   [`et_interval`] (§4.2) and [`hpd_interval`] (§4.3, computed the way
//!   the paper computes it: SLSQP with the ET interval as warm start, and
//!   closed forms Eq. 10/11 in the limiting cases);
//! * [`hpd_interval_exact`] — an exact solver for the same optimum
//!   (Newton on the width of the best-placed window, started from the
//!   certified bound [`hpd_width_lower_bound`]), the solver behind every
//!   engine path: SRS campaigns, cluster designs and the monitor's
//!   appraisal;
//! * [`BetaPrior`] — Kerman / Jeffreys / Uniform uninformative priors and
//!   informative priors, with integer and design-effect-adjusted
//!   fractional posterior updates;
//! * [`expected`] — expected-width curves over the annotation
//!   distribution (Figure 3).
//!
//! ```
//! use kgae_intervals::{BetaPrior, hpd_interval, et_interval};
//!
//! // 27 of 30 annotated triples correct, Kerman prior, 95% level.
//! let post = BetaPrior::KERMAN.posterior(27, 30);
//! let hpd = hpd_interval(&post, 0.05).unwrap();
//! let et = et_interval(&post, 0.05).unwrap();
//! assert!(hpd.width() <= et.width()); // Theorem 1
//! assert!(hpd.contains(0.9));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod et;
pub mod expected;
mod frequentist;
mod hpd;
pub mod kernel;
pub mod pooled;
mod prior;
mod types;

pub use error::IntervalError;
pub use et::et_interval;
pub use frequentist::{
    agresti_coull, clopper_pearson, wald_from_variance, wald_srs, wilson, z_critical,
};
pub use hpd::{
    hpd_interval, hpd_interval_exact, hpd_interval_warm, hpd_width_achievable,
    hpd_width_lower_bound,
};
pub use kernel::{Kernel, KernelCache, KernelCacheStats};
pub use pooled::{pooled_interval, pooled_point, pooled_variance, StratumSummary};
pub use prior::BetaPrior;
pub use types::Interval;
