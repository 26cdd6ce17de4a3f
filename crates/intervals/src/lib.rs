//! # kgae-intervals
//!
//! Every `1-α` interval method the paper evaluates, under one roof:
//!
//! * frequentist confidence intervals — [`wald_from_variance`] (§3.1),
//!   [`wilson`] (§3.2), plus [`clopper_pearson`] as an extra baseline
//!   for the coverage ablation;
//! * Bayesian credible intervals on the conjugate Beta–Binomial model —
//!   [`et_interval`] (§4.2) and [`hpd_interval_exact`] (§4.3): the
//!   paper's unique shortest `1-α` interval (Theorems 1–2), solved
//!   exactly by Newton on the width of the best-placed window, started
//!   from the certified bound [`hpd_width_lower_bound`], with closed
//!   forms Eq. 10/11 in the limiting cases. It is the solver behind
//!   every engine path (SRS campaigns, cluster designs, and the
//!   moment-matched pooled posteriors of stratified campaigns and the
//!   monitor's appraisal, which `kgae-core` pools) and the figure
//!   binaries;
//! * [`BetaPrior`] — Kerman / Jeffreys / Uniform uninformative priors and
//!   informative priors, with integer and design-effect-adjusted
//!   fractional posterior updates;
//! * [`expected`] — expected-width curves over the annotation
//!   distribution (Figure 3);
//! * [`boundary`] — the stopping boundary, a shared table answering
//!   the stopping certificate [`hpd_width_achievable`] by counts (SRS)
//!   and by effective evidence (cluster designs), and
//!   [`kernel`] — the shared memo table of count-keyed interval solves.
//!
//! ```
//! use kgae_intervals::{BetaPrior, hpd_interval_exact, et_interval};
//!
//! // 27 of 30 annotated triples correct, Kerman prior, 95% level.
//! let post = BetaPrior::KERMAN.posterior(27, 30);
//! let hpd = hpd_interval_exact(&post, 0.05).unwrap();
//! let et = et_interval(&post, 0.05).unwrap();
//! assert!(hpd.width() <= et.width()); // Theorem 1
//! assert!(hpd.contains(0.9));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod boundary;
mod error;
mod et;
pub mod expected;
mod frequentist;
mod hpd;
pub mod kernel;
mod prior;
mod types;

pub use boundary::Boundary;
pub use error::IntervalError;
pub use et::et_interval;
pub use frequentist::{clopper_pearson, wald_from_variance, wilson, z_critical};
pub use hpd::{
    hpd_interval, hpd_interval_exact, hpd_interval_warm, hpd_width_achievable,
    hpd_width_lower_bound,
};
pub use kernel::{Kernel, KernelCache, KernelCacheStats};
pub use prior::BetaPrior;
pub use types::Interval;
