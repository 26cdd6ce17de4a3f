//! Probability distributions built on the scalar kernels of [`crate::special`].
//!
//! The central object is [`Beta`], the conjugate posterior family of the
//! whole credible-interval machinery. Its normalization constant
//! `ln B(α, β)` (three `ln_gamma` evaluations) is computed once at
//! construction and threaded through every `pdf` / `cdf` /
//! `window_mass` / `quantile` call via the `*_pre` kernel variants, so
//! repeated interval construction on one posterior never re-derives it.
//!
//! [`Binomial`], [`StudentT`] and [`Normal`] cover the remaining needs:
//! exact coverage sums, the significance tests of the experiment tables,
//! and log-normal cluster-size generation.

use crate::special::{
    betainc, betainc_inv_pre, betainc_pair_pre, betainc_pre, erfc, erfc_inv, ln_beta, ln_choose,
};
use crate::{Result, StatsError};
use rand::Rng;

fn check_positive(name: &'static str, v: f64) -> Result<()> {
    if !(v.is_finite() && v > 0.0) {
        return Err(StatsError::InvalidParameter {
            name,
            value: v,
            constraint: "must be finite and > 0",
        });
    }
    Ok(())
}

/// Qualitative shape of a `Beta(α, β)` density — the case analysis the
/// HPD solver dispatches on (paper Eq. 10/11 vs. the unimodal solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BetaShape {
    /// `α > 1, β > 1`: interior mode, the standard case.
    Unimodal,
    /// `α ≥ 1, β ≤ 1` (not both 1): density increasing toward 1 — the
    /// all-correct limiting case. Also `α, β > 1` when the mode rounds
    /// onto 1 (`β` a few ulps above 1): no interior peak is
    /// representable, so the posterior is its monotone limit.
    Increasing,
    /// `α ≤ 1, β ≥ 1` (not both 1): density decreasing from 0 — the
    /// all-incorrect limiting case. Also `α, β > 1` when the mode
    /// rounds onto 0.
    Decreasing,
    /// `α = β = 1`: the uniform density.
    Uniform,
    /// `α < 1, β < 1`: density diverging at both endpoints; the highest
    /// density region is not a single interval.
    UShaped,
}

/// The `Beta(α, β)` distribution with its normalization constant cached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
    /// `ln B(α, β)`, computed once.
    ln_norm: f64,
}

impl Beta {
    /// Creates `Beta(α, β)`, computing `ln B(α, β)` once.
    pub fn new(alpha: f64, beta: f64) -> Result<Beta> {
        check_positive("alpha", alpha)?;
        check_positive("beta", beta)?;
        Ok(Beta {
            alpha,
            beta,
            ln_norm: ln_beta(alpha, beta),
        })
    }

    /// Shape parameter `α`.
    #[must_use]
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Shape parameter `β`.
    #[must_use]
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Mean `α / (α + β)`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Variance `αβ / ((α+β)²(α+β+1))`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// Skewness `2(β−α)√(α+β+1) / ((α+β+2)√(αβ))` — negative for the
    /// right-leaning posteriors high-accuracy KGs produce.
    #[must_use]
    pub fn skewness(&self) -> f64 {
        let (a, b) = (self.alpha, self.beta);
        2.0 * (b - a) * (a + b + 1.0).sqrt() / ((a + b + 2.0) * (a * b).sqrt())
    }

    /// Interior mode `(α−1)/(α+β−2)` for unimodal shapes, `None`
    /// otherwise (monotone and U-shaped densities peak at the boundary).
    #[must_use]
    pub fn mode(&self) -> Option<f64> {
        match self.shape() {
            BetaShape::Unimodal => Some((self.alpha - 1.0) / (self.alpha + self.beta - 2.0)),
            _ => None,
        }
    }

    /// Qualitative density shape (see [`BetaShape`]).
    #[must_use]
    pub fn shape(&self) -> BetaShape {
        let (a, b) = (self.alpha, self.beta);
        if a > 1.0 && b > 1.0 {
            let mode = (a - 1.0) / (a + b - 2.0);
            if mode >= 1.0 {
                BetaShape::Increasing
            } else if mode <= 0.0 {
                BetaShape::Decreasing
            } else {
                BetaShape::Unimodal
            }
        } else if a < 1.0 && b < 1.0 {
            BetaShape::UShaped
        } else if a == 1.0 && b == 1.0 {
            BetaShape::Uniform
        } else if a >= 1.0 && b <= 1.0 {
            BetaShape::Increasing
        } else {
            BetaShape::Decreasing
        }
    }

    /// Natural log of the density at `x` (−∞ outside the support).
    #[must_use]
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return f64::NEG_INFINITY;
        }
        let (a, b) = (self.alpha, self.beta);
        if x == 0.0 {
            return match a.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Greater) => f64::NEG_INFINITY,
                Some(std::cmp::Ordering::Equal) => -self.ln_norm,
                _ => f64::INFINITY,
            };
        }
        if x == 1.0 {
            return match b.partial_cmp(&1.0) {
                Some(std::cmp::Ordering::Greater) => f64::NEG_INFINITY,
                Some(std::cmp::Ordering::Equal) => -self.ln_norm,
                _ => f64::INFINITY,
            };
        }
        (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - self.ln_norm
    }

    /// Density at `x` (0 outside the support; may be `+∞` at a boundary
    /// the density diverges toward).
    #[must_use]
    pub fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }

    /// CDF `I_x(α, β)`, using the cached normalization constant.
    ///
    /// Arguments outside `[0, 1]` clamp to the nearest bound (the CDF is
    /// constant there).
    ///
    /// # Panics
    ///
    /// Panics if the incomplete-beta continued fraction fails to
    /// converge — unobserved across the parameter regime the framework
    /// produces (`α, β ∈ [1/3, ~1e7]`), and indicating a kernel bug
    /// rather than a data condition if it ever fires.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        betainc_pre(self.alpha, self.beta, x.clamp(0.0, 1.0), self.ln_norm)
            .expect("betainc converges for validated Beta parameters")
    }

    /// Mass of the window `[l, u]`: `cdf(u) − cdf(l)`, bit for bit
    /// (negative when `l > u`), from one pass that advances both
    /// incomplete-beta continued fractions in lockstep, so it costs
    /// less than the two calls.
    ///
    /// # Panics
    ///
    /// As [`Beta::cdf`].
    #[must_use]
    pub fn window_mass(&self, l: f64, u: f64) -> f64 {
        let (fl, fu) = betainc_pair_pre(
            self.alpha,
            self.beta,
            l.clamp(0.0, 1.0),
            u.clamp(0.0, 1.0),
            self.ln_norm,
        )
        .expect("betainc converges for validated Beta parameters");
        fu - fl
    }

    /// Quantile function: solves `I_x(α, β) = p`, using the cached
    /// normalization constant.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        betainc_inv_pre(self.alpha, self.beta, p, self.ln_norm)
    }

    /// Draws one sample via the two-gamma construction
    /// `X/(X+Y), X ~ Γ(α), Y ~ Γ(β)` (Marsaglia–Tsang squeeze).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = sample_gamma(rng, self.alpha);
        let y = sample_gamma(rng, self.beta);
        if x + y == 0.0 {
            // Both gammas underflowed (tiny shapes): fall back on the
            // mean rather than dividing 0/0.
            return self.mean();
        }
        x / (x + y)
    }
}

/// Standard-normal sample (polar Box–Muller; allocation- and state-free).
fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Gamma(shape, 1) sample via Marsaglia–Tsang, with the `shape < 1`
/// boost `Γ(a) = Γ(a+1) · U^{1/a}`.
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0);
    if shape < 1.0 {
        let boost = rng.next_f64().max(f64::MIN_POSITIVE).powf(1.0 / shape);
        return sample_gamma(rng, shape + 1.0) * boost;
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = sample_std_normal(rng);
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        // Squeeze then full acceptance test.
        if u < 1.0 - 0.0331 * z * z * z * z || u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
            return d * v3;
        }
    }
}

/// The `Binomial(n, p)` distribution of annotation outcomes
/// `τ ~ Bin(n, μ)` — exact coverage and expected-width sums run on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates `Binomial(n, p)` with `n ≥ 1` trials.
    pub fn new(n: u64, p: f64) -> Result<Binomial> {
        if n == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(StatsError::InvalidProbability(p));
        }
        Ok(Binomial { n, p })
    }

    /// Number of trials `n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `np`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Probability mass at `k` (0 for `k > n`).
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        (ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln())
            .exp()
    }

    /// CDF `P(X ≤ k)` through the incomplete-beta identity
    /// `P(X ≤ k) = I_{1-p}(n-k, k+1)`.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0; // k < n here
        }
        betainc((self.n - k) as f64, k as f64 + 1.0, 1.0 - self.p)
            .expect("betainc converges for validated Binomial parameters")
    }
}

/// Student's t distribution, for the two-sample significance tests that
/// produce the paper's † / ‡ markers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    df: f64,
}

impl StudentT {
    /// Creates a t distribution with `df > 0` degrees of freedom
    /// (fractional allowed).
    pub fn new(df: f64) -> Result<StudentT> {
        check_positive("df", df)?;
        Ok(StudentT { df })
    }

    /// Degrees of freedom.
    #[must_use]
    pub fn df(&self) -> f64 {
        self.df
    }

    /// CDF through the incomplete-beta identity
    /// `P(T ≤ t) = 1 − ½ I_x(df/2, ½)` for `t ≥ 0`, `x = df/(df+t²)`.
    #[must_use]
    pub fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let half_tail = 0.5 * self.two_sided_p(t);
        if t > 0.0 {
            1.0 - half_tail
        } else {
            half_tail
        }
    }

    /// Two-sided p-value `P(|T| ≥ |t|) = I_x(df/2, ½)`.
    #[must_use]
    pub fn two_sided_p(&self, t: f64) -> f64 {
        if !t.is_finite() {
            return 0.0;
        }
        let x = self.df / (self.df + t * t);
        betainc(self.df / 2.0, 0.5, x).expect("betainc converges for validated StudentT parameters")
    }
}

/// The normal distribution (sampling + the standard CDF/quantile pair
/// behind `z_{α/2}` critical values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// The standard normal `N(0, 1)`.
    #[must_use]
    pub fn standard() -> Normal {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// `N(mean, sd²)` with `sd > 0`.
    pub fn new(mean: f64, sd: f64) -> Result<Normal> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                constraint: "must be finite",
            });
        }
        check_positive("sd", sd)?;
        Ok(Normal { mean, sd })
    }

    /// Mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Standard deviation.
    #[must_use]
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// CDF.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }

    /// Draws one sample (polar Box–Muller).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * sample_std_normal(rng)
    }
}

/// Standard normal CDF `Φ(x) = ½ erfc(−x/√2)`.
#[must_use]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Standard normal quantile `Φ⁻¹(p)`: an `erfc_inv`-based closed form
/// polished by one Newton step in CDF space (roundtrip error < 1e-12
/// across `p ∈ [1e-300, 1 − 1e-12]`).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
#[must_use]
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "std_normal_quantile: p = {p} outside (0, 1)"
    );
    let mut x = -std::f64::consts::SQRT_2 * erfc_inv(2.0 * p);
    // One Newton polish: x ← x − (Φ(x) − p)/φ(x). The density is
    // evaluated in log space so extreme tails stay finite.
    let ln_pdf = -0.5 * x * x - 0.5 * (2.0 * std::f64::consts::PI).ln();
    let pdf = ln_pdf.exp();
    if pdf > 0.0 {
        let step = (std_normal_cdf(x) - p) / pdf;
        if step.is_finite() {
            x -= step;
        }
    }
    x
}

/// `z` with upper-tail normal probability `p ∈ (0, 0.5]`, by the
/// rational approximation of Abramowitz & Stegun 26.2.23 (absolute error
/// below 4.5e-4): one `ln` and one `sqrt`. Only estimates use it: the
/// SRS stopping lookahead's start horizon (any start gives the same skip), a
/// session's up-front map room, and the gate that decides whether the
/// HPD stopping predicate tries its certified tail bound.
#[must_use]
pub fn upper_normal_quantile(p: f64) -> f64 {
    let t = (-2.0 * p.ln()).sqrt();
    t - (2.515_517 + t * (0.802_853 + t * 0.010_328))
        / (1.0 + t * (1.432_788 + t * (0.189_269 + t * 0.001_308)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::ln_gamma;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn assert_close(got: f64, want: f64, tol: f64, msg: &str) {
        assert!(
            (got - want).abs() < tol,
            "{msg}: got {got}, want {want} (|diff| = {:e})",
            (got - want).abs()
        );
    }

    #[test]
    fn beta_moments_and_accessors() {
        let d = Beta::new(3.0, 7.0).unwrap();
        assert_eq!(d.alpha(), 3.0);
        assert_eq!(d.beta(), 7.0);
        assert_close(d.mean(), 0.3, 1e-15, "mean");
        assert_close(d.variance(), 21.0 / (100.0 * 11.0), 1e-15, "variance");
        assert_close(d.mode().unwrap(), 0.25, 1e-15, "mode");
    }

    #[test]
    fn beta_shapes_cover_all_cases() {
        assert_eq!(Beta::new(2.0, 2.0).unwrap().shape(), BetaShape::Unimodal);
        assert_eq!(Beta::new(0.5, 0.5).unwrap().shape(), BetaShape::UShaped);
        assert_eq!(Beta::new(1.0, 1.0).unwrap().shape(), BetaShape::Uniform);
        assert_eq!(Beta::new(30.0, 0.5).unwrap().shape(), BetaShape::Increasing);
        assert_eq!(Beta::new(2.0, 1.0).unwrap().shape(), BetaShape::Increasing);
        assert_eq!(Beta::new(1.0, 0.5).unwrap().shape(), BetaShape::Increasing);
        assert_eq!(Beta::new(0.5, 30.0).unwrap().shape(), BetaShape::Decreasing);
        assert_eq!(Beta::new(1.0, 2.0).unwrap().shape(), BetaShape::Decreasing);
        assert_eq!(Beta::new(0.5, 1.0).unwrap().shape(), BetaShape::Decreasing);
        assert!(Beta::new(30.0, 0.5).unwrap().mode().is_none());
        // A mode that rounds onto the boundary classifies as the
        // monotone limit it rounds to.
        let eps = 2.0 * f64::EPSILON;
        assert_eq!(
            Beta::new(10.0, 1.0 + eps).unwrap().shape(),
            BetaShape::Increasing
        );
        assert!(Beta::new(10.0, 1.0 + eps).unwrap().mode().is_none());
        assert_eq!(
            Beta::new(10.0, 1.0 + 1e-9).unwrap().shape(),
            BetaShape::Unimodal
        );
    }

    #[test]
    fn beta_pdf_integrates_against_cdf() {
        // Trapezoid integration of the pdf reproduces CDF differences.
        let d = Beta::new(27.5, 3.5).unwrap();
        let (lo, hi) = (0.7, 0.95);
        let steps = 20_000;
        let h = (hi - lo) / steps as f64;
        let mut acc = 0.0;
        for i in 0..steps {
            let x0 = lo + i as f64 * h;
            acc += 0.5 * (d.pdf(x0) + d.pdf(x0 + h)) * h;
        }
        assert_close(acc, d.cdf(hi) - d.cdf(lo), 1e-8, "∫pdf = ΔCDF");
    }

    #[test]
    fn beta_cdf_quantile_roundtrip() {
        let d = Beta::new(96.5, 4.5).unwrap();
        for &p in &[0.001, 0.025, 0.5, 0.975, 0.999] {
            let x = d.quantile(p).unwrap();
            assert_close(d.cdf(x), p, 1e-10, "roundtrip");
        }
    }

    #[test]
    fn cached_normalizer_matches_direct_kernels() {
        for &(a, b) in &[
            (1.0 / 3.0, 1.0 / 3.0),
            (0.5, 30.5),
            (27.5, 3.5),
            (5000.0, 100.0),
        ] {
            let d = Beta::new(a, b).unwrap();
            assert_close(d.ln_norm, ln_beta(a, b), 1e-13, "cached ln B");
            for &x in &[0.01, 0.3, 0.9, 0.999] {
                assert_close(d.cdf(x), betainc(a, b, x).unwrap(), 1e-13, "cdf vs betainc");
            }
        }
    }

    #[test]
    fn beta_sampling_matches_moments() {
        let d = Beta::new(8.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert_close(mean, d.mean(), 0.005, "sample mean");
        assert_close(var, d.variance(), 0.002, "sample variance");
    }

    #[test]
    fn beta_sampling_small_shapes() {
        // The a < 1 boost path (Kerman prior Beta(1/3, 1/3)).
        let d = Beta::new(1.0 / 3.0, 1.0 / 3.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert_close(mean, 0.5, 0.01, "U-shaped sample mean");
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        let d = Binomial::new(40, 0.91).unwrap();
        let total: f64 = (0..=40).map(|k| d.pmf(k)).sum();
        assert_close(total, 1.0, 1e-12, "Σpmf");
        assert_close(d.mean(), 36.4, 1e-12, "mean");
    }

    #[test]
    fn binomial_cdf_matches_pmf_prefix_sums() {
        let d = Binomial::new(25, 0.3).unwrap();
        let mut acc = 0.0;
        for k in 0..=25 {
            acc += d.pmf(k);
            assert_close(d.cdf(k), acc.min(1.0), 1e-11, "cdf prefix");
        }
    }

    #[test]
    fn binomial_boundary_probabilities() {
        let zero = Binomial::new(10, 0.0).unwrap();
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.cdf(0), 1.0);
        let one = Binomial::new(10, 1.0).unwrap();
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.cdf(9), 0.0);
        assert!(Binomial::new(0, 0.5).is_err());
        assert!(Binomial::new(5, 1.5).is_err());
    }

    #[test]
    fn student_t_known_quantiles() {
        // Classic table values: t_{0.975, 10} = 2.228139.
        let d = StudentT::new(10.0).unwrap();
        assert_close(d.cdf(2.228139), 0.975, 1e-6, "t table");
        assert_close(d.two_sided_p(2.228139), 0.05, 2e-6, "two-sided");
        assert_close(d.cdf(0.0), 0.5, 1e-15, "median");
        // Large df approaches the normal.
        let big = StudentT::new(5_000.0).unwrap();
        assert_close(big.cdf(1.96), std_normal_cdf(1.96), 5e-4, "normal limit");
    }

    #[test]
    fn normal_cdf_quantile_roundtrip_and_sampling() {
        for &p in &[1e-10, 1e-6, 0.025, 0.5, 0.975, 1.0 - 1e-9] {
            let x = std_normal_quantile(p);
            assert_close(std_normal_cdf(x), p, 1e-12, "Φ(Φ⁻¹(p))");
        }
        assert_close(
            std_normal_quantile(0.975),
            1.959963984540054,
            1e-9,
            "z_0.975",
        );

        let d = Normal::new(3.0, 2.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 50_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert_close(mean, 3.0, 0.03, "normal sample mean");
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn upper_normal_quantile_is_within_its_stated_error() {
        for (p, z) in [
            (0.005, 2.575_829),
            (0.025, 1.959_964),
            (0.05, 1.644_854),
            (0.5, 0.0),
        ] {
            assert!((upper_normal_quantile(p) - z).abs() < 4.5e-4, "p = {p}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, f64::NAN).is_err());
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-3.0).is_err());
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn quantile_rejects_boundary_p() {
        let _ = std_normal_quantile(1.0);
    }

    // ln_gamma is pulled in for the doc claim that construction costs
    // three evaluations; keep the import honest under dead-code lints.
    #[test]
    fn ln_norm_is_three_ln_gammas() {
        let (a, b) = (4.5, 2.5);
        let d = Beta::new(a, b).unwrap();
        assert_close(
            d.ln_norm,
            ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b),
            1e-13,
            "definition",
        );
    }
}
