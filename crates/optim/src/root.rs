//! Bracketed scalar root finding.
//!
//! The HPD problem reduces to a single root: find `l` with
//! `f(l) = f(u(l))` where `u(l)` tracks the coverage constraint. Brent's
//! method solves that reduction independently of the exact HPD solver
//! (Newton on the window width), so the interval tests use it as their
//! oracle.

use crate::{OptimError, Result};

/// Configuration for the root finder.
#[derive(Debug, Clone, Copy)]
pub struct RootConfig {
    /// Absolute tolerance on the root location.
    pub xtol: f64,
    /// Maximum number of iterations.
    pub max_iter: usize,
}

impl Default for RootConfig {
    fn default() -> Self {
        Self {
            xtol: 1e-13,
            max_iter: 200,
        }
    }
}

/// Finds a root of `f` in `[a, b]` with Brent's method.
///
/// Combines bisection, secant, and inverse quadratic interpolation
/// (Brent 1973). Requires `f(a)` and `f(b)` to have opposite signs.
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, cfg: RootConfig) -> Result<f64> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa * fb > 0.0 {
        return Err(OptimError::InvalidBracket { lo: a, hi: b });
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut e = d;

    for _ in 0..cfg.max_iter {
        if fb.abs() > fc.abs() {
            // Ensure b is the best approximation, c the previous one.
            a = b;
            b = c;
            c = a;
            fa = fb;
            fb = fc;
            fc = fa;
        }
        let tol1 = 2.0 * f64::EPSILON * b.abs() + 0.5 * cfg.xtol;
        let xm = 0.5 * (c - b);
        if xm.abs() <= tol1 || fb == 0.0 {
            return Ok(b);
        }
        if e.abs() >= tol1 && fa.abs() > fb.abs() {
            // Attempt inverse quadratic interpolation / secant.
            let s = fb / fa;
            let (mut p, mut q);
            if a == c {
                p = 2.0 * xm * s;
                q = 1.0 - s;
            } else {
                let qq = fa / fc;
                let r = fb / fc;
                p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
            }
            if p > 0.0 {
                q = -q;
            }
            p = p.abs();
            let min1 = 3.0 * xm * q - (tol1 * q).abs();
            let min2 = (e * q).abs();
            if 2.0 * p < min1.min(min2) {
                // Interpolation accepted.
                e = d;
                d = p / q;
            } else {
                // Fall back to bisection.
                d = xm;
                e = d;
            }
        } else {
            d = xm;
            e = d;
        }
        a = b;
        fa = fb;
        b += if d.abs() > tol1 { d } else { tol1.copysign(xm) };
        fb = f(b);
        if (fb > 0.0) == (fc > 0.0) {
            c = a;
            fc = fa;
            d = b - a;
            e = d;
        }
    }
    Err(OptimError::NoConvergence {
        algorithm: "brent",
        iterations: cfg.max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_polynomial_roots() {
        // x³ - 2x - 5 = 0 has the classic Brent test root ≈ 2.0945514815.
        let r = brent(
            |x| x * x * x - 2.0 * x - 5.0,
            2.0,
            3.0,
            RootConfig::default(),
        )
        .unwrap();
        assert!((r - 2.094551481542327).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        let r = brent(|x: f64| x.cos() - x, 0.0, 1.0, RootConfig::default()).unwrap();
        assert!((r - 0.7390851332151607).abs() < 1e-12);
    }

    #[test]
    fn brent_exact_endpoint_roots() {
        assert_eq!(brent(|x| x, 0.0, 1.0, RootConfig::default()).unwrap(), 0.0);
        assert_eq!(
            brent(|x| x - 1.0, 0.0, 1.0, RootConfig::default()).unwrap(),
            1.0
        );
    }

    #[test]
    fn brent_rejects_bad_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, RootConfig::default()),
            Err(OptimError::InvalidBracket { .. })
        ));
    }

    #[test]
    fn flat_then_steep_function() {
        // A shape similar to beta-density differences: nearly flat near one
        // end, steep near the other.
        let f = |x: f64| x.powi(9) - 1e-4;
        let r = brent(f, 0.0, 1.0, RootConfig::default()).unwrap();
        assert!((r - 1e-4f64.powf(1.0 / 9.0)).abs() < 1e-9);
    }
}
