//! `Beta::window_mass(l, u)` is `cdf(u) − cdf(l)`, bit for bit: the
//! one-pass window runs the same continued-fraction step as `cdf`, two
//! lanes at a time. A grid covers every path (endpoints, the quadrature
//! for large parameters, both continued-fraction branches, each lane
//! converging first) and every shape; an ignored sweep checks random
//! inputs:
//!
//! ```sh
//! cargo test --release -p kgae-stats --test window_mass -- --ignored
//! ```

use kgae_stats::dist::Beta;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Asserts the window mass equals the difference of the two CDFs in bits.
fn assert_bit_identical(post: &Beta, l: f64, u: f64) {
    let want = post.cdf(u) - post.cdf(l);
    let got = post.window_mass(l, u);
    assert!(
        got.to_bits() == want.to_bits(),
        "Beta({}, {}) on [{l:e}, {u:e}]: window_mass {got:e}, cdf difference {want:e}",
        post.alpha(),
        post.beta()
    );
}

#[test]
fn window_mass_is_the_cdf_difference_on_a_grid() {
    let shapes = [
        // Unimodal: priors' posteriors, KG-like skews, symmetric.
        (2.0, 2.0),
        (27.33, 3.33),
        (96.5, 4.5),
        (180.0, 20.5),
        (1000.0, 3.0),
        (2999.0, 2999.0),
        // Quadrature path (a, b > 3000), and one side just below it.
        (3001.0, 3001.0),
        (5000.0, 200.0),
        (20_000.0, 3500.0),
        // Monotone shapes: the all-correct and all-incorrect limits.
        (30.0 + 1.0 / 3.0, 1.0 / 3.0),
        (1.0 / 3.0, 30.0 + 1.0 / 3.0),
        (5.0, 1.0),
        (1.0, 5.0),
        // Uniform and U-shaped.
        (1.0, 1.0),
        (0.5, 0.5),
        (0.83, 0.83),
    ];
    let xs = [
        0.0, 1e-300, 1e-12, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.85, 0.9, 0.93, 0.95, 0.97, 0.99,
        0.999_999, 1.0,
    ];
    for &(a, b) in &shapes {
        let post = Beta::new(a, b).unwrap();
        // The continued fraction's transition point and its neighbours,
        // where one lane switches to the mirrored fraction.
        let pivot = (a + 1.0) / (a + b + 2.0);
        let extra = [pivot, pivot.next_up(), pivot.next_down(), post.mean()];
        for &l in xs.iter().chain(&extra) {
            for &u in xs.iter().chain(&extra) {
                // Covers l < u, l == u and l > u.
                assert_bit_identical(&post, l, u);
            }
            // Narrow windows: both lanes take a similar number of terms.
            for w in [1e-9, 1e-4, 0.01] {
                assert_bit_identical(&post, l, l + w);
            }
        }
        // Arguments outside [0, 1] clamp, as `cdf`'s do.
        assert_bit_identical(&post, -0.5, 1.5);
        assert_bit_identical(&post, -0.0, 0.4);
    }
}

/// A shape parameter spanning the prior pseudo-counts (0.2) to large
/// posteriors (2·10⁴), log-uniformly, with the quadrature path's range
/// (both > 3000) reached now and then.
fn shape(rng: &mut SmallRng) -> f64 {
    (0.2f64.ln() + rng.next_f64() * (2e4f64.ln() - 0.2f64.ln())).exp()
}

#[test]
#[ignore = "release-mode sweep over 10⁶ random inputs; run with --ignored"]
fn window_mass_is_the_cdf_difference_on_random_inputs() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_3A55);
    for _ in 0..1_000_000 {
        let post = Beta::new(shape(&mut rng), shape(&mut rng)).unwrap();
        // Half the windows sit at the posterior, where the stopping
        // certificate places them; the rest anywhere, in either order.
        let (l, u) = if rng.gen_bool(0.5) {
            let sd = post.variance().sqrt();
            let l = post.mean() - 4.0 * sd * rng.next_f64();
            (l, l + 8.0 * sd * rng.next_f64())
        } else {
            (rng.next_f64(), rng.next_f64())
        };
        assert_bit_identical(&post, l, u);
    }
}
