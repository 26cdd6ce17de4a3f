//! Property-based tests for the root finder.

use kgae_optim::root::{brent, RootConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Brent root finding on randomly shifted monotone cubics.
    #[test]
    fn brent_finds_cubic_roots(root in -5.0f64..5.0, scale in 0.1f64..10.0) {
        let f = |x: f64| scale * (x - root) * (1.0 + (x - root) * (x - root));
        let r = brent(f, root - 7.0, root + 9.0, RootConfig::default()).unwrap();
        prop_assert!((r - root).abs() < 1e-9, "found {r}, want {root}");
    }
}
