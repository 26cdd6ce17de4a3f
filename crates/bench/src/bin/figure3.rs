//! Figure 3 — expected width of the 1-α HPD interval under the Kerman,
//! Jeffreys, and Uniform priors for n = 30, α = 0.05, across the accuracy
//! space, with the per-region winner (the ◦ / ∕∕ patterns of the paper).
//!
//! Expected shape: Kerman shortest in the extreme regions, Uniform
//! shortest in the central region, Jeffreys never shortest.
//!
//! ```text
//! cargo run -p kgae-bench --release --bin figure3
//! ```

use kgae_core::report::MarkdownTable;
use kgae_intervals::expected::expected_width;
use kgae_intervals::{hpd_interval_exact, BetaPrior};

fn main() {
    let n = 30;
    let alpha = 0.05;
    let priors = BetaPrior::UNINFORMATIVE;

    println!("# Figure 3 — expected HPD width by prior (n = {n}, α = {alpha})\n");
    let mut table = MarkdownTable::new(vec![
        "μ".to_string(),
        "Kerman".to_string(),
        "Jeffreys".to_string(),
        "Uniform".to_string(),
        "best".to_string(),
    ]);

    let mut kerman_regions = Vec::new();
    let mut uniform_regions = Vec::new();
    for i in 0..=50 {
        let mu = i as f64 / 50.0;
        let widths: Vec<f64> = priors
            .iter()
            .map(|p| expected_width(p, n, alpha, mu, hpd_interval_exact).expect("expected width"))
            .collect();
        let best = (0..3)
            .min_by(|&a, &b| widths[a].partial_cmp(&widths[b]).expect("finite widths"))
            .expect("three priors");
        match priors[best].name {
            "Kerman" => kerman_regions.push(mu),
            "Uniform" => uniform_regions.push(mu),
            other => panic!("unexpected winner {other} at μ = {mu}"),
        }
        table.row(vec![
            format!("{mu:.2}"),
            format!("{:.4}", widths[0]),
            format!("{:.4}", widths[1]),
            format!("{:.4}", widths[2]),
            priors[best].name.to_string(),
        ]);
    }
    println!("{}", table.render());

    let k_lo = kerman_regions
        .iter()
        .copied()
        .filter(|&m| m < 0.5)
        .fold(f64::NEG_INFINITY, f64::max);
    let k_hi = kerman_regions
        .iter()
        .copied()
        .filter(|&m| m > 0.5)
        .fold(f64::INFINITY, f64::min);
    println!("Kerman optimal (◦) in the extremes: μ ≤ {k_lo:.2} and μ ≥ {k_hi:.2}.");
    println!(
        "Uniform optimal (∕∕) in the center: μ ∈ [{:.2}, {:.2}].",
        uniform_regions.first().copied().unwrap_or(f64::NAN),
        uniform_regions.last().copied().unwrap_or(f64::NAN)
    );
    println!("Jeffreys is never the shortest — the motivation for aHPD (paper finding F1).");
}
