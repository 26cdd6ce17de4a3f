//! Ablation A — exact coverage probabilities across the accuracy space.
//!
//! §3.3 argues CIs need coverage diagnostics that are impractical to
//! measure in production. Here we compute coverage *exactly* (enumerating
//! the binomial annotation outcomes) for Wald, Wilson, Clopper–Pearson
//! (frequentist) and ET / HPD / aHPD (Bayesian), at n = 30 and n = 100,
//! quantifying the reliability half of the paper's efficiency/reliability
//! trade-off.
//!
//! ```text
//! cargo run -p kgae-bench --release --bin coverage
//! ```

use kgae_core::coverage::exact_srs_coverage;
use kgae_core::report::MarkdownTable;
use kgae_core::IntervalMethod;
use kgae_intervals::BetaPrior;

fn main() {
    let alpha = 0.05;
    let methods: Vec<(String, IntervalMethod)> = vec![
        ("Wald".into(), IntervalMethod::Wald),
        ("Wilson".into(), IntervalMethod::Wilson),
        (
            "ET[Jeffreys]".into(),
            IntervalMethod::Et(BetaPrior::JEFFREYS),
        ),
        ("HPD[Kerman]".into(), IntervalMethod::Hpd(BetaPrior::KERMAN)),
        ("aHPD".into(), IntervalMethod::ahpd_default()),
    ];

    for n in [30u64, 100] {
        println!("# Coverage ablation — exact 1-α interval coverage, n = {n}, α = {alpha}\n");
        let mut table = MarkdownTable::new(
            std::iter::once("μ".to_string())
                .chain(methods.iter().map(|(name, _)| name.clone()))
                .collect::<Vec<_>>(),
        );
        for &mu in &[0.05, 0.10, 0.25, 0.50, 0.54, 0.75, 0.85, 0.91, 0.95, 0.99] {
            let mut row = vec![format!("{mu:.2}")];
            for (_, m) in &methods {
                let c = exact_srs_coverage(m, n, mu, alpha).expect("coverage");
                row.push(format!("{:.3}", c));
            }
            table.row(row);
        }
        println!("{}", table.render());
    }
    println!("Reading: Wald collapses near the boundaries (the §3.1 pathology);");
    println!("Wilson restores frequentist coverage at an efficiency price;");
    println!("HPD/aHPD are the shortest; at a fixed n their coverage is near nominal");
    println!("away from the boundaries and dips near them at n = 30 (μ = 0.05, 0.95).");
    println!("These are fixed-n coverages: coverage at the sequential stopping time");
    println!("is another question, which this ablation does not answer.");
}
