//! Shared harness utilities for the experiment binaries.
//!
//! Every `table*` / `figure*` / `example*` binary follows the same shape:
//! build the datasets, sweep a (design × method) grid with the
//! repeated-evaluation runner, and print the rows the paper reports.
//! This crate centralizes the dataset registry, CLI-argument handling and
//! grid runners so each binary stays a readable experiment script.
//!
//! ```
//! use kgae_bench::{real_datasets, run_cell};
//! use kgae_core::{EvalConfig, IntervalMethod, SamplingDesign};
//!
//! // Ten seeded Wilson campaigns on the YAGO twin under SRS.
//! let yago = &real_datasets()[0];
//! let runs = run_cell(
//!     yago,
//!     SamplingDesign::Srs,
//!     &IntervalMethod::Wilson,
//!     &EvalConfig::default(),
//!     10,
//! );
//! assert_eq!(runs.triples.len(), 10);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use kgae_core::{repeat_evaluation, EvalConfig, IntervalMethod, RepeatedRuns, SamplingDesign};
use kgae_graph::CompactKg;

/// A named dataset with its ground-truth accuracy.
pub struct Dataset {
    /// Display name ("YAGO", "NELL", ...).
    pub name: &'static str,
    /// The generated statistical twin.
    pub kg: CompactKg,
    /// Published ground-truth accuracy (Table 1).
    pub mu: f64,
}

/// The four real-life KG twins of Table 1, in paper order.
#[must_use]
pub fn real_datasets() -> Vec<Dataset> {
    vec![
        Dataset {
            name: "YAGO",
            kg: kgae_graph::datasets::yago(),
            mu: 0.99,
        },
        Dataset {
            name: "NELL",
            kg: kgae_graph::datasets::nell(),
            mu: 0.91,
        },
        Dataset {
            name: "DBPEDIA",
            kg: kgae_graph::datasets::dbpedia(),
            mu: 0.85,
        },
        Dataset {
            name: "FACTBENCH",
            kg: kgae_graph::datasets::factbench(),
            mu: 0.54,
        },
    ]
}

/// Repetition count from `--reps N` (defaults to the paper's 1000).
#[must_use]
pub fn reps_from_args(default: u64) -> u64 {
    arg_value("--reps").unwrap_or(default)
}

/// SYN dataset scale from `--scale N` triples (defaults to the full
/// 101,415,011). `--scale 1015000` runs a 1%-scale replica for quick
/// iterations; results are statistically indistinguishable because the
/// estimators are population-size free (paper §6.4).
#[must_use]
pub fn syn_scale_from_args() -> (u64, u32) {
    match arg_value::<u64>("--scale") {
        Some(triples) => {
            let clusters = (triples as f64 / 20.283).round().max(1.0) as u32;
            (triples, clusters)
        }
        None => (101_415_011, 5_000_000),
    }
}

/// Value of a space-separated CLI flag (`--flag value`), parsed; `None`
/// when the flag is absent. A present flag whose value is missing or
/// fails to parse prints an error naming the flag and exits with status
/// 2, so a typo never silently runs the default.
#[must_use]
pub fn arg_value<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, flag).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2)
    })
}

/// [`arg_value`] over an explicit argument list.
///
/// # Errors
///
/// A message naming `flag` when it is present but its value is missing
/// or does not parse as `T`.
pub fn parse_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag}: missing value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// Runs one (dataset, design, method) cell of a table.
#[must_use]
pub fn run_cell(
    ds: &Dataset,
    design: SamplingDesign,
    method: &IntervalMethod,
    cfg: &EvalConfig,
    reps: u64,
) -> RepeatedRuns {
    // Seed derived from the dataset name so cells are independent but
    // reproducible run to run.
    let seed = ds.name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    repeat_evaluation(&ds.kg, design, method, cfg, reps, seed)
}

/// The standard method lineup of Table 3/4.
#[must_use]
pub fn table3_methods() -> Vec<IntervalMethod> {
    vec![
        IntervalMethod::Wald,
        IntervalMethod::Wilson,
        IntervalMethod::ahpd_default(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_1() {
        use kgae_graph::{GroundTruth, KnowledgeGraph};
        let ds = real_datasets();
        assert_eq!(ds.len(), 4);
        let sizes: Vec<u64> = ds.iter().map(|d| d.kg.num_triples()).collect();
        assert_eq!(sizes, vec![1_386, 1_860, 9_344, 2_800]);
        for d in &ds {
            assert!((d.kg.true_accuracy() - d.mu).abs() < 5e-4, "{}", d.name);
        }
    }

    #[test]
    fn cell_runner_is_reproducible() {
        let ds = &real_datasets()[0];
        let a = run_cell(
            ds,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            10,
        );
        let b = run_cell(
            ds,
            SamplingDesign::Srs,
            &IntervalMethod::Wilson,
            &EvalConfig::default(),
            10,
        );
        let (mut ta, mut tb) = (a.triples.clone(), b.triples.clone());
        ta.sort_by(f64::total_cmp);
        tb.sort_by(f64::total_cmp);
        assert_eq!(ta, tb);
    }

    #[test]
    fn cli_flags_fail_loudly_on_bad_values() {
        let args: Vec<String> = ["bin", "--port", "junk", "--reps", "12", "--out"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(parse_arg::<u64>(&args, "--reps"), Ok(Some(12)));
        assert_eq!(parse_arg::<u64>(&args, "--clients"), Ok(None));
        assert_eq!(
            parse_arg::<u16>(&args, "--port"),
            Err("--port: cannot parse \"junk\"".to_string())
        );
        assert_eq!(
            parse_arg::<String>(&args, "--out"),
            Err("--out: missing value".to_string())
        );
    }
}
