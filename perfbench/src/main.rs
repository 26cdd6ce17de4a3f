//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last stdout line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones (see `METRICS.md`). Exits 1 when a correctness
//! gate failed, 2 on bad arguments.

use kgae_perfbench::catalogue::{END_TO_END, PER_LAYER};
use kgae_perfbench::gen::Workload;
use kgae_perfbench::{grid, service, Outcome};
use std::collections::BTreeSet;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::from_name(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::EngineGrid | Workload::EngineCached => {
            let cached = args.workload == Workload::EngineCached;
            let (mut out, kernel) = grid::run(args.seed, args.seconds, args.trace, cached)?;
            if args.trace {
                service::canonical_layers(args.seed, kernel, &mut out)?;
            }
            Ok(out)
        }
        w => service::run(w, args.seed, args.seconds, args.trace),
    }
}

/// Checks the metric set against the catalogue: every expected name
/// exactly once with its unit, nothing else, every value finite.
fn check_metrics(out: &mut Outcome, expected: &[(&str, &str)]) {
    let mut seen = BTreeSet::new();
    let mut problems = Vec::new();
    for m in &out.metrics {
        if !seen.insert(m.name.clone()) {
            problems.push(format!("metric {} reported twice", m.name));
        }
        match expected.iter().find(|(name, _)| *name == m.name) {
            None => problems.push(format!("metric {} is not in the catalogue", m.name)),
            Some((_, unit)) if *unit != m.unit => problems.push(format!(
                "metric {} reported in {} but catalogued in {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    for (name, _) in expected {
        if !seen.contains(*name) {
            problems.push(format!("metric {name} missing"));
        }
    }
    for p in problems {
        out.fail(p);
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <engine_grid|engine_cached|service_steady|service_churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Before any thread exists, so every thread of the run inherits it.
    match kgae_perfbench::pin_to_one_cpu() {
        Some(cpu) => eprintln!("pinned to cpu {cpu}"),
        None => eprintln!("could not pin to one cpu; running unpinned"),
    }
    let ticks_before = kgae_perfbench::cpu_ticks();
    let own_before = kgae_perfbench::process_cpu_ticks();
    let wall = std::time::Instant::now();
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    check_metrics(&mut out, if args.trace { PER_LAYER } else { END_TO_END });
    for m in &out.metrics {
        eprintln!("{:<45} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let (Some(o0), Some(o1)) = (own_before, kgae_perfbench::process_cpu_ticks()) {
        // Clock ticks are 1/100 s on Linux.
        let busy = (o1 - o0) as f64 / 100.0 / wall.elapsed().as_secs_f64();
        eprintln!("process cpu time ÷ wall time: {:.1}%", 100.0 * busy);
    }
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, kgae_perfbench::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "cpu time stolen by the host during the run: {:.1}%",
            100.0 * share
        );
    }
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
