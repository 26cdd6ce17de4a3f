//! The paper binaries print exactly the output pinned under `golden/`,
//! each at its default arguments: Figures 2 and 3, Tables 1 and 2 and
//! the stopping, strategies and coverage ablations in the workspace run,
//! and Tables 3 and 4 and Figure 4 in one ignored release test:
//!
//! ```sh
//! cargo test --release -p kgae-bench --test paper_figures -- --ignored
//! ```
//!
//! The campaign tables come from `repeat_evaluation`, a work-stealing
//! runner whose output does not depend on the thread interleaving; a run
//! pinned to one CPU prints the same bytes. Regenerate a golden file only
//! for an intended change of its table or figure, e.g.
//! `cargo run -p kgae-bench --release --bin figure2 > crates/bench/tests/golden/figure2.txt`.

use std::process::Command;

/// Runs `exe` with no arguments and asserts its stdout equals `golden`.
fn assert_prints(exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("paper binary runs");
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    assert!(
        out.stdout == golden.as_bytes(),
        "{exe}: output differs from its golden file; it printed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn figure2_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_figure2"),
        include_str!("golden/figure2.txt"),
    );
}

#[test]
fn figure3_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_figure3"),
        include_str!("golden/figure3.txt"),
    );
}

#[test]
fn table1_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_table1"),
        include_str!("golden/table1.txt"),
    );
}

#[test]
fn table2_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_table2"),
        include_str!("golden/table2.txt"),
    );
}

#[test]
fn stopping_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_stopping"),
        include_str!("golden/stopping.txt"),
    );
}

#[test]
fn strategies_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_strategies"),
        include_str!("golden/strategies.txt"),
    );
}

#[test]
fn coverage_prints_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_coverage"),
        include_str!("golden/coverage.txt"),
    );
}

#[test]
#[ignore = "release only: Tables 3 and 4 and Figure 4 run thousands of campaigns"]
fn campaign_tables_print_their_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_table3"),
        include_str!("golden/table3.txt"),
    );
    assert_prints(
        env!("CARGO_BIN_EXE_table4"),
        include_str!("golden/table4.txt"),
    );
    assert_prints(
        env!("CARGO_BIN_EXE_figure4"),
        include_str!("golden/figure4.txt"),
    );
}
