//! The figure binaries print exactly the output pinned under `golden/`:
//! the paper's Figures 2 and 3 must reproduce byte for byte. Regenerate
//! a golden file only for an intended change of its figure, e.g.
//! `cargo run -p kgae-bench --release --bin figure2 > crates/bench/tests/golden/figure2.txt`.

use std::process::Command;

/// Runs `exe` with no arguments and asserts its stdout equals `golden`.
fn assert_prints(exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("figure binary runs");
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
