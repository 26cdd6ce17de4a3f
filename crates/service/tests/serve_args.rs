//! `kgae-serve` refuses every argument it does not understand: each bad
//! command line below must exit 1 before serving, with a message that
//! names the offending flag.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `kgae-serve` with `args` after a harmless prefix (ephemeral
/// port, scratch store) and returns its exit code and stderr. A server
/// that starts anyway is killed and fails the test.
fn refused(tag: &str, args: &[&str]) -> (Option<i32>, String) {
    let store = std::env::temp_dir().join(format!("kgae-args-test-{tag}-{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_kgae-serve"))
        .args(["--addr", "127.0.0.1:0", "--store-dir"])
        .arg(&store)
        .args(args)
        .env_remove("KGAE_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning kgae-serve");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("polling kgae-serve").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&store);
            panic!("{args:?}: kgae-serve accepted the arguments and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("kgae-serve output");
    let _ = std::fs::remove_dir_all(&store);
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn bad_arguments_exit_nonzero_naming_the_flag() {
    for (tag, args, message) in [
        (
            "typo",
            &["--max-per-tenat", "5"][..],
            r#"unknown argument "--max-per-tenat""#,
        ),
        (
            "retired",
            &["--janitor-grace", "60"],
            r#"unknown argument "--janitor-grace""#,
        ),
        ("stray", &["serve"], r#"unknown argument "serve""#),
        ("no-value", &["--workers"], "--workers: missing value"),
        (
            "flag-as-value",
            &["--max-sessions", "--shards", "4"],
            "--max-sessions: missing value",
        ),
        (
            "twice",
            &["--shards", "4", "--shards", "8"],
            "--shards: given more than once",
        ),
        (
            "zero-tick",
            &["--janitor-ttl", "600", "--janitor-tick", "0"],
            "--janitor-tick: must be at least 1 second",
        ),
        (
            "zero-ttl",
            &["--janitor-ttl", "0"],
            "--janitor-ttl: must be at least 1 second",
        ),
        (
            "zero-idle",
            &["--idle-timeout", "0"],
            "--idle-timeout: must be at least 1 second",
        ),
    ] {
        let (code, stderr) = refused(tag, args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("kgae-serve: {message}")),
            "{args:?}: {stderr:?}"
        );
    }
}
