//! `kgae-serve`: boots the session service over the standard datasets.
//!
//! ```text
//! kgae-serve [--addr HOST:PORT] [--workers N] [--shards N]
//!            [--idle-timeout SECS] [--store-dir PATH] [--port-file PATH]
//!            [--max-sessions N] [--max-per-tenant N] [--retry-after S]
//!            [--metrics on|off] [--log-format json|text]
//!            [--log-level off|error|warn|info]
//!            [--janitor-tick SECS] [--janitor-ttl SECS]
//!            [--janitor-grace SECS] [--fault SPEC]
//! kgae-serve --version
//! ```
//!
//! * `--addr` — bind address; port 0 picks an ephemeral port
//!   (default `127.0.0.1:7707`).
//! * `--workers` — request-executor threads. Connections are
//!   multiplexed on a readiness reactor and cost no thread while idle,
//!   so this bounds *in-flight requests*, not clients — thousands of
//!   keep-alive connections are fine with a handful of workers
//!   (default: available parallelism, at least 4). Connection capacity
//!   is bounded by the fd limit instead; raise `ulimit -n` for large
//!   fleets.
//! * `--idle-timeout` — seconds without transport progress before the
//!   reactor reaps a connection (default 30, at least 1).
//! * `--shards` — session-registry lock stripes (default 16).
//! * `--store-dir` — snapshot-store directory (default `kgae-store`).
//!   Each session is one `<id>.rec` file, replaced by one atomic
//!   rename per save. On startup the store runs its crash-recovery
//!   sweep: orphaned temp files are discarded, and corrupt
//!   records and files of the retired two-file layout are quarantined
//!   (logged below) instead of wedging the boot.
//! * `--port-file` — write the bound port (decimal, newline) to this
//!   path once listening; lets scripts coordinate with port 0.
//! * `--max-sessions` / `--max-per-tenant` — session quota ceilings
//!   (unlimited when omitted); a full quota answers 429 with a
//!   `Retry-After` of `--retry-after` seconds (default 1).
//! * `--metrics` — the observability registry behind `GET /metrics`
//!   (Prometheus text format; default `on`). `off` removes the route
//!   (404) and every recording site.
//! * `--log-format` / `--log-level` — structured per-request logs on
//!   stderr: one JSON (or text) line per executed request with route,
//!   tenant, session, status, bytes, latency and worker id. The level
//!   floor derives from the response status (5xx=error, 4xx=warn,
//!   else info); default `json` at `warn`, `--log-level off` disables
//!   request logging entirely.
//! * `--janitor-tick` — seconds between background maintenance passes
//!   (default 30; `0` disables the janitor). Each pass garbage-collects
//!   stale temp files from the store directory, and — with
//!   `--janitor-ttl N` — suspends sessions idle for N seconds to disk
//!   and evicts already-suspended idle ones from memory (off by
//!   default).
//!   `--janitor-grace` is the minimum file age before GC touches a
//!   file (default 60).
//! * `--fault` — deterministic failpoint spec (also read from the
//!   `KGAE_FAULT` env var); only honored by builds with the
//!   `fault-injection` feature, rejected loudly otherwise.
//! * `--version` — print `kgae-serve <semver>` and exit; the same
//!   build info a running server reports on `GET /healthz`.
//!
//! On SIGTERM/SIGINT (Unix) the server drains instead of dying:
//! creates answer 503, in-flight requests finish, every live session
//! is suspended to the store, and the process exits 0 — restarting
//! over the same `--store-dir` resumes every campaign bit-identically.
//!
//! Exits non-zero on any startup failure.

use kgae_service::{
    DatasetRegistry, Janitor, JanitorConfig, LogFormat, LogLevel, ManagerLimits, Metrics,
    RequestLog, Server, SessionManager, SnapshotStore,
};
use std::sync::Arc;
use std::time::Duration;

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(flag: &str) -> Result<Option<T>, String> {
    match arg_value(flag) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{flag}: not a number: {v:?}")),
    }
}

/// Installs `handler` for SIGTERM and SIGINT via raw `signal(2)` —
/// enough for a single "start draining" flag flip, with no dependency
/// beyond std. No-op off Unix.
#[cfg(unix)]
fn install_shutdown_signals(handler: extern "C" fn(i32)) {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

fn run() -> Result<(), String> {
    if std::env::args().any(|a| a == "--version" || a == "-V") {
        println!("kgae-serve {}", kgae_service::server::VERSION);
        return Ok(());
    }
    let addr = arg_value("--addr").unwrap_or_else(|| "127.0.0.1:7707".into());
    let workers = match parse_flag::<usize>("--workers")? {
        Some(v) => v,
        // Workers execute ready requests; connections idle inside the
        // reactor for free — the core count is the right default.
        None => std::thread::available_parallelism()
            .map_or(4, std::num::NonZeroUsize::get)
            .max(4),
    };
    let idle_timeout = match parse_flag::<u64>("--idle-timeout")? {
        // A zero deadline would reap each connection on the loop
        // iteration that accepts it, before its first request.
        Some(0) => return Err("--idle-timeout: must be at least 1 second".into()),
        secs => secs.map(std::time::Duration::from_secs),
    };
    let shards = parse_flag::<usize>("--shards")?.unwrap_or(16);
    let store_dir = arg_value("--store-dir").unwrap_or_else(|| "kgae-store".into());
    let limits = ManagerLimits {
        max_sessions_per_tenant: parse_flag("--max-per-tenant")?,
        max_total_sessions: parse_flag("--max-sessions")?,
        retry_after_secs: parse_flag("--retry-after")?.unwrap_or(1),
    };
    let metrics_on = match arg_value("--metrics").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("--metrics: expected on|off, got {other:?}")),
    };
    let log_format = match arg_value("--log-format") {
        None => LogFormat::Json,
        Some(name) => LogFormat::from_name(&name)
            .ok_or_else(|| format!("--log-format: expected json|text, got {name:?}"))?,
    };
    let log_level = match arg_value("--log-level") {
        None => LogLevel::Warn,
        Some(name) => LogLevel::from_name(&name)
            .ok_or_else(|| format!("--log-level: expected off|error|warn|info, got {name:?}"))?,
    };
    let janitor_tick = parse_flag::<u64>("--janitor-tick")?.unwrap_or(30);
    let janitor_ttl = parse_flag::<u64>("--janitor-ttl")?;
    let janitor_grace = parse_flag::<u64>("--janitor-grace")?.unwrap_or(60);

    // Failpoints: --fault wins over KGAE_FAULT; both error out loudly
    // on builds compiled without the fault-injection feature.
    match arg_value("--fault") {
        Some(spec) => kgae_service::fault::configure(&spec).map_err(|e| format!("--fault: {e}"))?,
        None => {
            kgae_service::fault::configure_from_env().map_err(|e| format!("KGAE_FAULT: {e}"))?
        }
    }
    if kgae_service::fault::enabled() {
        eprintln!("kgae-serve: FAULT INJECTION ACTIVE — this build is for crash testing");
    }

    eprintln!("kgae-serve: generating the standard datasets...");
    let registry = DatasetRegistry::standard();
    let store =
        SnapshotStore::open(&store_dir).map_err(|e| format!("opening store {store_dir:?}: {e}"))?;
    let recovery = store.recovery_report();
    if !recovery.is_clean() {
        for name in &recovery.discarded {
            eprintln!("kgae-serve: recovery: discarded incomplete temp file {name:?}");
        }
        for (id, reason) in &recovery.quarantined {
            eprintln!("kgae-serve: recovery: quarantined {id:?}: {reason}");
        }
    }
    if !recovery.recovered.is_empty() {
        eprintln!(
            "kgae-serve: recovery: {} stored session(s) ready to resume",
            recovery.recovered.len()
        );
    }
    let mut manager = SessionManager::with_limits(&registry, store, shards, limits);
    let metrics = metrics_on.then(|| Arc::new(Metrics::new()));
    if let Some(registry) = &metrics {
        manager.set_metrics(Arc::clone(registry));
    }
    let manager = manager;

    let mut server = Server::bind(&addr, workers).map_err(|e| format!("binding {addr:?}: {e}"))?;
    if let Some(timeout) = idle_timeout {
        server = server.with_idle_timeout(timeout);
    }
    if let Some(registry) = &metrics {
        server = server.with_metrics(Arc::clone(registry));
    }
    if log_level != LogLevel::Off {
        server = server.with_request_log(Arc::new(RequestLog::new(log_format, log_level)));
    }
    let local = server
        .local_addr()
        .map_err(|e| format!("reading bound address: {e}"))?;
    #[cfg(unix)]
    {
        // The handler can only do async-signal-safe work — an atomic
        // store and one write(2) to the reactor's waker — so it parks
        // the handle in a global the extern "C" fn can reach.
        static HANDLE: std::sync::OnceLock<kgae_service::ServerHandle> = std::sync::OnceLock::new();
        extern "C" fn on_shutdown_signal(_sig: i32) {
            if let Some(handle) = HANDLE.get() {
                handle.shutdown();
            }
        }
        let handle = server
            .handle()
            .map_err(|e| format!("creating shutdown handle: {e}"))?;
        if HANDLE.set(handle).is_ok() {
            install_shutdown_signals(on_shutdown_signal);
        }
    }
    if let Some(port_file) = arg_value("--port-file") {
        std::fs::write(&port_file, format!("{}\n", local.port()))
            .map_err(|e| format!("writing {port_file:?}: {e}"))?;
    }
    eprintln!(
        "kgae-serve: listening on http://{local} ({workers} workers, {shards} shards, \
         store {store_dir:?})"
    );
    let janitor = (janitor_tick > 0).then(|| {
        let config = JanitorConfig {
            tick: Duration::from_secs(janitor_tick),
            idle_ttl: janitor_ttl.map(Duration::from_secs),
            grace: Duration::from_secs(janitor_grace),
        };
        match &metrics {
            Some(registry) => Janitor::new(config).with_metrics(Arc::clone(registry)),
            None => Janitor::new(config),
        }
    });
    let report = match &janitor {
        Some(janitor) => crossbeam::scope(|scope| {
            let stopper = janitor.handle();
            let ticking = scope.spawn(|_| janitor.run(&manager));
            let report = server.run(&manager);
            stopper.stop();
            ticking.join().expect("janitor thread");
            report
        })
        .expect("janitor scope"),
        None => server.run(&manager),
    };
    eprintln!(
        "kgae-serve: drained — {} suspended ({} mid-batch), {} finished persisted",
        report.suspended.len(),
        report.cancelled.len(),
        report.finished.len()
    );
    if !report.is_clean() {
        for (id, reason) in &report.failed {
            eprintln!("kgae-serve: drain FAILED for {id:?}: {reason}");
        }
        return Err("drain left unsaved sessions".into());
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("kgae-serve: {message}");
        std::process::exit(1);
    }
}
