//! The janitor: a background maintenance worker that keeps a running
//! service tidy without operator attention.
//!
//! On a configurable tick the janitor does three jobs, every one
//! reported through the shared [`Metrics`] registry:
//!
//! 1. **TTL suspension** (opt-in via [`JanitorConfig::idle_ttl`]): live
//!    sessions idle past the TTL are suspended to disk. "Idle" is
//!    measured from the last create/poll/submit/resume — status reads
//!    don't keep a session warm, and live sessions with an outstanding
//!    annotation batch are never aged (labels are owed).
//! 2. **TTL eviction** (same opt-in): suspended and finished sessions
//!    idle past the TTL are evicted from memory.
//! 3. **Temp-file GC**: stale `*.tmp` files in the store directory —
//!    crash leftovers the startup sweep didn't see — are removed.
//!
//! # Why this can't race a request
//!
//! Every store write the manager performs happens **under the session
//! id's shard lock**. The janitor takes the same lock (through
//! `SessionManager::with_session_lock`) before removing a session's
//! temp file, so it can never delete the half-written record of an
//! in-flight save. Every deletion additionally requires the file to be
//! older than [`JanitorConfig::grace`], so even non-session debris is
//! only collected once it has provably been sitting around.
//!
//! Aging goes through the ordinary [`SessionManager::suspend`] /
//! [`SessionManager::evict`] entry points and tolerates every
//! concurrent-modification refusal (a request arriving mid-tick simply
//! wins), which is what keeps janitor interleaving invisible to
//! clients — the `manager_stress` suite asserts results stay
//! bit-identical with an aggressive janitor running.

use crate::manager::{SessionManager, SessionState};
use crate::metrics::Metrics;
use crate::store::record_id;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

/// Janitor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JanitorConfig {
    /// Pause between maintenance ticks.
    pub tick: Duration,
    /// Age an in-memory session to disk once idle this long. `None`
    /// disables aging (temp-file GC still runs).
    pub idle_ttl: Option<Duration>,
    /// Minimum file age before GC touches it. Guards non-session
    /// debris; session files are already guarded by the shard lock.
    pub grace: Duration,
}

impl Default for JanitorConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_secs(30),
            idle_ttl: None,
            grace: Duration::from_secs(60),
        }
    }
}

/// What one maintenance tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Idle live sessions suspended to disk.
    pub aged_suspended: u64,
    /// Idle suspended/finished sessions evicted from memory.
    pub aged_evicted: u64,
    /// Stale `*.tmp` files removed.
    pub gc_tmp: u64,
}

impl TickReport {
    /// Whether the tick found nothing to do.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        *self == Self::default()
    }
}

/// Stop signal shared between a running janitor and its handle.
type StopFlag = Arc<(Mutex<bool>, Condvar)>;

/// Stops a janitor loop from another thread (async-signal-unsafe;
/// call from ordinary shutdown paths, not signal handlers).
#[derive(Debug, Clone)]
pub struct JanitorHandle {
    stop: StopFlag,
}

impl JanitorHandle {
    /// Wakes the janitor loop and makes it return.
    pub fn stop(&self) {
        let (flag, condvar) = &*self.stop;
        *flag.lock().expect("janitor stop lock") = true;
        condvar.notify_all();
    }
}

/// The background maintenance worker. [`Janitor::run`] loops ticks on
/// its own thread; [`Janitor::tick`] runs exactly one maintenance pass
/// (what the deterministic tests drive).
#[derive(Debug)]
pub struct Janitor {
    config: JanitorConfig,
    metrics: Option<Arc<Metrics>>,
    stop: StopFlag,
}

impl Janitor {
    /// A janitor with the given tuning, reporting nowhere yet.
    #[must_use]
    pub fn new(config: JanitorConfig) -> Self {
        Self {
            config,
            metrics: None,
            stop: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// Attaches the shared metrics registry (builder-style); every
    /// tick then reports its counts there.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// A handle that stops [`Janitor::run`] from another thread.
    #[must_use]
    pub fn handle(&self) -> JanitorHandle {
        JanitorHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Ticks every [`JanitorConfig::tick`] until the handle stops it.
    /// The pause is condvar-based, so a stop lands immediately instead
    /// of after the current sleep.
    pub fn run(&self, manager: &SessionManager<'_>) {
        let (flag, condvar) = &*self.stop;
        loop {
            let mut stopped = flag.lock().expect("janitor stop lock");
            while !*stopped {
                let (guard, timeout) = condvar
                    .wait_timeout(stopped, self.config.tick)
                    .expect("janitor stop lock");
                stopped = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            if *stopped {
                return;
            }
            drop(stopped);
            self.tick(manager);
        }
    }

    /// One maintenance pass: TTL aging, then temp-file GC. Never fails
    /// — anything that refuses (a request racing the janitor, an
    /// unreadable file) is simply skipped and retried on a later tick.
    pub fn tick(&self, manager: &SessionManager<'_>) -> TickReport {
        let mut report = TickReport::default();
        if let Some(ttl) = self.config.idle_ttl {
            self.age_idle(manager, ttl, &mut report);
        }
        self.collect_tmp_files(manager, &mut report);
        if let Some(metrics) = &self.metrics {
            metrics.janitor_ticks.fetch_add(1, Ordering::Relaxed);
            for (counter, value) in [
                (&metrics.janitor_aged_suspended, report.aged_suspended),
                (&metrics.janitor_aged_evicted, report.aged_evicted),
                (&metrics.janitor_gc_tmp, report.gc_tmp),
            ] {
                counter.fetch_add(value, Ordering::Relaxed);
            }
        }
        report
    }

    /// Ages idle in-memory sessions through the ordinary suspend/evict
    /// entry points, tolerating every concurrent-modification refusal.
    fn age_idle(&self, manager: &SessionManager<'_>, ttl: Duration, report: &mut TickReport) {
        for (id, state) in manager.idle_sessions(ttl) {
            match state {
                SessionState::Running => {
                    if manager.suspend(&id).is_ok() {
                        report.aged_suspended += 1;
                    }
                }
                SessionState::Suspended | SessionState::Finished => {
                    if manager.evict(&id).is_ok() {
                        report.aged_evicted += 1;
                    }
                }
                SessionState::Evicted => {}
            }
        }
    }

    /// Removes the stale temp files in the store directory.
    fn collect_tmp_files(&self, manager: &SessionManager<'_>, report: &mut TickReport) {
        let Ok(entries) = std::fs::read_dir(manager.store().dir()) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let name = entry.file_name();
            let Some(target) = name.to_str().and_then(|name| name.strip_suffix(".tmp")) else {
                continue;
            };
            let path = entry.path();
            let removed = match record_id(target) {
                // A session's temp: the shard lock proves no save is in
                // flight for this id, so it is debris.
                Some(id) => manager.with_session_lock(id, || self.remove_aged(&path)),
                // Any other temp: grace period alone.
                None => self.remove_aged(&path),
            };
            report.gc_tmp += u64::from(removed);
        }
    }

    /// Removes `path` if it still exists and is older than the grace
    /// period; reports whether a removal happened.
    fn remove_aged(&self, path: &Path) -> bool {
        older_than(path, self.config.grace) && std::fs::remove_file(path).is_ok()
    }
}

/// Whether `path` exists with an mtime at least `grace` in the past.
/// Unreadable metadata means "not yet" — the file is retried on a
/// later tick.
fn older_than(path: &Path, grace: Duration) -> bool {
    let Ok(meta) = std::fs::metadata(path) else {
        return false;
    };
    let Ok(modified) = meta.modified() else {
        return false;
    };
    SystemTime::now()
        .duration_since(modified)
        .is_ok_and(|age| age >= grace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_names_classify_as_session_records_or_junk() {
        assert_eq!(record_id("abc.rec"), Some("abc"));
        assert_eq!(record_id("abc.meta.json"), None, "retired layout");
        assert_eq!(record_id("abc"), None);
        assert_eq!(record_id(".hidden.rec"), None, "invalid id");
        assert_eq!(record_id(""), None);
    }

    #[test]
    fn default_config_ages_nothing_and_waits_a_minute() {
        let config = JanitorConfig::default();
        assert_eq!(config.idle_ttl, None);
        assert_eq!(config.grace, Duration::from_secs(60));
        assert!(TickReport::default().is_idle());
    }
}
