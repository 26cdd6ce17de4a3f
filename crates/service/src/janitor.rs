//! The janitor: a background worker that ages idle sessions out of
//! memory without operator attention.
//!
//! On a configurable tick the janitor ages every in-memory session idle
//! past [`JanitorConfig::idle_ttl`] straight to disk, reporting through
//! the shared [`Metrics`] registry: a running session is suspended (its
//! record written, its engine dropped), a finished one evicted (its
//! result written as a record). "Idle" is measured from the last
//! create/poll/submit/resume — status reads don't keep a session warm,
//! and live sessions with an outstanding annotation batch are never
//! aged (labels are owed).
//!
//! The store's files are not the janitor's business: a failed save
//! removes its own temp file, and the store's open sweep discards what
//! a crash leaves.
//!
//! # Why this can't race a request
//!
//! Aging goes through the ordinary [`SessionManager::suspend`] /
//! [`SessionManager::evict`] entry points and tolerates every
//! concurrent-modification refusal (a request arriving mid-tick simply
//! wins), which is what keeps janitor interleaving invisible to
//! clients — the `manager_stress` suite asserts results stay
//! bit-identical with an aggressive janitor running.

use crate::manager::{SessionManager, SessionState};
use crate::metrics::Metrics;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Janitor tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JanitorConfig {
    /// Pause between maintenance ticks.
    pub tick: Duration,
    /// Age an in-memory session to disk once idle this long.
    pub idle_ttl: Duration,
}

/// What one maintenance tick did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Idle running sessions suspended to disk.
    pub aged_suspended: u64,
    /// Idle finished sessions evicted from memory.
    pub aged_evicted: u64,
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

    /// One maintenance pass: ages idle in-memory sessions through the
    /// ordinary suspend/evict entry points. Never fails — a request
    /// racing the janitor simply wins, and the session is reconsidered
    /// on a later tick.
    pub fn tick(&self, manager: &SessionManager<'_>) -> TickReport {
        let mut report = TickReport::default();
        for (id, state) in manager.idle_sessions(self.config.idle_ttl) {
            if state == SessionState::Running {
                report.aged_suspended += u64::from(manager.suspend(&id).is_ok());
            } else {
                report.aged_evicted += u64::from(manager.evict(&id).is_ok());
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.janitor_ticks.fetch_add(1, Ordering::Relaxed);
            metrics
                .janitor_aged_suspended
                .fetch_add(report.aged_suspended, Ordering::Relaxed);
            metrics
                .janitor_aged_evicted
                .fetch_add(report.aged_evicted, Ordering::Relaxed);
        }
        report
    }
}
