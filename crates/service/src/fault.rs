//! Deterministic, seeded fault injection for crash-safety testing.
//!
//! A **failpoint** is a named site on a durability-critical path (store
//! writes, the tmp→target rename, connection I/O) where a configured
//! fault fires instead of the real operation. The whole module compiles
//! to inert no-ops unless the `fault-injection` cargo feature is
//! enabled, so production builds carry zero overhead and zero risk of a
//! stray `KGAE_FAULT` taking a server down.
//!
//! With the feature on, faults are configured from a spec string
//! (`kgae-serve --fault SPEC` or the `KGAE_FAULT` environment
//! variable):
//!
//! ```text
//! spec    := entry (";" entry)*
//! entry   := "seed=" u64            global jitter seed (default 0)
//!          | site "=" action
//! action  := kind ("@" prob)?      prob ∈ [0,1], default 1 (always)
//! kind    := "crash"               abort the process at the site
//!          | "torn:" n             persist only the first n bytes, then abort
//!          | "err"                 return an injected I/O error
//!          | "drop"                drop the connection at the site
//! ```
//!
//! Sites currently wired (see [`site`] for the constants):
//!
//! | site              | path                                          |
//! |-------------------|-----------------------------------------------|
//! | `store.write`     | record temp-file write in [`crate::store`]    |
//! | `store.rename`    | between a completed temp write and its rename |
//! | `store.read`      | loading a stored record                       |
//! | `conn.read`       | server about to act on a decoded request      |
//! | `conn.write`      | server about to write a response              |
//!
//! A spec naming any other site is refused, so a rehearsal that names a
//! retired or misspelled site fails instead of injecting nothing.
//!
//! Probabilistic faults (`@p` with `p < 1`) draw from a per-site
//! xoshiro stream seeded from `seed ^ fnv(site)`, so a given spec
//! produces the same fire/skip sequence at every run — the property
//! that makes fault-load benchmarks reproducible.

/// Canonical failpoint site names.
pub mod site {
    /// Record temp-file write in the snapshot store.
    pub const STORE_WRITE: &str = "store.write";
    /// Between a completed temp write and its rename.
    pub const STORE_RENAME: &str = "store.rename";
    /// Loading a stored record.
    pub const STORE_READ: &str = "store.read";
    /// Server about to act on a decoded request.
    pub const CONN_READ: &str = "conn.read";
    /// Server about to write a response.
    pub const CONN_WRITE: &str = "conn.write";
    /// Every site above: the names a spec may arm.
    pub const ALL: [&str; 5] = [STORE_WRITE, STORE_RENAME, STORE_READ, CONN_READ, CONN_WRITE];
}

/// What a firing failpoint does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the process immediately (simulates SIGKILL at the site).
    Crash,
    /// Persist only the first `n` bytes of the write, then abort.
    Torn(usize),
    /// Return an injected `io::Error` from the site.
    Err,
    /// Drop the connection at the site.
    Drop,
}

/// The injected error every `Err` action produces.
#[cfg(feature = "fault-injection")]
#[must_use]
pub fn injected_error() -> std::io::Error {
    std::io::Error::other("injected fault")
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::FaultAction;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct Point {
        action: FaultAction,
        prob: f64,
        rng: SmallRng,
    }

    struct Registry {
        points: HashMap<String, Point>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
        REGISTRY.get_or_init(|| {
            Mutex::new(Registry {
                points: HashMap::new(),
            })
        })
    }

    fn fnv(s: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn parse_action(text: &str) -> Result<(FaultAction, f64), String> {
        let (kind, prob) = match text.split_once('@') {
            Some((kind, p)) => {
                let p: f64 = p
                    .parse()
                    .map_err(|_| format!("fault probability not a number: {p:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability outside [0, 1]: {p}"));
                }
                (kind, p)
            }
            None => (text, 1.0),
        };
        let action = match kind {
            "crash" => FaultAction::Crash,
            "err" => FaultAction::Err,
            "drop" => FaultAction::Drop,
            _ => match kind.strip_prefix("torn:") {
                Some(n) => FaultAction::Torn(
                    n.parse()
                        .map_err(|_| format!("torn byte count not a number: {n:?}"))?,
                ),
                None => return Err(format!("unknown fault kind {kind:?}")),
            },
        };
        Ok((action, prob))
    }

    pub fn configure(spec: &str) -> Result<(), String> {
        let mut seed = 0u64;
        let mut entries = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((key, value)) = entry.split_once('=') else {
                return Err(format!("fault entry without '=': {entry:?}"));
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("fault seed not a number: {value:?}"))?;
            } else if !super::site::ALL.contains(&key) {
                return Err(format!(
                    "unknown fault site {key:?} (known sites: {})",
                    super::site::ALL.join(", ")
                ));
            } else {
                entries.push((key.to_string(), parse_action(value)?));
            }
        }
        let mut registry = registry().lock().expect("fault registry lock");
        registry.points.clear();
        for (site, (action, prob)) in entries {
            let rng = SmallRng::seed_from_u64(seed ^ fnv(&site));
            registry.points.insert(site, Point { action, prob, rng });
        }
        Ok(())
    }

    pub fn clear() {
        registry()
            .lock()
            .expect("fault registry lock")
            .points
            .clear();
    }

    pub fn check(site: &str) -> Option<FaultAction> {
        let mut registry = registry().lock().expect("fault registry lock");
        let point = registry.points.get_mut(site)?;
        if point.prob < 1.0 && !point.rng.gen_bool(point.prob) {
            return None;
        }
        Some(point.action)
    }
}

/// Whether this build carries the fault-injection machinery.
#[must_use]
pub fn enabled() -> bool {
    cfg!(feature = "fault-injection")
}

/// Installs the failpoints a spec string describes, replacing any
/// previous configuration (see the module docs for the grammar).
///
/// # Errors
///
/// A human-readable parse error, including a site not in
/// [`site::ALL`] (the message lists the known ones); or, when the
/// `fault-injection` feature is off, an error for any non-empty spec — a
/// build without the machinery must refuse to pretend it injects faults.
pub fn configure(spec: &str) -> Result<(), String> {
    #[cfg(feature = "fault-injection")]
    {
        imp::configure(spec)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        if spec.trim().is_empty() {
            Ok(())
        } else {
            Err("this build was compiled without the `fault-injection` feature".into())
        }
    }
}

/// Installs failpoints from the `KGAE_FAULT` environment variable, if
/// set.
///
/// # Errors
///
/// As [`configure`].
pub fn configure_from_env() -> Result<(), String> {
    match std::env::var("KGAE_FAULT") {
        Ok(spec) => configure(&spec),
        Err(_) => Ok(()),
    }
}

/// Removes every installed failpoint.
pub fn clear() {
    #[cfg(feature = "fault-injection")]
    imp::clear();
}

/// Serializes the unit tests that configure, clear or consult the
/// process-wide failpoint registry, which the test harness would
/// otherwise share between parallel threads; each holder starts from an
/// empty registry.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    clear();
    guard
}

/// Running count of failpoints that actually fired, surfaced as
/// `kgae_faults_injected_total` on `/metrics`. Always zero on builds
/// without the `fault-injection` feature.
static INJECTIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many failpoints have fired since the process started.
#[must_use]
pub fn injections() -> u64 {
    INJECTIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Consults the failpoint at `site`: `None` means proceed normally.
/// Always `None` when the `fault-injection` feature is off — the call
/// compiles down to nothing.
#[inline]
#[must_use]
pub fn check(site: &str) -> Option<FaultAction> {
    #[cfg(feature = "fault-injection")]
    {
        let action = imp::check(site);
        if action.is_some() {
            INJECTIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        action
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        None
    }
}

#[cfg(all(test, feature = "fault-injection"))]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip_and_determinism() {
        let _registry = test_lock();
        configure("seed=7; conn.write=drop@0.5; store.read=err").unwrap();
        assert_eq!(check("store.read"), Some(FaultAction::Err));
        assert_eq!(check("store.rename"), None, "unconfigured site");
        let first: Vec<bool> = (0..64).map(|_| check("conn.write").is_some()).collect();
        assert!(first.iter().any(|&b| b) && first.iter().any(|&b| !b));
        // Reconfiguring with the same seed replays the same sequence.
        configure("seed=7; conn.write=drop@0.5; store.read=err").unwrap();
        let second: Vec<bool> = (0..64).map(|_| check("conn.write").is_some()).collect();
        assert_eq!(first, second);
        clear();
        assert_eq!(check("store.read"), None);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _registry = test_lock();
        for bad in [
            "store.read",
            "store.read=explode",
            "store.read=err@2",
            "store.read=torn:x",
            "seed=abc",
        ] {
            assert!(configure(bad).is_err(), "{bad:?}");
        }
        clear();
    }

    #[test]
    fn unknown_sites_are_refused_with_the_known_ones_listed() {
        let _registry = test_lock();
        for bad in [
            "store.snap.write=torn:64",
            "store.read=err; store.meta.write=err",
        ] {
            let err = configure(bad).unwrap_err();
            assert!(err.contains("unknown fault site"), "{bad:?}: {err}");
            assert!(site::ALL.iter().all(|known| err.contains(known)), "{err}");
        }
    }
}
