//! The snapshot store: dormant sessions as files.
//!
//! A suspended evaluation campaign is a few KB of PR-2 snapshot bytes
//! plus a small JSON meta record (its spec and last observed status).
//! Spilling idle sessions here is what lets one server host millions of
//! dormant campaigns: RAM holds only the live ones, disk holds the
//! rest, and rehydration is lazy — a session is re-validated (snapshot
//! fingerprints and all) and rebuilt only when traffic returns for it.
//!
//! Layout: one directory, two files per session —
//! `<id>.meta.json` (spec + cached status) and `<id>.snap` (snapshot
//! bytes; absent for sessions that finished before eviction). Session
//! ids are restricted to a filename-safe alphabet at the API boundary
//! and re-checked here, so ids can never traverse paths. `quarantine`
//! and any id ending in `.tmp` are reserved (they would collide with
//! the recovery machinery below) and rejected at the same boundary.
//!
//! # Crash safety
//!
//! Writes go through a temp file that is fsynced and then renamed into
//! place, so a crashed write never corrupts an existing record — the
//! worst a crash leaves behind is an orphaned `<name>.tmp`. [`open`]
//! therefore runs a **recovery sweep** before serving any traffic:
//!
//! 1. Every orphaned `.tmp` is *promoted* (renamed into place) when its
//!    rename target is missing and its content validates — the crash
//!    hit between fsync and rename, the write is complete; otherwise it
//!    is *discarded* — either the committed target already exists and
//!    wins, or the temp is torn.
//! 2. Every surviving record is validated: meta records must parse as
//!    JSON naming the right id and a known state; snapshots must carry
//!    a well-formed header. Records that fail — and suspended records
//!    missing their snapshot, and snapshots missing their meta — are
//!    moved into a `quarantine/` subdirectory (never deleted, never
//!    panicked over) with a `.reason` note for the operator.
//!
//! The sweep's [`RecoveryReport`] lists what was promoted, discarded,
//! quarantined and recovered; `kgae-serve` logs it at startup. Ids
//! found in `quarantine/` persist across restarts via
//! [`SnapshotStore::quarantined_ids`], so the manager can answer `410
//! Gone` for them instead of `404`.
//!
//! [`open`]: SnapshotStore::open

use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::fault;
use crate::metrics::Metrics;

/// Maximum length of a session id.
pub const MAX_ID_LEN: usize = 64;

/// Name of the store subdirectory holding quarantined records.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Whether `id` is a valid session id: 1–[`MAX_ID_LEN`] characters from
/// `[A-Za-z0-9._-]`, not starting with a dot, and not one of the
/// store's reserved names (`quarantine`, anything ending in `.tmp`).
/// The alphabet doubles as the store's filename contract.
#[must_use]
pub fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_LEN
        && !id.starts_with('.')
        && id != QUARANTINE_DIR
        && !id.ends_with(".tmp")
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Lower-case hex encoding (snapshot bytes on the wire).
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble"));
    }
    out
}

/// Inverse of [`to_hex`]; `None` on odd length or non-hex characters.
#[must_use]
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// A dormant session's on-disk record.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSession {
    /// The meta JSON document (spec + cached status), verbatim.
    pub meta: String,
    /// Snapshot bytes, when the session was suspended mid-flight
    /// (`None` for sessions that finished before eviction).
    pub snapshot: Option<Vec<u8>>,
}

/// What the startup recovery sweep did (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// File names of orphaned `.tmp` writes completed by promotion.
    pub promoted: Vec<String>,
    /// File names of orphaned `.tmp` writes discarded (target already
    /// committed, or the temp content was torn).
    pub discarded: Vec<String>,
    /// `(session id, reason)` for every record moved to `quarantine/`
    /// by this sweep.
    pub quarantined: Vec<(String, String)>,
    /// Ids of every session that survived the sweep intact.
    pub recovered: Vec<String>,
}

impl RecoveryReport {
    /// Whether the sweep found nothing to repair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.promoted.is_empty() && self.discarded.is_empty() && self.quarantined.is_empty()
    }
}

/// A directory of dormant sessions.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    recovery: RecoveryReport,
    /// Durability counters (bytes written, fsyncs, quarantines); absent
    /// until [`SnapshotStore::set_metrics`] attaches a registry.
    metrics: Option<Arc<Metrics>>,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`, running the
    /// recovery sweep described in the module docs before returning.
    /// The sweep's findings are kept on the store
    /// ([`SnapshotStore::recovery_report`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and sweep I/O failures. A corrupt
    /// *record* is never an error — it is quarantined — but an
    /// unreadable *directory* is.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        std::fs::create_dir_all(dir.join(QUARANTINE_DIR))?;
        let mut store = Self {
            dir,
            recovery: RecoveryReport::default(),
            metrics: None,
        };
        store.recovery = store.recover()?;
        Ok(store)
    }

    /// Attaches a metrics registry: subsequent writes count bytes and
    /// fsyncs, quarantines count records, and whatever the recovery
    /// sweep already quarantined is credited up front.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        metrics
            .store_recovery_quarantined
            .fetch_add(self.recovery.quarantined.len() as u64, Ordering::Relaxed);
        self.metrics = Some(metrics);
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the recovery sweep found when this store was opened.
    #[must_use]
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    pub(crate) fn meta_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.meta.json"))
    }

    pub(crate) fn snap_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.snap"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8], site: &'static str) -> io::Result<()> {
        // Appended (not substituted) extension: distinct target files
        // always get distinct temp files.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        #[cfg(feature = "fault-injection")]
        match fault::check(site) {
            Some(fault::FaultAction::Crash) => std::process::abort(),
            Some(fault::FaultAction::Torn(n)) => {
                // Persist a prefix, make sure it reaches disk, then die
                // — the strongest torn-write a crash can leave behind.
                let _ = file.write_all(&bytes[..n.min(bytes.len())]);
                let _ = file.sync_all();
                std::process::abort();
            }
            Some(fault::FaultAction::Err) => return Err(fault::injected_error()),
            Some(fault::FaultAction::Drop) | None => {}
        }
        #[cfg(not(feature = "fault-injection"))]
        let _ = site;
        file.write_all(bytes)?;
        // fsync before rename: otherwise a power cut can commit the
        // rename but not the data, turning an atomic write into a
        // torn one.
        file.sync_all()?;
        drop(file);
        if let Some(metrics) = &self.metrics {
            // Counted only after the sync succeeded: the counters
            // promise durable bytes, not attempted ones.
            metrics
                .store_bytes_written
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            metrics.store_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        match fault::check(fault::site::STORE_RENAME) {
            Some(fault::FaultAction::Crash) => std::process::abort(),
            Some(fault::FaultAction::Err) => {
                #[cfg(feature = "fault-injection")]
                return Err(fault::injected_error());
            }
            _ => {}
        }
        std::fs::rename(&tmp, path)
    }

    /// Persists a session record, replacing any previous one. With
    /// `snapshot: None` a stale `.snap` file from an earlier suspension
    /// is removed, keeping the record's two files consistent.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an invalid id; otherwise filesystem errors.
    pub fn save(&self, id: &str, meta: &str, snapshot: Option<&[u8]>) -> io::Result<()> {
        if !valid_session_id(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id {id:?}"),
            ));
        }
        match snapshot {
            Some(bytes) => {
                self.write_atomic(&self.snap_path(id), bytes, fault::site::STORE_SNAP_WRITE)?;
            }
            None => match std::fs::remove_file(self.snap_path(id)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            },
        }
        self.write_atomic(
            &self.meta_path(id),
            meta.as_bytes(),
            fault::site::STORE_META_WRITE,
        )
    }

    /// Loads a session record; `Ok(None)` when the id is unknown.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than a missing record.
    pub fn load(&self, id: &str) -> io::Result<Option<StoredSession>> {
        if !valid_session_id(id) {
            return Ok(None);
        }
        match fault::check(fault::site::STORE_READ) {
            Some(fault::FaultAction::Crash) => std::process::abort(),
            #[cfg(feature = "fault-injection")]
            Some(fault::FaultAction::Err) => return Err(fault::injected_error()),
            _ => {}
        }
        let meta = match std::fs::read_to_string(self.meta_path(id)) {
            Ok(meta) => meta,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let snapshot = match std::fs::read(self.snap_path(id)) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(Some(StoredSession { meta, snapshot }))
    }

    /// Whether a record exists for `id`.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        valid_session_id(id) && self.meta_path(id).exists()
    }

    /// Removes a session record (idempotent).
    ///
    /// # Errors
    ///
    /// Filesystem errors other than a missing record.
    pub fn remove(&self, id: &str) -> io::Result<()> {
        if !valid_session_id(id) {
            return Ok(());
        }
        for path in [self.meta_path(id), self.snap_path(id)] {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Ids of every stored session, sorted.
    ///
    /// # Errors
    ///
    /// Directory-read failures.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name.strip_suffix(".meta.json") {
                if valid_session_id(id) {
                    ids.push(id.to_string());
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Moves a session's record files into `quarantine/`, replacing any
    /// older quarantined copy, and writes a `<id>.reason` note. Used by
    /// the recovery sweep and by the manager when a record turns out to
    /// be corrupt at rehydration time. Idempotent; a partial record
    /// (meta or snap missing) quarantines whatever exists.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an invalid id; otherwise filesystem errors.
    pub fn quarantine(&self, id: &str, reason: &str) -> io::Result<()> {
        if !valid_session_id(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id {id:?}"),
            ));
        }
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        for (path, name) in [
            (self.meta_path(id), format!("{id}.meta.json")),
            (self.snap_path(id), format!("{id}.snap")),
        ] {
            match std::fs::rename(&path, qdir.join(name)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        std::fs::write(qdir.join(format!("{id}.reason")), format!("{reason}\n"))?;
        if let Some(metrics) = &self.metrics {
            metrics.store_quarantined.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Ids with records in `quarantine/`, sorted — persists across
    /// restarts, so a restarted server keeps answering `410 Gone` for
    /// them.
    ///
    /// # Errors
    ///
    /// Directory-read failures.
    pub fn quarantined_ids(&self) -> io::Result<Vec<String>> {
        let mut ids = BTreeSet::new();
        let entries = match std::fs::read_dir(self.quarantine_dir()) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let id = name
                .strip_suffix(".meta.json")
                .or_else(|| name.strip_suffix(".snap"))
                .or_else(|| name.strip_suffix(".reason"));
            if let Some(id) = id {
                if valid_session_id(id) {
                    ids.insert(id.to_string());
                }
            }
        }
        Ok(ids.into_iter().collect())
    }

    // -----------------------------------------------------------------
    // Recovery sweep
    // -----------------------------------------------------------------

    /// Whether `bytes` is a plausible committed file named `name`:
    /// meta records must be JSON naming the right id and a known state,
    /// snapshots must carry a well-formed fingerprinted header.
    fn content_valid(name: &str, bytes: &[u8]) -> bool {
        if let Some(id) = name.strip_suffix(".meta.json") {
            return meta_plausible(id, bytes);
        }
        if name.strip_suffix(".snap").is_some() {
            return kgae_core::snapshot_engine_kind(bytes).is_ok();
        }
        false
    }

    /// Pass 1: finish or discard orphaned `.tmp` files.
    fn sweep_tmp_files(&self, report: &mut RecoveryReport) -> io::Result<()> {
        let mut tmp_files = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.ends_with(".tmp") {
                    tmp_files.push(name.to_string());
                }
            }
        }
        tmp_files.sort();
        for name in tmp_files {
            let tmp = self.dir.join(&name);
            let target_name = name.strip_suffix(".tmp").expect("filtered above");
            let target = self.dir.join(target_name);
            // When the rename target exists the committed state wins;
            // otherwise promote iff the temp content is a complete,
            // valid record (the crash hit between fsync and rename).
            let promote = !target_name.is_empty()
                && !target.exists()
                && std::fs::read(&tmp)
                    .map(|bytes| Self::content_valid(target_name, &bytes))
                    .unwrap_or(false);
            if promote {
                std::fs::rename(&tmp, &target)?;
                report.promoted.push(target_name.to_string());
            } else {
                std::fs::remove_file(&tmp)?;
                report.discarded.push(name);
            }
        }
        Ok(())
    }

    /// Pass 2: validate every surviving record, quarantining the broken
    /// ones.
    fn sweep_records(&self, report: &mut RecoveryReport) -> io::Result<()> {
        let mut metas = BTreeSet::new();
        let mut snaps = BTreeSet::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name.strip_suffix(".meta.json") {
                if valid_session_id(id) {
                    metas.insert(id.to_string());
                }
            } else if let Some(id) = name.strip_suffix(".snap") {
                if valid_session_id(id) {
                    snaps.insert(id.to_string());
                }
            }
        }
        let condemn = |id: &str, reason: &str, report: &mut RecoveryReport| -> io::Result<()> {
            self.quarantine(id, reason)?;
            report
                .quarantined
                .push((id.to_string(), reason.to_string()));
            Ok(())
        };
        for id in snaps.difference(&metas) {
            condemn(id, "snapshot without a meta record", report)?;
        }
        'meta: for id in &metas {
            let meta = std::fs::read(self.meta_path(id))?;
            let Some(state) = meta_state(id, &meta) else {
                condemn(id, "unreadable meta record", report)?;
                continue;
            };
            match (state, snaps.contains(id)) {
                (MetaState::Suspended, false) => {
                    condemn(id, "suspended session missing its snapshot", report)?;
                    continue;
                }
                (MetaState::Suspended, true) => {
                    let snap = std::fs::read(self.snap_path(id))?;
                    if let Err(e) = kgae_core::snapshot_engine_kind(&snap) {
                        condemn(id, &format!("corrupt or truncated snapshot: {e}"), report)?;
                        continue 'meta;
                    }
                }
                // A finished record needs no snapshot; a stray one
                // (crash between snap removal and meta write) is
                // harmless and ignored at load time.
                (MetaState::Finished, _) => {}
            }
            report.recovered.push(id.clone());
        }
        Ok(())
    }

    fn recover(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        self.sweep_tmp_files(&mut report)?;
        self.sweep_records(&mut report)?;
        report.recovered.sort();
        Ok(report)
    }
}

/// The two states a persisted meta record can be in. (The manager never
/// persists a running session.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetaState {
    Suspended,
    Finished,
}

/// Structural validation of a meta record at the store level: JSON,
/// names `id`, carries a known state. Full spec decoding stays with
/// the manager — rehydration re-checks everything and quarantines on
/// failure; the sweep only needs to catch torn or foreign files.
pub(crate) fn meta_state(id: &str, bytes: &[u8]) -> Option<MetaState> {
    let text = std::str::from_utf8(bytes).ok()?;
    let doc = crate::json::parse(text).ok()?;
    let spec_id = doc.get("spec")?.get("id")?.as_str()?;
    if spec_id != id {
        return None;
    }
    match doc.get("state")?.as_str()? {
        "suspended" => Some(MetaState::Suspended),
        "finished" => Some(MetaState::Finished),
        _ => None,
    }
}

fn meta_plausible(id: &str, bytes: &[u8]) -> bool {
    meta_state(id, bytes).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgae-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta_for(id: &str, state: &str) -> String {
        format!(r#"{{"spec":{{"id":"{id}"}},"state":"{state}"}}"#)
    }

    /// A structurally valid snapshot: round-trip one through a real
    /// engine so `snapshot_engine_kind` accepts it.
    fn real_snapshot() -> Vec<u8> {
        use kgae_graph::GroundTruth;
        use rand::SeedableRng;
        let kg = kgae_graph::datasets::syn_scaled(256, 16, 0.8, 11);
        let mut session = kgae_core::EvaluationSession::new(
            &kg,
            kgae_core::SamplingDesign::Srs,
            &kgae_core::IntervalMethod::Wilson,
            &kgae_core::EvalConfig::default(),
            rand::rngs::SmallRng::seed_from_u64(3),
        );
        let request = session.next_request(8).expect("request").expect("batch");
        let labels: Vec<bool> = request
            .triples
            .iter()
            .map(|st| kg.is_correct(st.triple))
            .collect();
        session.submit(&labels).expect("submit");
        session.snapshot().expect("snapshot")
    }

    #[test]
    fn id_validation_blocks_path_tricks_and_reserved_names() {
        assert!(valid_session_id("campaign-07.retry_2"));
        assert!(valid_session_id("A"));
        assert!(
            valid_session_id("quarantine2"),
            "only the exact name is reserved"
        );
        for bad in ["", ".", "..", ".hidden", "a/b", "a\\b", "a b", "caf\u{e9}"] {
            assert!(!valid_session_id(bad), "{bad:?}");
        }
        for reserved in ["quarantine", "x.tmp", "a.meta.json.tmp", ".tmp"] {
            assert!(!valid_session_id(reserved), "{reserved:?}");
        }
        assert!(!valid_session_id(&"x".repeat(MAX_ID_LEN + 1)));
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn save_load_remove_round_trip() {
        let store = SnapshotStore::open(temp_dir("roundtrip")).unwrap();
        assert_eq!(store.load("s1").unwrap(), None);
        store
            .save("s1", r#"{"state":"suspended"}"#, Some(&[1, 2, 3]))
            .unwrap();
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.meta, r#"{"state":"suspended"}"#);
        assert_eq!(rec.snapshot.as_deref(), Some(&[1u8, 2, 3][..]));
        // Re-saving without a snapshot clears the stale .snap file.
        store.save("s1", r#"{"state":"finished"}"#, None).unwrap();
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.snapshot, None);
        store.save("s2", "{}", None).unwrap();
        assert_eq!(store.list().unwrap(), vec!["s1".to_string(), "s2".into()]);
        assert!(store.contains("s1"));
        store.remove("s1").unwrap();
        store.remove("s1").unwrap(); // idempotent
        assert!(!store.contains("s1"));
        assert_eq!(store.list().unwrap(), vec!["s2".to_string()]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn invalid_ids_never_touch_the_filesystem() {
        let store = SnapshotStore::open(temp_dir("invalid")).unwrap();
        assert!(store.save("../escape", "{}", None).is_err());
        assert_eq!(store.load("../escape").unwrap(), None);
        assert!(!store.contains("../escape"));
        assert!(store.save("quarantine", "{}", None).is_err());
        assert!(store.save("x.tmp", "{}", None).is_err());
        assert!(store.quarantine("../escape", "r").is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn recovery_promotes_complete_orphan_tmp_writes() {
        let dir = temp_dir("promote");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = real_snapshot();
        // Crash between fsync and rename: full, valid temp files with
        // no committed target.
        std::fs::write(dir.join("s1.meta.json.tmp"), meta_for("s1", "suspended")).unwrap();
        std::fs::write(dir.join("s1.snap.tmp"), &snap).unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(
            report.promoted,
            vec!["s1.meta.json".to_string(), "s1.snap".into()]
        );
        assert_eq!(report.recovered, vec!["s1".to_string()]);
        assert!(report.quarantined.is_empty());
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&snap[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_discards_tmp_when_target_committed_or_torn() {
        let dir = temp_dir("discard");
        std::fs::create_dir_all(&dir).unwrap();
        // Committed meta wins over a lingering temp.
        std::fs::write(dir.join("s1.meta.json"), meta_for("s1", "finished")).unwrap();
        std::fs::write(dir.join("s1.meta.json.tmp"), meta_for("s1", "suspended")).unwrap();
        // Torn snapshot temp with no target: discarded, not promoted.
        std::fs::write(dir.join("s2.snap.tmp"), &real_snapshot()[..5]).unwrap();
        // A stray tmp with no recognizable target shape.
        std::fs::write(dir.join("junk.tmp"), b"?").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert!(report.promoted.is_empty());
        assert_eq!(
            report.discarded,
            vec![
                "junk.tmp".to_string(),
                "s1.meta.json.tmp".into(),
                "s2.snap.tmp".into()
            ]
        );
        assert_eq!(report.recovered, vec!["s1".to_string()]);
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.meta, meta_for("s1", "finished"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_quarantines_corrupt_and_partial_records() {
        let dir = temp_dir("quarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = real_snapshot();
        // Intact suspended record survives.
        std::fs::write(dir.join("ok.meta.json"), meta_for("ok", "suspended")).unwrap();
        std::fs::write(dir.join("ok.snap"), &snap).unwrap();
        // Truncated snapshot.
        std::fs::write(dir.join("torn.meta.json"), meta_for("torn", "suspended")).unwrap();
        std::fs::write(dir.join("torn.snap"), &snap[..3]).unwrap();
        // Suspended meta without any snapshot.
        std::fs::write(dir.join("lost.meta.json"), meta_for("lost", "suspended")).unwrap();
        // Snapshot without a meta record.
        std::fs::write(dir.join("orphan.snap"), &snap).unwrap();
        // Meta that is not even JSON.
        std::fs::write(dir.join("garbled.meta.json"), b"\xff\xfe{{{").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report().clone();
        assert_eq!(report.recovered, vec!["ok".to_string()]);
        let ids: Vec<&str> = report
            .quarantined
            .iter()
            .map(|(id, _)| id.as_str())
            .collect();
        assert_eq!(ids, vec!["orphan", "garbled", "lost", "torn"]);
        assert_eq!(
            store.quarantined_ids().unwrap(),
            vec![
                "garbled".to_string(),
                "lost".into(),
                "orphan".into(),
                "torn".into()
            ]
        );
        // Quarantined records are out of the index but preserved on
        // disk, with a reason note.
        assert_eq!(store.list().unwrap(), vec!["ok".to_string()]);
        assert!(dir.join(QUARANTINE_DIR).join("torn.snap").exists());
        let reason = std::fs::read_to_string(dir.join(QUARANTINE_DIR).join("torn.reason")).unwrap();
        assert!(reason.contains("snapshot"), "{reason:?}");
        // Re-opening is stable: nothing more to repair, quarantine
        // ids persist.
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        assert_eq!(store.recovery_report().recovered, vec!["ok".to_string()]);
        assert_eq!(store.quarantined_ids().unwrap().len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_state_rejects_foreign_and_mismatched_documents() {
        assert_eq!(
            meta_state("a", meta_for("a", "suspended").as_bytes()),
            Some(MetaState::Suspended)
        );
        assert_eq!(
            meta_state("a", meta_for("a", "finished").as_bytes()),
            Some(MetaState::Finished)
        );
        assert_eq!(meta_state("a", meta_for("b", "finished").as_bytes()), None);
        assert_eq!(meta_state("a", meta_for("a", "running").as_bytes()), None);
        assert_eq!(meta_state("a", b"not json"), None);
        assert_eq!(meta_state("a", b"{}"), None);
    }
}
