//! The snapshot store: dormant sessions as files.
//!
//! A suspended evaluation campaign is a few KB of snapshot bytes plus a
//! small JSON meta record (its spec, state and fencing seq; its status
//! is derived from the snapshot, never stored). Spilling idle sessions
//! here is what lets one server host millions of dormant campaigns: RAM
//! holds only the live ones, disk holds the rest, and rehydration is
//! lazy — a session is re-validated (snapshot fingerprints and all) and
//! rebuilt only when traffic returns for it.
//!
//! Layout: one directory, one file per session, `<id>.rec`: a
//! little-endian `u32` meta length, the meta JSON, then the snapshot
//! bytes (none for a session that finished before eviction). Session
//! ids are restricted to a filename-safe alphabet at the API boundary
//! and re-checked here, so ids can never traverse paths. `quarantine`
//! and any id ending in `.tmp` are reserved (they would collide with
//! the recovery machinery below) and rejected at the same boundary.
//!
//! # The index
//!
//! The store keeps what its open sweep read in memory: every record's
//! tenant and state (finished ones with their stop reason), and every
//! quarantined id. Saves, removes and quarantines keep it current, so
//! listing, counting or refusing a dormant session reads no record. A
//! save indexes its record once the rename has put it in place, before
//! the directory fsync, so the index always equals what a fresh open of
//! the directory builds; a quarantine marks the id before it moves the
//! file, so a failed move still refuses the id.
//!
//! # Crash safety
//!
//! A save writes the whole record to `<id>.rec.tmp`, fsyncs it, renames
//! it over `<id>.rec` and fsyncs the directory, so the rename itself
//! survives a power cut before `save` returns. A record's meta and
//! snapshot therefore always come from the same save, and a crash
//! leaves either the previous record or the new one. A save that fails
//! without a crash removes its own temp, so at runtime a `.tmp` exists
//! only while its save is in flight under the session's shard lock;
//! only a crash leaves one behind. [`open`] runs a **recovery sweep**
//! before serving any traffic:
//!
//! 1. Every orphaned `.tmp` is *discarded*: it is a save that never
//!    returned, so nobody was told it succeeded.
//! 2. Every record is validated: its meta must parse as JSON naming the
//!    right id and a known state (a finished one with its stop reason),
//!    a suspended record must carry a snapshot with a well-formed
//!    header, and a finished one none. Records that fail are moved into
//!    a `quarantine/` subdirectory (never deleted, never panicked over)
//!    with a `.reason` note for the operator. So are files of the
//!    retired two-file layout (`<id>.meta.json` + `<id>.snap`), which
//!    this store does not read.
//!
//! The sweep's [`RecoveryReport`] lists what was discarded, quarantined
//! and recovered; `kgae-serve` logs it at startup. Ids with a note in
//! `quarantine/` stay quarantined across restarts, so the manager keeps
//! answering `410 Gone` for them instead of `404`.
//!
//! [`open`]: SnapshotStore::open

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use kgae_core::StopReason;

use crate::fault;
use crate::json::{self, Json};
use crate::metrics::Metrics;

/// Maximum length of a session id.
pub const MAX_ID_LEN: usize = 64;

/// Name of the store subdirectory holding quarantined records.
pub const QUARANTINE_DIR: &str = "quarantine";

/// File extension of a session record.
const RECORD_EXT: &str = ".rec";

/// File extensions of the retired two-file layout, quarantined at open.
const LEGACY_EXTS: [&str; 2] = [".meta.json", ".snap"];

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
    /// The meta JSON document (spec, state and the state's tail
    /// fields), verbatim.
    pub meta: String,
    /// Snapshot bytes, when the session was suspended mid-flight
    /// (`None` for sessions that finished before eviction; an empty
    /// snapshot reads back as `None`).
    pub snapshot: Option<Vec<u8>>,
}

/// A record's bytes: the meta length, the meta, the snapshot.
fn encode_record(meta: &str, snapshot: Option<&[u8]>) -> io::Result<Vec<u8>> {
    let len = u32::try_from(meta.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "meta record over 4 GiB"))?;
    let snapshot = snapshot.unwrap_or_default();
    let mut bytes = Vec::with_capacity(4 + meta.len() + snapshot.len());
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(meta.as_bytes());
    bytes.extend_from_slice(snapshot);
    Ok(bytes)
}

/// Splits a record into its meta and its snapshot (`None` when the
/// record ends with its meta); `None` when the length prefix overruns
/// the record or the meta is not UTF-8.
fn decode_record(bytes: &[u8]) -> Option<(&str, Option<&[u8]>)> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let len = usize::try_from(u32::from_le_bytes(*len)).ok()?;
    if rest.len() < len {
        return None;
    }
    let (meta, snapshot) = rest.split_at(len);
    Some((
        std::str::from_utf8(meta).ok()?,
        (!snapshot.is_empty()).then_some(snapshot),
    ))
}

/// What the index knows of one stored record, read from its meta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredEntry {
    /// The tenant whose quota the session counts against (empty for the
    /// default tenant).
    pub tenant: String,
    /// Why the session stopped; `None` while it is suspended.
    pub reason: Option<StopReason>,
}

/// The index entry of the record `bytes` stored under `id`, or why the
/// record cannot be served: structural validation at the store level.
/// Full spec decoding stays with the manager — rehydration re-checks
/// everything and quarantines on failure; the sweep only needs to catch
/// torn or foreign files.
fn record_entry(id: &str, bytes: &[u8]) -> Result<StoredEntry, String> {
    let (meta, snapshot) = decode_record(bytes).ok_or("truncated or malformed record")?;
    let entry = meta_entry(id, meta).ok_or("unreadable meta record")?;
    match (entry.reason, snapshot) {
        (None, None) => Err("suspended session missing its snapshot".into()),
        (None, Some(snapshot)) => kgae_core::snapshot_engine_kind(snapshot)
            .map(|_| entry)
            .map_err(|e| format!("corrupt or truncated snapshot: {e}")),
        (Some(_), Some(_)) => Err("finished record carrying a snapshot".into()),
        (Some(_), None) => Ok(entry),
    }
}

/// The index entry a meta record describes: JSON whose spec names `id`,
/// with a string tenant if any, in a known state, a finished one with a
/// known stop reason. (The manager never persists a running session.)
fn meta_entry(id: &str, meta: &str) -> Option<StoredEntry> {
    let doc = json::parse(meta).ok()?;
    let spec = doc.get("spec")?;
    if spec.get("id")?.as_str()? != id {
        return None;
    }
    let tenant = match spec.get("tenant") {
        None | Some(Json::Null) => "",
        Some(tenant) => tenant.as_str()?,
    }
    .to_string();
    let reason = match doc.get("state")?.as_str()? {
        "suspended" => None,
        "finished" => Some(crate::api::stop_reason_from_name(doc.get("reason")?.as_str()?).ok()?),
        _ => return None,
    };
    Some(StoredEntry { tenant, reason })
}

/// What the startup recovery sweep did (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// File names of the orphaned `.tmp` writes discarded.
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
        self.discarded.is_empty() && self.quarantined.is_empty()
    }
}

/// A directory of dormant sessions.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    recovery: RecoveryReport,
    /// The index (see the module docs): every record's entry, and every
    /// quarantined id, each under its own lock so the quarantine check
    /// on every request never waits on a listing.
    records: Mutex<BTreeMap<String, StoredEntry>>,
    quarantined: Mutex<BTreeSet<String>>,
    /// Durability counters (bytes written, fsyncs, quarantines); absent
    /// until [`SnapshotStore::set_metrics`] attaches a registry.
    metrics: Option<Arc<Metrics>>,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store rooted at `dir`, running the
    /// recovery sweep described in the module docs before returning.
    /// The sweep's findings are kept on the store
    /// ([`SnapshotStore::recovery_report`]), and what it read is its
    /// index.
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
            records: Mutex::default(),
            quarantined: Mutex::default(),
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

    fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}{RECORD_EXT}"))
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join(QUARANTINE_DIR)
    }

    fn records(&self) -> MutexGuard<'_, BTreeMap<String, StoredEntry>> {
        self.records.lock().expect("store index lock")
    }

    fn quarantined(&self) -> MutexGuard<'_, BTreeSet<String>> {
        self.quarantined.lock().expect("store index lock")
    }

    /// Writes `bytes` as `id`'s record: write and fsync a temp file,
    /// rename it over the record, index `entry` (see [`Self::save`]),
    /// fsync the directory.
    fn write_record(&self, id: &str, bytes: &[u8], entry: Option<StoredEntry>) -> io::Result<()> {
        let path = self.record_path(id);
        // Appended (not substituted) extension: distinct target files
        // always get distinct temp files.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = std::fs::File::create(&tmp)?;
        if let Err(e) = self.write_and_rename(file, &tmp, &path, bytes) {
            // A failed save takes its temp with it, so a `.tmp` outlives
            // its save only through a crash, and the open sweep owns
            // those.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // The new record is in place: a fresh open would read it, so the
        // index does, whether or not the directory fsync succeeds.
        let mut records = self.records();
        let entry = entry.or_else(|| records.get(id).cloned());
        records.insert(id.to_string(), entry.unwrap_or_default());
        drop(records);
        // fsync the directory: until its entry is durable, a power cut
        // can undo the rename of a save already acknowledged.
        #[cfg(feature = "fault-injection")]
        if fault::check(fault::site::STORE_DIRSYNC) == Some(fault::FaultAction::Err) {
            return Err(fault::injected_error());
        }
        std::fs::File::open(&self.dir)?.sync_all()?;
        if let Some(metrics) = &self.metrics {
            metrics.store_fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The body of [`Self::write_record`] once `tmp` exists: write and
    /// fsync it, rename it over `path`.
    fn write_and_rename(
        &self,
        mut file: std::fs::File,
        tmp: &Path,
        path: &Path,
        bytes: &[u8],
    ) -> io::Result<()> {
        #[cfg(feature = "fault-injection")]
        match fault::check(fault::site::STORE_WRITE) {
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
        std::fs::rename(tmp, path)
    }

    /// Persists a session record, replacing any previous one in a
    /// single atomic write (see the module docs). `meta` is stored
    /// verbatim and indexed as the open sweep would read it; a meta the
    /// sweep could not read keeps the id's previous entry (or a
    /// suspended one in the default tenant) until a read of the record
    /// quarantines it.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an invalid id or a meta over 4 GiB; otherwise
    /// filesystem errors, which leave the previous record in place (or,
    /// when only the directory fsync fails, the new one: whole records
    /// either way, and the index naming the one in place) and no temp
    /// file behind.
    pub fn save(&self, id: &str, meta: &str, snapshot: Option<&[u8]>) -> io::Result<()> {
        if !valid_session_id(id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id {id:?}"),
            ));
        }
        self.write_record(id, &encode_record(meta, snapshot)?, meta_entry(id, meta))
    }

    /// Loads a session record; `Ok(None)` when the id is unknown. One
    /// read of one file, so the meta and snapshot always come from the
    /// same save, whatever saves race it.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a record whose framing is broken; filesystem
    /// errors other than a missing record.
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
        let bytes = match std::fs::read(self.record_path(id)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        if let Some(metrics) = &self.metrics {
            metrics.store_records_read.fetch_add(1, Ordering::Relaxed);
        }
        let (meta, snapshot) = decode_record(&bytes).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("session {id:?}: truncated or malformed record"),
            )
        })?;
        Ok(Some(StoredSession {
            meta: meta.to_string(),
            snapshot: snapshot.map(<[u8]>::to_vec),
        }))
    }

    /// Whether a record exists for `id`, by the index.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.records().contains_key(id)
    }

    /// Removes a session record (idempotent), returning its index entry
    /// if it had one.
    ///
    /// # Errors
    ///
    /// Filesystem errors other than a missing record.
    pub fn remove(&self, id: &str) -> io::Result<Option<StoredEntry>> {
        if !valid_session_id(id) {
            return Ok(None);
        }
        match std::fs::remove_file(self.record_path(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(self.records().remove(id)),
        }
    }

    /// Every stored session with its index entry, sorted by id.
    #[must_use]
    pub fn list(&self) -> Vec<(String, StoredEntry)> {
        let records = self.records();
        records
            .iter()
            .map(|(id, e)| (id.clone(), e.clone()))
            .collect()
    }

    /// Moves a session's record into `quarantine/`, replacing any older
    /// quarantined copy, and writes a `<id>.reason` note. The index
    /// marks the id quarantined and drops its entry first, so it is
    /// refused even when the move fails. Used by the manager when a
    /// record turns out to be corrupt at rehydration time. Idempotent.
    ///
    /// Returns the index entry this call removed — `None` when the id
    /// was not indexed, e.g. because a racing call quarantined it first
    /// — whether or not the move succeeded, beside the move's outcome.
    ///
    /// # Errors
    ///
    /// The outcome is `InvalidInput` for an invalid id; otherwise
    /// filesystem errors.
    pub fn quarantine(&self, id: &str, reason: &str) -> (Option<StoredEntry>, io::Result<()>) {
        if !valid_session_id(id) {
            let invalid = io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid session id {id:?}"),
            );
            return (None, Err(invalid));
        }
        self.quarantined().insert(id.to_string());
        let entry = self.records().remove(id);
        let moved = self.quarantine_file(&format!("{id}{RECORD_EXT}"), id, reason);
        (entry, moved)
    }

    /// Moves the store file `name`, which belongs to `id`, into
    /// `quarantine/` and writes `id`'s reason note.
    fn quarantine_file(&self, name: &str, id: &str, reason: &str) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        if let Err(e) = std::fs::rename(self.dir.join(name), qdir.join(name)) {
            if e.kind() != io::ErrorKind::NotFound {
                return Err(e);
            }
        }
        std::fs::write(qdir.join(format!("{id}.reason")), format!("{reason}\n"))?;
        if let Some(metrics) = &self.metrics {
            metrics.store_quarantined.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Whether `id` is quarantined, by the index.
    #[must_use]
    pub fn is_quarantined(&self, id: &str) -> bool {
        self.quarantined().contains(id)
    }

    /// Quarantined ids, sorted: those with a `.reason` note in
    /// `quarantine/` at open, and those quarantined since — so a
    /// restarted server keeps answering `410 Gone` for them.
    #[must_use]
    pub fn quarantined_ids(&self) -> Vec<String> {
        self.quarantined().iter().cloned().collect()
    }

    /// The UTF-8 names in the store directory, sorted.
    fn file_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    // -----------------------------------------------------------------
    // Recovery sweep
    // -----------------------------------------------------------------

    /// Pass 1: discard orphaned `.tmp` files. A save returns only after
    /// its rename is durable, so a temp is a save nobody was told
    /// succeeded.
    fn sweep_tmp_files(&self, report: &mut RecoveryReport) -> io::Result<()> {
        for name in self.file_names()? {
            if name.ends_with(".tmp") {
                std::fs::remove_file(self.dir.join(&name))?;
                report.discarded.push(name);
            }
        }
        Ok(())
    }

    /// Pass 2: validate every record, indexing the sound ones and
    /// quarantining the broken ones and the files of the retired
    /// two-file layout.
    fn sweep_records(&self, report: &mut RecoveryReport) -> io::Result<()> {
        let mut legacy = BTreeSet::new();
        for name in self.file_names()? {
            if let Some(id) = record_id(&name) {
                let bytes = std::fs::read(self.dir.join(&name))?;
                match record_entry(id, &bytes) {
                    Ok(entry) => {
                        self.records().insert(id.to_string(), entry);
                        report.recovered.push(id.to_string());
                    }
                    Err(reason) => {
                        self.quarantine_file(&name, id, &reason)?;
                        report.quarantined.push((id.to_string(), reason));
                    }
                }
            } else if let Some(id) = LEGACY_EXTS
                .iter()
                .find_map(|ext| name.strip_suffix(ext))
                .filter(|id| valid_session_id(id))
            {
                const REASON: &str = "stored in the retired two-file layout \
                    (<id>.meta.json + <id>.snap); this release reads one <id>.rec \
                    record per session";
                self.quarantine_file(&name, id, REASON)?;
                if legacy.insert(id.to_string()) {
                    report
                        .quarantined
                        .push((id.to_string(), REASON.to_string()));
                }
            }
        }
        Ok(())
    }

    /// Pass 3: index every id with a `.reason` note in `quarantine/`,
    /// this sweep's and earlier ones'.
    fn index_quarantine(&self) -> io::Result<()> {
        let mut quarantined = self.quarantined();
        for entry in std::fs::read_dir(self.quarantine_dir())? {
            let name = entry?.file_name();
            if let Some(id) = name.to_str().and_then(|name| name.strip_suffix(".reason")) {
                if valid_session_id(id) {
                    quarantined.insert(id.to_string());
                }
            }
        }
        Ok(())
    }

    fn recover(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        self.sweep_tmp_files(&mut report)?;
        self.sweep_records(&mut report)?;
        self.index_quarantine()?;
        report.recovered.sort();
        Ok(report)
    }
}

/// The session id a store file name belongs to, when it names a record.
fn record_id(name: &str) -> Option<&str> {
    name.strip_suffix(RECORD_EXT)
        .filter(|id| valid_session_id(id))
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

    /// A meta in `state`; a finished one stopped on the MoE.
    fn meta_for(id: &str, state: &str) -> String {
        let reason = if state == "finished" {
            r#","reason":"moe_satisfied""#
        } else {
            ""
        };
        format!(r#"{{"spec":{{"id":"{id}"}},"state":"{state}"{reason}}}"#)
    }

    /// `id`'s index entry in `store`.
    fn entry(store: &SnapshotStore, id: &str) -> Option<StoredEntry> {
        store
            .list()
            .into_iter()
            .find(|(at, _)| at == id)
            .map(|(_, e)| e)
    }

    /// The ids `store` lists.
    fn ids(store: &SnapshotStore) -> Vec<String> {
        store.list().into_iter().map(|(id, _)| id).collect()
    }

    /// Asserts that `store`'s index equals the one a fresh open of its
    /// directory builds.
    fn assert_index_matches_a_fresh_open(store: &SnapshotStore, what: &str) {
        let fresh = SnapshotStore::open(store.dir()).unwrap();
        assert_eq!(store.list(), fresh.list(), "{what}");
        assert_eq!(store.quarantined_ids(), fresh.quarantined_ids(), "{what}");
    }

    /// Writes the record `(meta, snapshot)` under the file name `name`.
    fn plant(dir: &Path, name: &str, meta: &str, snapshot: Option<&[u8]>) {
        std::fs::write(dir.join(name), encode_record(meta, snapshot).unwrap()).unwrap();
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
        for reserved in ["quarantine", "x.tmp", "a.rec.tmp", ".tmp"] {
            assert!(!valid_session_id(reserved), "{reserved:?}");
        }
        assert!(!valid_session_id(&"x".repeat(MAX_ID_LEN + 1)));
    }

    #[test]
    fn file_names_classify_as_session_records_or_junk() {
        assert_eq!(record_id("abc.rec"), Some("abc"));
        assert_eq!(record_id("abc.meta.json"), None, "retired layout");
        assert_eq!(record_id("abc"), None);
        assert_eq!(record_id(".hidden.rec"), None, "invalid id");
        assert_eq!(record_id(""), None);
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
        let _faults = fault::test_lock();
        let store = SnapshotStore::open(temp_dir("roundtrip")).unwrap();
        assert_eq!(store.load("s1").unwrap(), None);
        store
            .save("s1", r#"{"state":"suspended"}"#, Some(&[1, 2, 3]))
            .unwrap();
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.meta, r#"{"state":"suspended"}"#);
        assert_eq!(rec.snapshot.as_deref(), Some(&[1u8, 2, 3][..]));
        // Re-saving without a snapshot replaces the whole record.
        store.save("s1", r#"{"state":"finished"}"#, None).unwrap();
        let rec = store.load("s1").unwrap().unwrap();
        assert_eq!(rec.snapshot, None);
        assert_eq!(
            std::fs::read_dir(store.dir()).unwrap().count(),
            2,
            "one record file beside quarantine/"
        );
        store.save("s2", "{}", None).unwrap();
        assert_eq!(ids(&store), ["s1", "s2"]);
        assert!(store.contains("s1"));
        store.remove("s1").unwrap();
        store.remove("s1").unwrap(); // idempotent
        assert!(!store.contains("s1"));
        assert_eq!(ids(&store), ["s2"]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_save_fsyncs_the_record_then_the_directory() {
        let _faults = fault::test_lock();
        let mut store = SnapshotStore::open(temp_dir("fsync")).unwrap();
        let metrics = Arc::new(Metrics::new());
        store.set_metrics(Arc::clone(&metrics));
        let snap = real_snapshot();
        for (k, snapshot) in [Some(&snap[..]), Some(&snap[..]), None]
            .into_iter()
            .enumerate()
        {
            store.save("s1", "{}", snapshot).unwrap();
            assert_eq!(
                metrics.store_fsyncs.load(Ordering::Relaxed),
                2 * (k as u64 + 1)
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn a_failed_save_keeps_the_previous_record_and_leaves_no_temp() {
        let _faults = fault::test_lock();
        let store = SnapshotStore::open(temp_dir("failed-save")).unwrap();
        let snap = real_snapshot();
        store.save("s1", "{}", Some(&snap)).unwrap();
        let before = std::fs::read(store.record_path("s1")).unwrap();
        for spec in ["store.write=err", "store.rename=err"] {
            fault::configure(spec).unwrap();
            assert!(store.save("s1", r#"{"v":2}"#, None).is_err(), "{spec}");
            fault::clear();
            let rec = store.load("s1").unwrap().unwrap();
            assert_eq!(
                encode_record(&rec.meta, rec.snapshot.as_deref()).unwrap(),
                before,
                "{spec}"
            );
            let temps: Vec<String> = store
                .file_names()
                .unwrap()
                .into_iter()
                .filter(|name| name.ends_with(".tmp"))
                .collect();
            assert!(temps.is_empty(), "{spec} left {temps:?}");
        }
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
        assert!(store.quarantine("../escape", "r").1.is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Opens a store over `dir` holding only `s1.rec.tmp`, a first save
    /// that never returned, and checks the sweep discards it: no record,
    /// nothing quarantined, nothing left on disk but `quarantine/`.
    fn assert_orphan_first_save_is_discarded(dir: &Path) {
        let _faults = fault::test_lock();
        let store = SnapshotStore::open(dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(report.discarded, vec!["s1.rec.tmp".to_string()]);
        assert!(report.quarantined.is_empty() && report.recovered.is_empty());
        assert_eq!(store.load("s1").unwrap(), None);
        assert!(store.quarantined_ids().is_empty());
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1);
        assert_eq!(
            std::fs::read_dir(dir.join(QUARANTINE_DIR)).unwrap().count(),
            0
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_discards_complete_orphan_tmp_writes() {
        // Crash between fsync and rename: a full, valid temp file with
        // no committed target. The save never returned, so the store
        // keeps what it had: nothing.
        let dir = temp_dir("complete-orphan");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = meta_for("s1", "suspended");
        plant(&dir, "s1.rec.tmp", &meta, Some(&real_snapshot()));
        assert_orphan_first_save_is_discarded(&dir);
    }

    #[test]
    fn recovery_discards_a_first_save_torn_inside_its_snapshot() {
        // The temp passes the sweep's structural check (it reads only
        // the snapshot's identity prefix), yet would fail a resume.
        let dir = temp_dir("torn-orphan");
        std::fs::create_dir_all(&dir).unwrap();
        let record = encode_record(&meta_for("s1", "suspended"), Some(&real_snapshot())).unwrap();
        let torn = &record[..record.len() - 5];
        assert!(
            record_entry("s1", torn).is_ok(),
            "torn past the identity prefix"
        );
        std::fs::write(dir.join("s1.rec.tmp"), torn).unwrap();
        assert_orphan_first_save_is_discarded(&dir);
    }

    #[test]
    fn recovery_discards_tmp_when_target_committed_or_torn() {
        let _faults = fault::test_lock();
        let dir = temp_dir("discard");
        std::fs::create_dir_all(&dir).unwrap();
        // The committed record wins over a lingering complete temp.
        plant(&dir, "s1.rec", &meta_for("s1", "finished"), None);
        plant(
            &dir,
            "s1.rec.tmp",
            &meta_for("s1", "suspended"),
            Some(&real_snapshot()),
        );
        // Temp torn inside the snapshot header with no target.
        plant(
            &dir,
            "s2.rec.tmp",
            &meta_for("s2", "suspended"),
            Some(&real_snapshot()[..5]),
        );
        // A stray tmp with no recognizable target shape.
        std::fs::write(dir.join("junk.tmp"), b"?").unwrap();
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report();
        assert_eq!(
            report.discarded,
            vec![
                "junk.tmp".to_string(),
                "s1.rec.tmp".into(),
                "s2.rec.tmp".into()
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
        let suspended = |id: &str| meta_for(id, "suspended");
        // Intact suspended and finished records survive.
        plant(&dir, "ok.rec", &suspended("ok"), Some(&snap));
        plant(&dir, "done.rec", &meta_for("done", "finished"), None);
        // Truncated snapshot.
        plant(&dir, "torn.rec", &suspended("torn"), Some(&snap[..3]));
        // Suspended meta without any snapshot.
        plant(&dir, "lost.rec", &suspended("lost"), None);
        // A finished record carrying snapshot bytes.
        plant(
            &dir,
            "extra.rec",
            &meta_for("extra", "finished"),
            Some(&snap),
        );
        // A length prefix that overruns the file.
        let record = encode_record(&suspended("cut"), None).unwrap();
        std::fs::write(dir.join("cut.rec"), &record[..record.len() - 1]).unwrap();
        // Meta that is not even JSON.
        plant(&dir, "garbled.rec", "{{{", Some(&snap));
        let store = SnapshotStore::open(&dir).unwrap();
        let report = store.recovery_report().clone();
        assert_eq!(report.recovered, vec!["done".to_string(), "ok".into()]);
        let reasons: Vec<(&str, &str)> = report
            .quarantined
            .iter()
            .map(|(id, reason)| (id.as_str(), reason.as_str()))
            .collect();
        assert_eq!(reasons.len(), 5, "{reasons:?}");
        for (id, want) in [
            ("cut", "truncated or malformed record"),
            ("extra", "finished record carrying a snapshot"),
            ("garbled", "unreadable meta record"),
            ("lost", "suspended session missing its snapshot"),
            ("torn", "corrupt or truncated snapshot"),
        ] {
            assert!(
                reasons.iter().any(|&(q, r)| q == id && r.starts_with(want)),
                "{id}: {reasons:?}"
            );
        }
        assert_eq!(
            store.quarantined_ids(),
            vec![
                "cut".to_string(),
                "extra".into(),
                "garbled".into(),
                "lost".into(),
                "torn".into()
            ]
        );
        // Quarantined records are out of the index but preserved on
        // disk, with a reason note.
        assert_eq!(ids(&store), ["done", "ok"]);
        assert!(dir.join(QUARANTINE_DIR).join("torn.rec").exists());
        let reason = std::fs::read_to_string(dir.join(QUARANTINE_DIR).join("torn.reason")).unwrap();
        assert!(reason.contains("snapshot"), "{reason:?}");
        // Re-opening is stable: nothing more to repair, quarantine
        // ids persist.
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.recovery_report().is_clean());
        assert_eq!(store.recovery_report().recovered, report.recovered);
        assert_eq!(store.quarantined_ids().len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_entry_reads_tenant_and_state_and_rejects_the_rest() {
        let suspended = StoredEntry::default();
        assert_eq!(
            meta_entry("a", &meta_for("a", "suspended")),
            Some(suspended)
        );
        let finished = StoredEntry {
            tenant: String::new(),
            reason: Some(StopReason::MoeSatisfied),
        };
        assert_eq!(meta_entry("a", &meta_for("a", "finished")), Some(finished));
        let tenant = r#"{"spec":{"id":"a","tenant":"t"},"state":"suspended"}"#;
        assert_eq!(meta_entry("a", tenant).unwrap().tenant, "t");
        assert_eq!(meta_entry("a", &meta_for("b", "finished")), None);
        assert_eq!(meta_entry("a", &meta_for("a", "running")), None);
        for bad in [
            r#"{"spec":{"id":"a"},"state":"finished"}"#,
            r#"{"spec":{"id":"a"},"state":"finished","reason":"bored"}"#,
            r#"{"spec":{"id":"a","tenant":7},"state":"suspended"}"#,
            "not json",
            "{}",
        ] {
            assert_eq!(meta_entry("a", bad), None, "{bad}");
        }
    }

    #[test]
    fn the_index_follows_saves_removes_and_quarantines() {
        let _faults = fault::test_lock();
        let store = SnapshotStore::open(temp_dir("index")).unwrap();
        let snap = real_snapshot();
        store
            .save("a", &meta_for("a", "suspended"), Some(&snap))
            .unwrap();
        store.save("b", &meta_for("b", "finished"), None).unwrap();
        store
            .save("c", &meta_for("c", "suspended"), Some(&snap))
            .unwrap();
        assert_index_matches_a_fresh_open(&store, "after saves");
        assert_eq!(
            entry(&store, "b").unwrap().reason,
            Some(StopReason::MoeSatisfied)
        );
        // A meta the sweep cannot read keeps the id's entry until a read
        // quarantines the record.
        store.save("a", "{", Some(&snap)).unwrap();
        assert_eq!(entry(&store, "a"), Some(StoredEntry::default()));
        let (removed, moved) = store.quarantine("a", "unreadable meta record");
        moved.unwrap();
        assert_eq!(removed, Some(StoredEntry::default()));
        // Only the call that took the entry out of the index returns it.
        assert_eq!(store.quarantine("a", "again").0, None);
        store.remove("c").unwrap();
        assert_eq!(ids(&store), ["b"]);
        assert!(store.is_quarantined("a") && !store.contains("a"));
        assert_index_matches_a_fresh_open(&store, "after remove and quarantine");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn the_index_equals_a_fresh_open_after_every_failed_save() {
        let _faults = fault::test_lock();
        let store = SnapshotStore::open(temp_dir("index-faults")).unwrap();
        let snap = real_snapshot();
        store
            .save("s1", &meta_for("s1", "suspended"), Some(&snap))
            .unwrap();
        // The write and rename faults leave the suspended record, the
        // directory fsync fault the finished one it renamed into place.
        for spec in ["store.write=err", "store.rename=err", "store.dirsync=err"] {
            fault::configure(spec).unwrap();
            assert!(
                store.save("s1", &meta_for("s1", "finished"), None).is_err(),
                "{spec}"
            );
            fault::clear();
            let finished = spec == "store.dirsync=err";
            assert_eq!(entry(&store, "s1").unwrap().reason.is_some(), finished);
            assert_index_matches_a_fresh_open(&store, spec);
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
