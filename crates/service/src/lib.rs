//! # kgae-service
//!
//! The session service: the poll-based evaluation engine of `kgae-core`
//! turned into a **multi-tenant network server**. Annotation campaigns
//! become named, long-lived sessions hosted behind a std-only HTTP/1.1
//! plus JSON API; idle campaigns spill to disk as binary snapshots and
//! rehydrate lazily — with fingerprint validation and bit-identical
//! evaluation trajectories — when their annotators return.
//!
//! | module | role |
//! |--------|------|
//! | [`manager`] | sharded, lock-striped [`SessionManager`] + dataset registry |
//! | [`store`] | [`SnapshotStore`]: one record file per dormant session |
//! | [`server`] | server front door, route table, shutdown handle |
//! | [`reactor`] | `poll(2)` readiness event loop, keep-alive deadlines, workers |
//! | [`http`] | minimal HTTP/1.1: blocking reader/writer + resumable parser |
//! | [`json`] | hand-rolled JSON value, encoder and strict parser |
//! | [`api`] | typed DTOs ↔ JSON for every endpoint and meta record |
//! | [`fault`] | deterministic failpoints (no-ops without `fault-injection`) |
//! | [`metrics`] | atomic metrics registry, Prometheus encoder, request logs |
//! | [`janitor`] | background maintenance: ages idle sessions to disk |
//!
//! The `kgae-serve` binary boots the standard dataset registry behind
//! this stack; the `kgae-client` crate speaks the same wire format
//! from the annotator side. The protocol is specified in
//! `docs/WIRE.md`, the snapshot bytes in `docs/SNAPSHOT.md`.
//!
//! The manager is fully usable in-process, without the network front:
//!
//! ```
//! use kgae_service::{DatasetRegistry, SessionManager, SessionSpec, SnapshotStore};
//!
//! let registry = DatasetRegistry::standard();
//! let dir = std::env::temp_dir().join(format!("kgae-doc-mgr-{}", std::process::id()));
//! let manager = SessionManager::new(&registry, SnapshotStore::open(&dir).unwrap(), 4);
//!
//! let spec = SessionSpec::from_json(
//!     &kgae_service::json::parse(
//!         r#"{"id":"doc","dataset":"nell","design":"srs","method":"wilson","seed":1}"#,
//!     )
//!     .unwrap(),
//! )
//! .unwrap();
//! manager.create(&spec).unwrap();
//! let (request, view) = manager.next_request("doc", 4).unwrap();
//! let labels = vec![true; request.unwrap().triples.len()];
//! let view = manager.submit("doc", &labels, view.pending_seq).unwrap();
//! assert_eq!(view.status.observations, 4);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod fault;
pub mod http;
pub mod janitor;
pub mod json;
pub mod manager;
pub mod metrics;
pub mod reactor;
pub mod server;
pub mod store;

pub use api::{SessionSpec, StratifySpec};
pub use janitor::{Janitor, JanitorConfig, JanitorHandle, TickReport};
pub use manager::{
    DatasetEntry, DatasetRegistry, DrainReport, ListedSession, ManagerLimits, ServiceError,
    ServiceResult, SessionManager, SessionState, SessionView,
};
pub use metrics::{LogFormat, LogLevel, Metrics, RequestLog};
pub use server::{Server, ServerHandle};
pub use store::{RecoveryReport, SnapshotStore, StoredEntry};
