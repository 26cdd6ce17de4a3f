//! Helpers shared by the manager's integration tests.

use kgae_core::{EvalResult, SessionStatus, StopReason};
use kgae_service::manager::SessionState;
use kgae_service::{api, json, SessionManager};

/// A finished session's stop reason and whole result, decoded from the
/// record its eviction writes (a session already on disk keeps its
/// record) and checked against its status. A session that was in memory
/// is resumed afterwards, so it is left where it was.
pub fn final_result(manager: &SessionManager<'_>, id: &str) -> (StopReason, EvalResult) {
    let view = manager.status(id).unwrap();
    manager.evict(id).unwrap();
    let record = manager.store().load(id).unwrap().expect("a stored record");
    let meta = json::parse(&record.meta).unwrap();
    let field = |name: &str| meta.get(name).unwrap_or_else(|| panic!("{id}: no {name}"));
    let reason = api::stop_reason_from_name(field("reason").as_str().unwrap()).unwrap();
    let result = api::result_from_json(field("result")).unwrap();
    assert_eq!(view.status, SessionStatus::stopped(&result, reason), "{id}");
    if view.state != SessionState::Evicted {
        manager.resume(id).unwrap();
    }
    (reason, result)
}
