//! The HyLite database facade: parse → bind → optimize → execute.
//!
//! [`Database`] owns the shared catalog; [`Session`]s run SQL (with
//! single-writer transactions and snapshot-isolated readers);
//! [`QueryResult`] carries the result relation plus execution statistics.

pub mod csv;
pub mod database;
pub mod result;
pub mod session;

pub use csv::CsvOptions;
pub use database::Database;
pub use hylite_planner::Rules;
pub use result::QueryResult;
pub use session::{Session, SessionSettings};

// Durability surface, re-exported so embedders and the server do not need
// a direct hylite-storage dependency to open a durable database.
pub use hylite_storage::{
    restore_backup, BackupSummary, CheckpointStats, Durability, DurabilityOptions, RawFrame,
    RecoveryReport, ReplRole, ReplState, ReplTail, RestoreSummary, SyncMode, CRASH_POINTS,
};

// Compile-time thread-safety contract: a network server shares one
// `Arc<Database>` across connection threads, each of which owns a
// `Session` and may move `QueryResult`s between threads. If a field ever
// regresses to `Rc`/`RefCell`/raw pointers, these assertions fail the
// build rather than the deployment.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<hylite_storage::Catalog>();
    assert_send_sync::<hylite_common::CancelToken>();
    assert_send_sync::<hylite_common::MetricsRegistry>();
    assert_send::<Session>();
    assert_send::<QueryResult>();
};

#[cfg(test)]
mod thread_safety_tests {
    use super::*;
    use std::sync::Arc;

    /// One `Arc<Database>` shared across threads, each with its own
    /// session — the exact sharing model of `hylite-server`.
    #[test]
    fn one_database_many_threads() {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (x BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let mut session = db.session();
                    let r = session.execute("SELECT sum(x) FROM t").unwrap();
                    assert_eq!(r.scalar().unwrap(), hylite_common::Value::Int(6));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
