//! The `hylite` virtual schema: SQL-queryable system views.
//!
//! The paper's thesis — analytics belongs *inside* the relational store,
//! expressed in SQL — applies to the system's own operational state too.
//! This module defines the read-only virtual views any session can query
//! with plain `SELECT`s (`hylite.metrics`, `hylite.connections`,
//! `hylite.replication`, `hylite.wal`, `hylite.sessions`,
//! `hylite.slow_queries`), plus the plumbing that lets every layer of the
//! stack contribute rows without layering violations:
//!
//! * [`SystemView`] enumerates the views and owns their (stable) schemas.
//! * [`SystemViewProvider`] is implemented by whoever holds the state —
//!   the database core for metrics/WAL/sessions/slow queries, the server
//!   for connections and primary-side replication streams, a replica for
//!   its own apply progress.
//! * [`SystemViewHub`] fans a scan out to every registered provider and
//!   concatenates their rows. Providers are held weakly so a shut-down
//!   server simply stops contributing rows.
//! * [`SlowQueryLog`] is the bounded ring buffer behind
//!   `hylite.slow_queries` (`SET slow_query_ms` arms it).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock, Weak};

use crate::schema::{Field, Schema};
use crate::types::DataType;
use crate::value::Value;

/// The virtual schema name every system view lives under.
pub const SYSTEM_SCHEMA: &str = "hylite";

/// One of the read-only system views in the `hylite` schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemView {
    /// Every counter, gauge and histogram in the metrics registry.
    Metrics,
    /// Live wire connections on this node.
    Connections,
    /// Replication state: one row per attached replica stream on a
    /// primary, one self-row on a replica.
    Replication,
    /// The node's write-ahead-log position and durability mode.
    Wal,
    /// Engine sessions (embedded and wire) with statement counters.
    Sessions,
    /// The bounded slow-query ring buffer (`SET slow_query_ms`).
    SlowQueries,
    /// Per-table segment storage: on-disk bytes, compression ratio, and
    /// the shared buffer pool's hit rate.
    Storage,
    /// Backup and WAL-archive state: the last completed backup plus the
    /// archive watermark/lag on this node.
    Backups,
}

/// All views, in catalog order.
pub const ALL_SYSTEM_VIEWS: [SystemView; 8] = [
    SystemView::Metrics,
    SystemView::Connections,
    SystemView::Replication,
    SystemView::Wal,
    SystemView::Sessions,
    SystemView::SlowQueries,
    SystemView::Storage,
    SystemView::Backups,
];

impl SystemView {
    /// Resolve a (lowercased) qualified table name to a view.
    pub fn from_name(name: &str) -> Option<SystemView> {
        match name {
            "hylite.metrics" => Some(SystemView::Metrics),
            "hylite.connections" => Some(SystemView::Connections),
            "hylite.replication" => Some(SystemView::Replication),
            "hylite.wal" => Some(SystemView::Wal),
            "hylite.sessions" => Some(SystemView::Sessions),
            "hylite.slow_queries" => Some(SystemView::SlowQueries),
            "hylite.storage" => Some(SystemView::Storage),
            "hylite.backups" => Some(SystemView::Backups),
            _ => None,
        }
    }

    /// The qualified name (`hylite.metrics`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            SystemView::Metrics => "hylite.metrics",
            SystemView::Connections => "hylite.connections",
            SystemView::Replication => "hylite.replication",
            SystemView::Wal => "hylite.wal",
            SystemView::Sessions => "hylite.sessions",
            SystemView::SlowQueries => "hylite.slow_queries",
            SystemView::Storage => "hylite.storage",
            SystemView::Backups => "hylite.backups",
        }
    }

    /// The view's output schema. Column order and types are a stable,
    /// documented interface (`docs/OBSERVABILITY.md`); tests pin them.
    pub fn schema(&self) -> Schema {
        use DataType::{Bool, Int64, Varchar};
        let fields = match self {
            SystemView::Metrics => vec![
                Field::new("kind", Varchar),
                Field::new("name", Varchar),
                Field::new("value", Int64),
                Field::new("count", Int64),
                Field::new("sum", Int64),
                Field::new("min", Int64),
                Field::new("p50", Int64),
                Field::new("p95", Int64),
                Field::new("p99", Int64),
                Field::new("max", Int64),
            ],
            SystemView::Connections => vec![
                Field::new("session_id", Int64),
                Field::new("peer", Varchar),
                Field::new("state", Varchar),
            ],
            SystemView::Replication => vec![
                Field::new("role", Varchar),
                Field::new("peer", Varchar),
                Field::new("state", Varchar),
                Field::new("epoch", Int64),
                Field::new("sent_lsn", Int64),
                Field::new("acked_lsn", Int64),
                Field::new("lag_frames", Int64),
                Field::new("lag_bytes", Int64),
                Field::new("bootstraps", Int64),
                Field::new("staleness_seconds", Int64),
                Field::new("node_state", Varchar),
                Field::new("reconnects", Int64),
                Field::new("rebootstraps", Int64),
            ],
            SystemView::Wal => vec![
                Field::new("role", Varchar),
                Field::new("epoch", Int64),
                Field::new("next_lsn", Int64),
                Field::new("durable_bytes", Int64),
                Field::new("sync_mode", Varchar),
            ],
            SystemView::Sessions => vec![
                Field::new("session_id", Int64),
                Field::new("statements", Int64),
                Field::new("errors", Int64),
                Field::new("in_transaction", Bool),
                Field::new("last_trace_id", Int64),
                Field::new("age_seconds", Int64),
            ],
            SystemView::SlowQueries => vec![
                Field::new("trace_id", Int64),
                Field::new("session_id", Int64),
                Field::new("sql", Varchar),
                Field::new("wall_us", Int64),
                Field::new("rows", Int64),
                Field::new("verdict", Varchar),
                Field::new("plan", Varchar),
            ],
            SystemView::Storage => vec![
                Field::new("table_name", Varchar),
                Field::new("segments", Int64),
                Field::new("disk_segments", Int64),
                Field::new("on_disk_bytes", Int64),
                Field::new("logical_bytes", Int64),
                Field::new("compression_ratio_pct", Int64),
                Field::new("pool_hit_rate_pct", Int64),
            ],
            SystemView::Backups => vec![
                Field::new("last_backup_unix_ms", Int64),
                Field::new("dest", Varchar),
                Field::new("backup_lsn", Int64),
                Field::new("bytes", Int64),
                Field::new("segments", Int64),
                Field::new("verified", Bool),
                Field::new("incremental", Bool),
                Field::new("archive_watermark_lsn", Int64),
                Field::new("archive_lag_frames", Int64),
            ],
        };
        Schema::new(fields)
    }
}

/// A layer that can contribute rows to system views. Implementations
/// return `None` for views they know nothing about and `Some(rows)`
/// (possibly empty) for views they own a slice of.
pub trait SystemViewProvider: Send + Sync {
    /// Rows this provider contributes to `view` right now.
    fn system_view_rows(&self, view: SystemView) -> Option<Vec<Vec<Value>>>;
}

/// Registry of [`SystemViewProvider`]s; one per database. Providers are
/// held as weak references — a provider that is dropped (a stopped
/// server, a detached replica handle) silently stops contributing.
#[derive(Default)]
pub struct SystemViewHub {
    providers: RwLock<Vec<Weak<dyn SystemViewProvider>>>,
}

impl std::fmt::Debug for SystemViewHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self
            .providers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        write!(f, "SystemViewHub({n} providers)")
    }
}

impl SystemViewHub {
    /// An empty hub.
    pub fn new() -> SystemViewHub {
        SystemViewHub::default()
    }

    /// Register a provider. The hub keeps only a weak reference.
    pub fn register(&self, provider: Weak<dyn SystemViewProvider>) {
        let mut providers = self.providers.write().unwrap_or_else(|e| e.into_inner());
        providers.retain(|p| p.strong_count() > 0);
        providers.push(provider);
    }

    /// Scan a view: concatenate the rows of every live provider.
    pub fn scan(&self, view: SystemView) -> Vec<Vec<Value>> {
        let providers: Vec<Arc<dyn SystemViewProvider>> = self
            .providers
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        let mut rows = Vec::new();
        for p in providers {
            if let Some(mut r) = p.system_view_rows(view) {
                rows.append(&mut r);
            }
        }
        rows
    }
}

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// One captured slow statement.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// The statement's trace id (also printed by `EXPLAIN ANALYZE`).
    pub trace_id: u64,
    /// Engine session id of the issuing session.
    pub session_id: u64,
    /// The SQL text as received.
    pub sql: String,
    /// End-to-end wall time in microseconds.
    pub wall_us: u64,
    /// Result rows (0 for errors and non-queries).
    pub rows: u64,
    /// How the statement ended: `ok`, `timeout`, `cancelled`,
    /// `budget_exceeded`, or `error`.
    pub verdict: String,
    /// The optimized logical plan (empty for non-queries).
    pub plan: String,
}

/// Default capacity of the slow-query ring buffer.
pub const SLOW_QUERY_LOG_DEFAULT_CAPACITY: usize = 128;

/// Bounded ring buffer of [`SlowQueryEntry`]s, shared by every session of
/// a database. When full, the oldest entry is evicted.
#[derive(Debug)]
pub struct SlowQueryLog {
    inner: Mutex<SlowLogInner>,
}

#[derive(Debug)]
struct SlowLogInner {
    entries: VecDeque<SlowQueryEntry>,
    capacity: usize,
}

impl Default for SlowQueryLog {
    fn default() -> Self {
        SlowQueryLog::new(SLOW_QUERY_LOG_DEFAULT_CAPACITY)
    }
}

impl SlowQueryLog {
    /// A log holding at most `capacity` entries.
    pub fn new(capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            inner: Mutex::new(SlowLogInner {
                entries: VecDeque::new(),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Append an entry, evicting the oldest when full.
    pub fn push(&self, entry: SlowQueryEntry) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.entries.len() >= inner.capacity {
            inner.entries.pop_front();
        }
        inner.entries.push_back(entry);
    }

    /// Change the capacity (`SET slow_query_log_size`), evicting oldest
    /// entries if the log shrinks below its current length.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.capacity = capacity.max(1);
        while inner.entries.len() > inner.capacity {
            inner.entries.pop_front();
        }
    }

    /// Copy of the current entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_names_roundtrip() {
        for view in ALL_SYSTEM_VIEWS {
            assert_eq!(SystemView::from_name(view.name()), Some(view));
            assert!(view.name().starts_with("hylite."));
            assert!(!view.schema().is_empty());
        }
        assert_eq!(SystemView::from_name("hylite.nope"), None);
        assert_eq!(SystemView::from_name("metrics"), None);
    }

    #[test]
    fn hub_concatenates_and_drops_dead_providers() {
        struct Fixed(Vec<Vec<Value>>);
        impl SystemViewProvider for Fixed {
            fn system_view_rows(&self, view: SystemView) -> Option<Vec<Vec<Value>>> {
                (view == SystemView::Wal).then(|| self.0.clone())
            }
        }
        let hub = SystemViewHub::new();
        let a: Arc<dyn SystemViewProvider> = Arc::new(Fixed(vec![vec![Value::Int(1)]]));
        let b: Arc<dyn SystemViewProvider> = Arc::new(Fixed(vec![vec![Value::Int(2)]]));
        hub.register(Arc::downgrade(&a));
        hub.register(Arc::downgrade(&b));
        assert_eq!(hub.scan(SystemView::Wal).len(), 2);
        assert_eq!(hub.scan(SystemView::Metrics).len(), 0);
        drop(b);
        assert_eq!(hub.scan(SystemView::Wal), vec![vec![Value::Int(1)]]);
    }

    fn entry(trace: u64, sql: &str) -> SlowQueryEntry {
        SlowQueryEntry {
            trace_id: trace,
            session_id: 7,
            sql: sql.to_string(),
            wall_us: 1000,
            rows: 0,
            verdict: "ok".into(),
            plan: String::new(),
        }
    }

    #[test]
    fn slow_log_evicts_oldest() {
        let log = SlowQueryLog::new(2);
        log.push(entry(1, "a"));
        log.push(entry(2, "b"));
        log.push(entry(3, "c"));
        let sqls: Vec<String> = log.entries().into_iter().map(|e| e.sql).collect();
        assert_eq!(sqls, vec!["b".to_string(), "c".to_string()]);
        log.set_capacity(1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].sql, "c");
    }
}
