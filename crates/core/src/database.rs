//! The database handle.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use hylite_common::faultfs::{StdVfs, Vfs};
use hylite_common::morsel::Budget;
use hylite_common::sysview::{SlowQueryLog, SystemView, SystemViewHub, SystemViewProvider};
use hylite_common::telemetry::{MetricsRegistry, MetricsSnapshot};
use hylite_common::{Result, Value};
use hylite_storage::{
    Catalog, CheckpointStats, Durability, DurabilityOptions, RecoveryReport, ReplRole, SyncMode,
};
use parking_lot::Mutex;

use crate::result::QueryResult;
use crate::session::{Session, SessionStat};

/// Weak registry of per-session counters, keyed by engine session id.
/// Dead entries (closed sessions) are pruned on every touch.
type SessionStats = Arc<Mutex<BTreeMap<u64, Weak<SessionStat>>>>;

/// The database core's [`SystemViewProvider`]: contributes the metrics,
/// WAL, sessions, and slow-query views. Connection- and replication-level
/// views are contributed by the server layer, which registers its own
/// providers on the same hub.
struct CoreViews {
    catalog: Arc<Catalog>,
    metrics: Arc<MetricsRegistry>,
    durability: Option<Arc<Durability>>,
    session_stats: SessionStats,
    slow_log: Arc<SlowQueryLog>,
}

impl CoreViews {
    fn metrics_rows(&self) -> Vec<Vec<Value>> {
        let snap = live_snapshot(&self.metrics);
        let mut rows =
            Vec::with_capacity(snap.counters.len() + snap.gauges.len() + snap.histograms.len());
        for (name, v) in &snap.counters {
            let mut row = vec![
                Value::from("counter"),
                Value::from(name.as_str()),
                Value::Int(*v as i64),
            ];
            row.extend(std::iter::repeat_n(Value::Null, 7));
            rows.push(row);
        }
        for (name, v) in &snap.gauges {
            let mut row = vec![
                Value::from("gauge"),
                Value::from(name.as_str()),
                Value::Int(*v),
            ];
            row.extend(std::iter::repeat_n(Value::Null, 7));
            rows.push(row);
        }
        for (name, h) in &snap.histograms {
            rows.push(vec![
                Value::from("histogram"),
                Value::from(name.as_str()),
                Value::Null,
                Value::Int(h.count as i64),
                Value::Int(h.sum as i64),
                Value::Int(h.min as i64),
                Value::Int(h.p50 as i64),
                Value::Int(h.p95 as i64),
                Value::Int(h.p99 as i64),
                Value::Int(h.max as i64),
            ]);
        }
        rows
    }

    fn wal_row(&self) -> Vec<Value> {
        match &self.durability {
            Some(d) => vec![
                Value::from(match d.role() {
                    ReplRole::Primary => "primary",
                    ReplRole::Replica => "replica",
                }),
                Value::Int(d.epoch() as i64),
                Value::Int(d.next_lsn() as i64),
                Value::Int(d.wal_durable_len() as i64),
                Value::from(match d.sync_mode() {
                    SyncMode::Commit => "commit",
                    SyncMode::Buffered => "buffered",
                }),
            ],
            None => vec![
                Value::from("memory"),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::from("none"),
            ],
        }
    }

    fn session_rows(&self) -> Vec<Vec<Value>> {
        let mut stats = self.session_stats.lock();
        stats.retain(|_, w| w.strong_count() > 0);
        stats
            .values()
            .filter_map(Weak::upgrade)
            .map(|s| {
                vec![
                    Value::Int(s.id() as i64),
                    Value::Int(s.statements() as i64),
                    Value::Int(s.errors() as i64),
                    Value::Bool(s.in_transaction()),
                    Value::Int(s.last_trace_id() as i64),
                    Value::Int(s.age_seconds() as i64),
                ]
            })
            .collect()
    }

    fn storage_rows(&self) -> Vec<Vec<Value>> {
        // One pool serves every table; its hit rate repeats per row so
        // the view stays flat (joins against it stay trivial). In-memory
        // databases have no pool and report NULL.
        let pool_pct = match &self.durability {
            Some(d) => Value::Int((d.buffer_pool().stats().hit_rate() * 100.0).round() as i64),
            None => Value::Null,
        };
        let mut names = self.catalog.table_names();
        names.sort_unstable();
        names
            .into_iter()
            .filter_map(|name| self.catalog.get_table(&name).ok().map(|t| (name, t)))
            .map(|(name, t)| {
                let (segments, disk_segments, disk_bytes, raw_bytes) = t.read().segment_storage();
                let ratio = (raw_bytes * 100)
                    .checked_div(disk_bytes)
                    .map_or(Value::Null, |r| Value::Int(r as i64));
                vec![
                    Value::from(name.as_str()),
                    Value::Int(segments as i64),
                    Value::Int(disk_segments as i64),
                    Value::Int(disk_bytes as i64),
                    Value::Int(raw_bytes as i64),
                    ratio,
                    pool_pct.clone(),
                ]
            })
            .collect()
    }

    fn backups_rows(&self) -> Vec<Vec<Value>> {
        let Some(d) = &self.durability else {
            return Vec::new();
        };
        let (watermark, lag) = match d.archive_watermark() {
            Some(w) => (
                Value::Int(w as i64),
                Value::Int((d.next_lsn().saturating_sub(1).saturating_sub(w)) as i64),
            ),
            None => (Value::Null, Value::Null),
        };
        match d.last_backup() {
            Some((at_unix_ms, b)) => vec![vec![
                Value::Int(at_unix_ms as i64),
                Value::from(b.dest.display().to_string()),
                Value::Int(b.backup_lsn as i64),
                Value::Int(b.bytes as i64),
                Value::Int(b.segments_copied as i64),
                Value::Bool(b.verified),
                Value::Bool(b.incremental),
                watermark,
                lag,
            ]],
            // No backup yet: still surface the archive state.
            None => vec![vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                watermark,
                lag,
            ]],
        }
    }

    fn slow_rows(&self) -> Vec<Vec<Value>> {
        self.slow_log
            .entries()
            .into_iter()
            .map(|e| {
                vec![
                    Value::Int(e.trace_id as i64),
                    Value::Int(e.session_id as i64),
                    Value::from(e.sql.as_str()),
                    Value::Int(e.wall_us as i64),
                    Value::Int(e.rows as i64),
                    Value::from(e.verdict.as_str()),
                    Value::from(e.plan.as_str()),
                ]
            })
            .collect()
    }
}

/// A registry snapshot with the process-wide gauges sampled in:
/// `sched.helpers_busy` is the morsel scheduler's helper threads running
/// right now, for every database of the process.
fn live_snapshot(metrics: &MetricsRegistry) -> MetricsSnapshot {
    metrics
        .gauge("sched.helpers_busy")
        .set(Budget::process().busy() as i64);
    metrics.snapshot()
}

impl SystemViewProvider for CoreViews {
    fn system_view_rows(&self, view: SystemView) -> Option<Vec<Vec<Value>>> {
        match view {
            SystemView::Metrics => Some(self.metrics_rows()),
            SystemView::Wal => Some(vec![self.wal_row()]),
            SystemView::Sessions => Some(self.session_rows()),
            SystemView::SlowQueries => Some(self.slow_rows()),
            SystemView::Storage => Some(self.storage_rows()),
            SystemView::Backups => Some(self.backups_rows()),
            SystemView::Connections | SystemView::Replication => None,
        }
    }
}

/// An in-memory HyLite database.
///
/// `Database` owns the catalog; [`Database::session`] opens independent
/// sessions (each with its own transaction state), and
/// [`Database::execute`] runs SQL on a built-in convenience session.
/// All sessions report into one engine-wide [`MetricsRegistry`].
///
/// # Quickstart
///
/// ```
/// use hylite_core::Database;
///
/// let db = Database::new();
/// db.execute("CREATE TABLE t (x BIGINT)").unwrap();
/// db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
/// let r = db.execute("SELECT sum(x) FROM t").unwrap();
/// assert_eq!(r.scalar().unwrap(), hylite_common::Value::Int(6));
/// ```
///
/// Long-running statements can be governed per session — see
/// [`Session`] for timeouts, memory budgets, and
/// cancellation.
pub struct Database {
    catalog: Arc<Catalog>,
    metrics: Arc<MetricsRegistry>,
    durability: Option<Arc<Durability>>,
    recovery: Option<RecoveryReport>,
    default_session: Mutex<Session>,
    /// Hub behind the `hylite.*` system views; server layers register
    /// additional providers (connections, replication streams) here.
    sysviews: Arc<SystemViewHub>,
    /// Shared slow-query ring (`hylite.slow_queries`).
    slow_log: Arc<SlowQueryLog>,
    /// Weak per-session counters (`hylite.sessions`).
    session_stats: SessionStats,
    /// Next engine session id (the default session takes id 1).
    next_session_id: AtomicU64,
    /// Strong handle keeping the core provider registered on the hub.
    _core_views: Arc<CoreViews>,
}

/// Start glibc's malloc where its own adaptive thresholds end up once a
/// process has freed a 32 MiB block, once per process and unless the
/// process sets `GLIBC_TUNABLES` itself. From its defaults glibc hands the
/// top of its heap back to the kernel whenever a free leaves 128 KiB
/// there, and raises that threshold only as large mapped blocks are
/// freed, so whether a statement page-faults all of its intermediates in
/// again depends on which statements ran before it: with the groupjoin's
/// k-Means plan, `perf --workload analytics.sql` faulted its statements'
/// intermediates in again on every run (a million minor faults in 6 s on
/// two cores instead of 10,000) and ran 30 % slower. Here blocks up to
/// 32 MiB come from the heap, and up to 64 MiB free at its top stays
/// mapped.
fn keep_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: mallopt only sets malloc's tuning parameters, under its
        // own lock; any value is valid (one it rejects changes nothing).
        ONCE.call_once(|| unsafe {
            if std::env::var_os("GLIBC_TUNABLES").is_none() {
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, 64 << 20);
            }
        });
    }
}

impl Database {
    /// A fresh, empty, purely in-memory database (no durability; data is
    /// lost when the process exits). Alias: [`Database::in_memory`].
    pub fn new() -> Database {
        let catalog = Arc::new(Catalog::new());
        let metrics = Arc::new(MetricsRegistry::new());
        Database::assemble(catalog, metrics, None, None)
    }

    /// Wire the observability plane (system-view hub, slow-query log,
    /// session registry) and the default session around an opened engine.
    fn assemble(
        catalog: Arc<Catalog>,
        metrics: Arc<MetricsRegistry>,
        durability: Option<Arc<Durability>>,
        recovery: Option<RecoveryReport>,
    ) -> Database {
        keep_freed_memory();
        let sysviews = Arc::new(SystemViewHub::new());
        let slow_log = Arc::new(SlowQueryLog::default());
        let session_stats: SessionStats = Arc::new(Mutex::new(BTreeMap::new()));
        let core_views = Arc::new(CoreViews {
            catalog: Arc::clone(&catalog),
            metrics: Arc::clone(&metrics),
            durability: durability.clone(),
            session_stats: Arc::clone(&session_stats),
            slow_log: Arc::clone(&slow_log),
        });
        sysviews.register(Arc::downgrade(&core_views) as Weak<dyn SystemViewProvider>);

        let stat = Arc::new(SessionStat::new(1));
        session_stats.lock().insert(1, Arc::downgrade(&stat));
        let mut session = Session::with_durability(
            Arc::clone(&catalog),
            Arc::clone(&metrics),
            durability.clone(),
        )
        .with_observability(stat, Arc::clone(&sysviews), Arc::clone(&slow_log));
        if durability
            .as_ref()
            .is_some_and(|d| d.role() == ReplRole::Replica)
        {
            session.set_read_only("(unknown; this database is in replica mode)");
        }

        Database {
            catalog,
            metrics,
            durability,
            recovery,
            default_session: Mutex::new(session),
            sysviews,
            slow_log,
            session_stats,
            next_session_id: AtomicU64::new(2),
            _core_views: core_views,
        }
    }

    /// A fresh, empty, purely in-memory database.
    pub fn in_memory() -> Database {
        Database::new()
    }

    /// Open (or create) a durable database rooted at `dir` on the real
    /// filesystem: recover the latest checkpoint plus the WAL tail, then
    /// accept commits with WAL-before-acknowledge semantics.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(
            Arc::new(StdVfs) as Arc<dyn Vfs>,
            dir.as_ref(),
            DurabilityOptions::default(),
        )
    }

    /// [`Database::open`] with an explicit [`Vfs`] (fault injection) and
    /// durability options.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<Database> {
        let metrics = Arc::new(MetricsRegistry::new());
        let (durability, catalog, report) =
            Durability::open(vfs, dir, options, Arc::clone(&metrics))?;
        let catalog = Arc::new(catalog);
        let durability = Arc::new(durability);
        Ok(Database::assemble(
            catalog,
            metrics,
            Some(durability),
            Some(report),
        ))
    }

    /// Whether this database persists commits to disk.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability engine, when the database was opened with
    /// [`Database::open`].
    pub fn durability(&self) -> Option<&Arc<Durability>> {
        self.durability.as_ref()
    }

    /// What recovery found when this database was opened (durable
    /// databases only).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Take a checkpoint now: snapshot all committed data, publish it
    /// atomically, and truncate the WAL. Errors on an in-memory database.
    pub fn checkpoint(&self) -> Result<CheckpointStats> {
        match &self.durability {
            Some(d) => d.checkpoint(&self.catalog),
            None => Err(hylite_common::HyError::Storage(
                "checkpoint requires a durable database (Database::open)".into(),
            )),
        }
    }

    /// Graceful shutdown: flush and take a final checkpoint so restart
    /// recovery is instant. No-op for in-memory databases.
    pub fn close(&self) -> Result<Option<CheckpointStats>> {
        match &self.durability {
            Some(d) => d.close(&self.catalog).map(Some),
            None => Ok(None),
        }
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The engine-wide metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A point-in-time snapshot of every counter, gauge, and histogram.
    /// Render with [`MetricsSnapshot::render_text`] or
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        live_snapshot(&self.metrics)
    }

    /// Whether this database was opened in the replica role (its data
    /// directory follows a primary and must not take local writes).
    pub fn is_replica(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| d.role() == hylite_storage::ReplRole::Replica)
    }

    /// Open a new session (reports into the shared metrics registry; on a
    /// durable database, the session's commits go through the WAL).
    ///
    /// Sessions on a replica-role database are born read-only; the server
    /// overrides the generic redirect message with the actual primary
    /// address via [`Session::set_read_only`].
    pub fn session(&self) -> Session {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        let stat = Arc::new(SessionStat::new(id));
        {
            let mut stats = self.session_stats.lock();
            stats.retain(|_, w| w.strong_count() > 0);
            stats.insert(id, Arc::downgrade(&stat));
        }
        let mut session = Session::with_durability(
            Arc::clone(&self.catalog),
            Arc::clone(&self.metrics),
            self.durability.clone(),
        )
        .with_observability(stat, Arc::clone(&self.sysviews), Arc::clone(&self.slow_log));
        if self.is_replica() {
            session.set_read_only("(unknown; this database is in replica mode)");
        }
        session
    }

    /// The hub behind the `hylite.*` system views. Server layers register
    /// their own [`SystemViewProvider`]s (connections, replication
    /// streams) on it; the hub holds providers weakly, so dropping the
    /// provider unregisters it.
    pub fn system_views(&self) -> &Arc<SystemViewHub> {
        &self.sysviews
    }

    /// The shared slow-query ring buffer backing `hylite.slow_queries`.
    pub fn slow_query_log(&self) -> &Arc<SlowQueryLog> {
        &self.slow_log
    }

    /// Execute SQL on the database's default session (transactions on
    /// this session persist across `execute` calls).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.default_session.lock().execute(sql)
    }

    /// A handle that cancels the default session's running (or next)
    /// statement from any thread — see
    /// [`Session::cancel_handle`].
    pub fn cancel_handle(&self) -> Arc<hylite_common::CancelToken> {
        self.default_session.lock().cancel_handle()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::Value;

    #[test]
    fn create_insert_select() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)").unwrap();
        let r = db
            .execute("INSERT INTO t VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
            .unwrap();
        assert_eq!(r.rows_affected, 3);
        let r = db
            .execute("SELECT a, b FROM t WHERE a >= 2 ORDER BY a")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.value(0, 0).unwrap(), Value::Int(2));
        assert_eq!(r.value(1, 1).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn expressions_and_aggregates() {
        let db = Database::new();
        db.execute("CREATE TABLE n (x BIGINT)").unwrap();
        db.execute("INSERT INTO n VALUES (1), (2), (3), (4), (5)")
            .unwrap();
        let r = db
            .execute("SELECT count(*), sum(x), avg(x), min(x), max(x) FROM n")
            .unwrap();
        let row = &r.to_rows()[0];
        assert_eq!(row.values()[0], Value::Int(5));
        assert_eq!(row.values()[1], Value::Int(15));
        assert_eq!(row.values()[2], Value::Float(3.0));
        assert_eq!(row.values()[3], Value::Int(1));
        assert_eq!(row.values()[4], Value::Int(5));
    }

    #[test]
    fn group_by_having() {
        let db = Database::new();
        db.execute("CREATE TABLE g (k BIGINT, v BIGINT)").unwrap();
        db.execute("INSERT INTO g VALUES (1, 10), (1, 20), (2, 5), (2, 5), (3, 1)")
            .unwrap();
        let r = db
            .execute("SELECT k, sum(v) AS s FROM g GROUP BY k HAVING count(*) > 1 ORDER BY k")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.value(0, 1).unwrap(), Value::Int(30));
        assert_eq!(r.value(1, 1).unwrap(), Value::Int(10));
    }

    #[test]
    fn joins_and_subqueries() {
        let db = Database::new();
        db.execute("CREATE TABLE a (id BIGINT, name VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE b (id BIGINT, score DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO a VALUES (1, 'x'), (2, 'y')")
            .unwrap();
        db.execute("INSERT INTO b VALUES (2, 9.5), (3, 1.0)")
            .unwrap();
        let r = db
            .execute("SELECT a.name, b.score FROM a JOIN b ON a.id = b.id")
            .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.value(0, 0).unwrap(), Value::from("y"));
        let r = db
            .execute("SELECT t.name FROM (SELECT name FROM a WHERE id > 1) t")
            .unwrap();
        assert_eq!(r.row_count(), 1);
        // LEFT JOIN pads.
        let r = db
            .execute("SELECT a.id, b.score FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert!(r.value(0, 1).unwrap().is_null());
    }

    #[test]
    fn paper_listing_1_iterate_sql() {
        let db = Database::new();
        let r = db
            .execute(
                "SELECT * FROM ITERATE ((SELECT 7 \"x\"), (SELECT x+7 FROM iterate), \
                 (SELECT x FROM iterate WHERE x >= 100))",
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(105));
    }

    #[test]
    fn recursive_cte_sql() {
        let db = Database::new();
        let r = db
            .execute(
                "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 10) \
                 SELECT count(*), sum(n) FROM r",
            )
            .unwrap();
        let row = &r.to_rows()[0];
        assert_eq!(row.values()[0], Value::Int(10));
        assert_eq!(row.values()[1], Value::Int(55));
    }

    #[test]
    fn kmeans_sql_with_lambda() {
        let db = Database::new();
        db.execute("CREATE TABLE data (x DOUBLE, y DOUBLE)")
            .unwrap();
        db.execute("CREATE TABLE center (x DOUBLE, y DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO data VALUES (0.0, 0.0), (0.5, 0.5), (10.0, 10.0), (10.5, 10.5)")
            .unwrap();
        db.execute("INSERT INTO center VALUES (1.0, 1.0), (9.0, 9.0)")
            .unwrap();
        let r = db
            .execute(
                "SELECT * FROM KMEANS((SELECT x, y FROM data), (SELECT x, y FROM center), \
                 λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, 10)",
            )
            .unwrap();
        assert_eq!(r.row_count(), 2);
        // sizes column is last.
        assert_eq!(r.value(0, 3).unwrap(), Value::Int(2));
        assert_eq!(r.value(1, 3).unwrap(), Value::Int(2));
    }

    #[test]
    fn pagerank_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")
            .unwrap();
        db.execute("INSERT INTO edges VALUES (1,2),(2,3),(3,4),(4,1)")
            .unwrap();
        let r = db
            .execute("SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0001)")
            .unwrap();
        assert_eq!(r.row_count(), 4);
        for i in 0..4 {
            let rank = r.value(i, 1).unwrap().as_float().unwrap();
            assert!((rank - 0.25).abs() < 1e-3);
        }
    }

    #[test]
    fn transactions_commit_and_rollback() {
        let db = Database::new();
        db.execute("CREATE TABLE t (x BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (2)").unwrap();
        // Same session sees its own uncommitted row.
        assert_eq!(
            db.execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(2)
        );
        // Another session sees only committed data.
        let mut other = db.session();
        assert_eq!(
            other
                .execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(1)
        );
        db.execute("ROLLBACK").unwrap();
        assert_eq!(
            db.execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(1)
        );
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(
            other
                .execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn update_and_delete() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT, v DOUBLE)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
            .unwrap();
        let r = db.execute("UPDATE t SET v = v * 10 WHERE id >= 2").unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = db.execute("SELECT sum(v) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Float(51.0));
        let r = db.execute("DELETE FROM t WHERE id = 1").unwrap();
        assert_eq!(r.rows_affected, 1);
        assert_eq!(
            db.execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn explain_shows_plan() {
        let db = Database::new();
        db.execute("CREATE TABLE t (x BIGINT)").unwrap();
        let r = db.execute("EXPLAIN SELECT x FROM t WHERE x > 1").unwrap();
        let text = r.to_table_string();
        assert!(text.contains("TableScan"), "{text}");
        assert!(text.contains("filter"), "{text}");
    }

    #[test]
    fn error_paths() {
        let db = Database::new();
        assert!(db.execute("SELEC 1").is_err());
        assert!(db.execute("SELECT * FROM missing").is_err());
        assert!(db.execute("COMMIT").is_err());
        db.execute("BEGIN").unwrap();
        assert!(db.execute("BEGIN").is_err());
        db.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn insert_from_select_and_column_list() {
        let db = Database::new();
        db.execute("CREATE TABLE src (a BIGINT, b VARCHAR)")
            .unwrap();
        db.execute("CREATE TABLE dst (a BIGINT, b VARCHAR, c DOUBLE)")
            .unwrap();
        db.execute("INSERT INTO src VALUES (1, 'x')").unwrap();
        db.execute("INSERT INTO dst (b, a) SELECT b, a FROM src")
            .unwrap();
        let r = db.execute("SELECT a, b, c FROM dst").unwrap();
        assert_eq!(r.value(0, 0).unwrap(), Value::Int(1));
        assert_eq!(r.value(0, 1).unwrap(), Value::from("x"));
        assert!(r.value(0, 2).unwrap().is_null(), "unlisted column is NULL");
    }

    #[test]
    fn naive_bayes_sql_roundtrip() {
        let db = Database::new();
        db.execute("CREATE TABLE train (f1 DOUBLE, f2 DOUBLE, label BIGINT)")
            .unwrap();
        db.execute(
            "INSERT INTO train VALUES (0.1, 0.2, 0), (0.2, 0.1, 0), (0.0, 0.0, 0), \
             (5.1, 5.2, 1), (5.2, 5.1, 1), (5.0, 5.0, 1)",
        )
        .unwrap();
        db.execute("CREATE TABLE model (class BIGINT, attribute VARCHAR, prior DOUBLE, mean DOUBLE, stddev DOUBLE)").unwrap();
        db.execute(
            "INSERT INTO model SELECT * FROM NAIVE_BAYES_TRAIN((SELECT f1, f2, label FROM train), label)",
        )
        .unwrap();
        let r = db
            .execute(
                "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT * FROM model), \
                 (SELECT 0.15 f1, 0.15 f2)) ",
            )
            .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.value(0, 2).unwrap(), Value::Int(0), "predicted label");
    }

    #[test]
    fn class_stats_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE t (x DOUBLE, label VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1.0, 'a'), (3.0, 'a'), (10.0, 'b')")
            .unwrap();
        let r = db
            .execute("SELECT * FROM CLASS_STATS((SELECT x, label FROM t), label) ORDER BY class")
            .unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(r.value(0, 0).unwrap(), Value::from("a"));
        assert_eq!(r.value(0, 2).unwrap(), Value::Int(2));
        assert_eq!(r.value(0, 3).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn durable_database_survives_reopen() {
        use hylite_common::FaultVfs;
        use std::path::PathBuf;

        let fault = FaultVfs::new();
        let dir = PathBuf::from("data");
        let open = |fault: &FaultVfs| {
            Database::open_with(
                Arc::new(fault.clone()) as Arc<dyn Vfs>,
                &dir,
                DurabilityOptions::default(),
            )
            .unwrap()
        };
        {
            let db = open(&fault);
            assert!(db.is_durable());
            db.execute("CREATE TABLE t (x BIGINT, s VARCHAR)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
                .unwrap();
            db.execute("UPDATE t SET s = 'z' WHERE x = 2").unwrap();
            db.execute("DELETE FROM t WHERE x = 1").unwrap();
            // No close(): reopen must replay the WAL alone.
        }
        let db = open(&fault);
        let report = db.recovery_report().unwrap().clone();
        assert!(!report.checkpoint_loaded);
        assert!(report.replayed_records >= 4);
        let r = db.execute("SELECT x, s FROM t").unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.value(0, 0).unwrap(), Value::Int(2));
        assert_eq!(r.value(0, 1).unwrap(), Value::from("z"));

        // Checkpoint, add more, reopen: checkpoint + WAL tail combine.
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (3, 'c')").unwrap();
        drop(db);
        let db = open(&fault);
        let report = db.recovery_report().unwrap().clone();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(
            db.execute("SELECT count(*) FROM t")
                .unwrap()
                .scalar()
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn durable_transactions_are_atomic_in_the_wal() {
        use hylite_common::FaultVfs;
        use std::path::PathBuf;

        let fault = FaultVfs::new();
        let dir = PathBuf::from("data");
        let open = |fault: &FaultVfs| {
            Database::open_with(
                Arc::new(fault.clone()) as Arc<dyn Vfs>,
                &dir,
                DurabilityOptions::default(),
            )
            .unwrap()
        };
        {
            let db = open(&fault);
            db.execute("CREATE TABLE t (x BIGINT)").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            db.execute("COMMIT").unwrap();
            // A rolled-back transaction must leave no WAL trace.
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (99)").unwrap();
            db.execute("ROLLBACK").unwrap();
            // An open transaction at "crash" time is likewise invisible.
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (100)").unwrap();
        }
        let db = open(&fault);
        let r = db.execute("SELECT sum(x) FROM t").unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(3));
    }

    #[test]
    fn checkpoint_errors_on_in_memory_database() {
        let db = Database::new();
        assert!(!db.is_durable());
        assert!(db.checkpoint().is_err());
        assert!(db.close().unwrap().is_none());
    }

    #[test]
    fn system_views_answer_plain_sql() {
        let db = Database::new();
        db.execute("CREATE TABLE t (x BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();

        // Metrics: the inserts above bumped counters, so rows exist.
        let r = db
            .execute("SELECT count(*) FROM hylite.metrics WHERE kind = 'counter'")
            .unwrap();
        assert!(matches!(r.scalar().unwrap(), Value::Int(n) if n > 0));

        // WAL: an in-memory database reports the 'memory' pseudo-role.
        let r = db
            .execute("SELECT role, sync_mode FROM hylite.wal")
            .unwrap();
        assert_eq!(r.row_count(), 1);
        assert_eq!(r.value(0, 0).unwrap(), Value::from("memory"));
        assert_eq!(r.value(0, 1).unwrap(), Value::from("none"));

        // Sessions: at least the default session (id 1) is registered,
        // and its statement counter moves.
        let r = db
            .execute("SELECT statements FROM hylite.sessions WHERE session_id = 1")
            .unwrap();
        assert!(matches!(r.scalar().unwrap(), Value::Int(n) if n >= 3));

        // A second session shows up and vanishes when dropped.
        let mut s2 = db.session();
        s2.execute("SELECT 1").unwrap();
        let count = |db: &Database| {
            db.execute("SELECT count(*) FROM hylite.sessions")
                .unwrap()
                .scalar()
                .unwrap()
        };
        assert_eq!(count(&db), Value::Int(2));
        drop(s2);
        assert_eq!(count(&db), Value::Int(1));
    }

    #[test]
    fn slow_query_log_captures_and_traces() {
        let db = Database::new();
        db.execute("SET slow_query_ms = 1").unwrap();
        // An ITERATE loop with enough rounds comfortably exceeds 1ms.
        db.execute(
            "SELECT * FROM ITERATE ((SELECT 0 \"x\"), (SELECT x+1 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 50000))",
        )
        .unwrap();
        let entries = db.slow_query_log().entries();
        assert!(!entries.is_empty(), "slow query was not captured");
        let e = entries.last().unwrap();
        assert_eq!(e.session_id, 1);
        assert_eq!(e.verdict, "ok");
        assert!(e.sql.contains("ITERATE"), "{}", e.sql);
        assert!(e.wall_us >= 1000, "wall_us={}", e.wall_us);
        assert!(e.plan.contains("Iterate"), "plan: {}", e.plan);
        // Trace anatomy: session id in the high bits.
        assert_eq!(e.trace_id >> 20, 1);

        // The ring is queryable through SQL, on the same database.
        let r = db
            .execute("SELECT count(*) FROM hylite.slow_queries")
            .unwrap();
        assert!(matches!(r.scalar().unwrap(), Value::Int(n) if n >= 1));

        // EXPLAIN ANALYZE prints the same trace id scheme.
        let r = db.execute("EXPLAIN ANALYZE SELECT 1").unwrap();
        let text = r.to_table_string();
        assert!(text.contains("trace="), "{text}");
    }

    #[test]
    fn analytics_composes_with_sql_postprocessing() {
        // The paper's key claim: operators are relational — results can be
        // post-processed in the same query.
        let db = Database::new();
        db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")
            .unwrap();
        db.execute("INSERT INTO edges VALUES (1,2),(2,1),(3,1),(4,1)")
            .unwrap();
        let r = db
            .execute(
                "SELECT pr.vertex FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0) pr \
                 ORDER BY pr.rank DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Int(1), "vertex 1 is the hub");
    }
}
