//! Sessions: statement execution with single-writer transactions.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_common::governor::{CancelToken, Governor};
use hylite_common::sysview::{SlowQueryEntry, SlowQueryLog, SystemViewHub};
use hylite_common::telemetry::MetricsRegistry;
use hylite_common::{Chunk, HyError, Result, Schema, Value};
use hylite_exec::{ExecContext, Executor};
use hylite_expr::ScalarExpr;
use hylite_planner::binder::{Binder, BoundStatement};
use hylite_planner::{stats, LogicalPlan, Optimizer, Rules};
use hylite_sql::{parse_sql, SetValue, Statement};
use hylite_storage::{Catalog, Durability, RedoOp, TableRef, Transaction};

use crate::result::QueryResult;

/// Session-level resource knobs, adjusted with `SET <name> = <value>`;
/// the module's `SETTINGS` table lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSettings {
    /// Statement timeout in milliseconds; `0` disables the deadline.
    pub statement_timeout_ms: u64,
    /// Per-statement memory budget in mebibytes; `0` means unlimited.
    pub memory_budget_mb: u64,
    /// Slow-query capture threshold in milliseconds; `0` disables capture.
    pub slow_query_ms: u64,
    /// Whether the executor keeps and shares sub-plan results within a
    /// statement (`SET plan_reuse = on|off`).
    pub plan_reuse: bool,
    /// Whether scans hand their range predicates to storage, to be
    /// evaluated on encoded blocks (`SET encoded_scan = on|off`).
    pub encoded_scan: bool,
    /// Thread cap per statement (`SET threads = N`); `0` means every core
    /// but one.
    pub threads: u64,
}

/// How `SET` stores a setting's value.
enum Kind {
    /// A number.
    Number(fn(&mut SessionSettings) -> &mut u64),
    /// A switch: `on`/`off`, or `1`/`0`.
    Switch(fn(&mut SessionSettings) -> &mut bool),
    /// The capacity of the database's shared slow-query ring.
    SlowLogSize,
}

/// Every session setting, with its default and meaning: `SET` and its
/// errors read this list and nothing else.
const SETTINGS: &[(&str, Kind)] = &[
    // 0: per-statement wall-clock cap in ms; 0 = none.
    (
        "statement_timeout_ms",
        Kind::Number(|s| &mut s.statement_timeout_ms),
    ),
    // 0: per-statement memory cap in MiB; 0 = unlimited.
    (
        "memory_budget_mb",
        Kind::Number(|s| &mut s.memory_budget_mb),
    ),
    // 0: capture statements at least this slow (ms) into
    // `hylite.slow_queries`; 0 = off.
    ("slow_query_ms", Kind::Number(|s| &mut s.slow_query_ms)),
    // 128: capacity of the shared slow-query ring.
    ("slow_query_log_size", Kind::SlowLogSize),
    // on: run repeated sub-plans and loop-invariant parts of ITERATE /
    // recursive-CTE bodies once per statement; bit-identical either way.
    ("plan_reuse", Kind::Switch(|s| &mut s.plan_reuse)),
    // off: evaluate a scan's range predicates on the encoded blocks of disk
    // segments and materialize only the selected rows; bit-identical
    // either way.
    ("encoded_scan", Kind::Switch(|s| &mut s.encoded_scan)),
    // 0: most threads a statement's analytics operators run on; 0 = every
    // core but one (at least one), 1 = serial; bit-identical at every value.
    ("threads", Kind::Number(|s| &mut s.threads)),
];

impl Default for SessionSettings {
    fn default() -> Self {
        SessionSettings {
            statement_timeout_ms: 0,
            memory_budget_mb: 0,
            slow_query_ms: 0,
            plan_reuse: true,
            encoded_scan: false,
            threads: 0,
        }
    }
}

/// Shared, lock-free observability counters for one session, surfaced by
/// the `hylite.sessions` system view. The owning database keeps only a
/// weak handle in its session registry while the session itself holds the
/// strong one, so a closed session disappears from the view on its own.
#[derive(Debug)]
pub struct SessionStat {
    id: u64,
    statements: AtomicU64,
    errors: AtomicU64,
    in_transaction: AtomicBool,
    last_trace_id: AtomicU64,
    created: Instant,
}

impl SessionStat {
    /// Fresh counters for engine session `id` (id `0` = a bare session
    /// created outside any [`crate::Database`]).
    pub fn new(id: u64) -> SessionStat {
        SessionStat {
            id,
            statements: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            in_transaction: AtomicBool::new(false),
            last_trace_id: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// The engine session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Statements executed so far (including failed ones).
    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    /// Statements that ended in an error.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Whether a transaction was open after the last statement.
    pub fn in_transaction(&self) -> bool {
        self.in_transaction.load(Ordering::Relaxed)
    }

    /// Trace id of the session's most recent statement.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id.load(Ordering::Relaxed)
    }

    /// Seconds since the session was opened.
    pub fn age_seconds(&self) -> u64 {
        self.created.elapsed().as_secs()
    }

    fn set_last_trace(&self, trace: u64) {
        self.last_trace_id.store(trace, Ordering::Relaxed);
    }

    fn record_statement(&self, failed: bool, in_tx: bool) {
        self.statements.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.in_transaction.store(in_tx, Ordering::Relaxed);
    }
}

/// One client session. Holds the transaction state; queries read their
/// own uncommitted changes and the committed state of everything else.
///
/// Every statement runs under a fresh [`Governor`] built from the
/// session's [`SessionSettings`] and its shared [`CancelToken`] (see
/// [`cancel_handle`](Session::cancel_handle)), so cancellation, timeouts,
/// and budget violations abort exactly one statement and leave the
/// session usable.
///
/// # Quickstart
///
/// ```
/// use hylite_core::Database;
///
/// let db = Database::new();
/// let mut session = db.session();
/// session.execute("CREATE TABLE t (x BIGINT)").unwrap();
/// session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
///
/// // Resource knobs are per session; 0 disables a knob again.
/// session.execute("SET statement_timeout_ms = 5000").unwrap();
/// session.execute("SET memory_budget_mb = 256").unwrap();
/// assert_eq!(session.settings().statement_timeout_ms, 5000);
///
/// let r = session.execute("SELECT count(*) FROM t").unwrap();
/// assert_eq!(r.scalar().unwrap(), hylite_common::Value::Int(2));
/// ```
pub struct Session {
    catalog: Arc<Catalog>,
    tx: Option<Transaction>,
    /// Names of tables mutated by the open transaction.
    own_tables: HashSet<String>,
    /// Engine-wide metrics registry, shared with the owning database.
    metrics: Arc<MetricsRegistry>,
    /// Resource knobs (`SET statement_timeout_ms`, `SET memory_budget_mb`).
    settings: SessionSettings,
    /// The optimizer's and executor's rewrites that run: every one, unless
    /// a test switches some off with [`set_rules`](Session::set_rules).
    rules: Rules,
    /// Cancel token shared with [`cancel_handle`](Session::cancel_handle)
    /// callers; observed by the currently running statement.
    cancel: Arc<CancelToken>,
    /// The governor of the statement currently executing (an unlimited
    /// placeholder between statements).
    governor: Arc<Governor>,
    /// Durability engine of the owning database; `None` for an in-memory
    /// database.
    durability: Option<Arc<Durability>>,
    /// Redo ops staged by the open transaction, logged as one WAL commit
    /// record on COMMIT. Empty outside transactions (autocommit logs per
    /// statement) and when `durability` is `None`.
    redo: Vec<RedoOp>,
    /// Whether this session holds the database's writer gate. Acquired
    /// at the first table mutation of a statement (or transaction) and
    /// held through publish/rollback, so at most one session ever has
    /// staged (uncommitted) changes — the invariant `Table::commit` /
    /// `Table::rollback` rely on — and WAL frame order matches physical
    /// append order.
    holds_gate: bool,
    /// When set, the session serves a read replica: every write
    /// statement is rejected with [`HyError::ReadOnly`] naming this
    /// primary address, before binding even runs.
    read_only_primary: Option<String>,
    /// Observability counters shared with the database's session
    /// registry (`hylite.sessions`). Bare sessions get a private id-0
    /// stat that nothing else observes.
    stat: Arc<SessionStat>,
    /// The database-wide slow-query ring (`hylite.slow_queries`);
    /// `None` for bare sessions, which then never capture.
    slow_log: Option<Arc<SlowQueryLog>>,
    /// System-view hub threaded into executors so `hylite.*` scans see
    /// live engine state; `None` for bare sessions.
    sysviews: Option<Arc<SystemViewHub>>,
    /// Monotonic per-session statement counter; the low 20 bits of every
    /// trace id minted by this session.
    trace_seq: u64,
}

impl Session {
    /// New session over a catalog, with a private metrics registry.
    pub fn new(catalog: Arc<Catalog>) -> Session {
        Session::with_metrics(catalog, Arc::new(MetricsRegistry::new()))
    }

    /// New session reporting into a shared metrics registry.
    pub fn with_metrics(catalog: Arc<Catalog>, metrics: Arc<MetricsRegistry>) -> Session {
        Session::with_durability(catalog, metrics, None)
    }

    /// New session for a durable database: commits are acknowledged only
    /// after their redo record reaches the WAL (per the configured sync
    /// mode).
    pub fn with_durability(
        catalog: Arc<Catalog>,
        metrics: Arc<MetricsRegistry>,
        durability: Option<Arc<Durability>>,
    ) -> Session {
        Session {
            catalog,
            tx: None,
            own_tables: HashSet::new(),
            metrics,
            settings: SessionSettings::default(),
            rules: Rules::ALL,
            cancel: Arc::new(CancelToken::new()),
            governor: Arc::new(Governor::unlimited()),
            durability,
            redo: Vec::new(),
            holds_gate: false,
            read_only_primary: None,
            stat: Arc::new(SessionStat::new(0)),
            slow_log: None,
            sysviews: None,
            trace_seq: 0,
        }
    }

    /// Attach the database's observability plane: a registered
    /// [`SessionStat`], the system-view hub (so this session's queries can
    /// scan `hylite.*`), and the shared slow-query ring.
    pub fn with_observability(
        mut self,
        stat: Arc<SessionStat>,
        sysviews: Arc<SystemViewHub>,
        slow_log: Arc<SlowQueryLog>,
    ) -> Session {
        self.stat = stat;
        self.sysviews = Some(sysviews);
        self.slow_log = Some(slow_log);
        self
    }

    /// The engine session id (`0` for bare sessions).
    pub fn id(&self) -> u64 {
        self.stat.id()
    }

    /// Trace id of the most recently executed statement. The same id is
    /// printed by `EXPLAIN ANALYZE` and recorded in `hylite.slow_queries`,
    /// tying a wire request to its plan and its slow-log entry.
    pub fn last_trace_id(&self) -> u64 {
        self.stat.last_trace_id()
    }

    /// This session's shared observability counters.
    pub fn stat(&self) -> &Arc<SessionStat> {
        &self.stat
    }

    /// Mark this session read-only on behalf of a replica following
    /// `primary`. Write statements then fail with [`HyError::ReadOnly`]
    /// (wire code `ReadOnlyReplica`, retryable) naming the primary, so a
    /// client knows where to send the write — or to retry here after a
    /// promotion.
    pub fn set_read_only(&mut self, primary: impl Into<String>) {
        self.read_only_primary = Some(primary.into());
    }

    /// The primary address writes are redirected to, if this session is
    /// read-only.
    pub fn read_only_primary(&self) -> Option<&str> {
        self.read_only_primary.as_deref()
    }

    /// Reject `stmt` if the session is read-only and the statement
    /// writes.
    fn check_read_only(&self, stmt: &Statement) -> Result<()> {
        if let Some(primary) = &self.read_only_primary {
            if stmt.writes() {
                return Err(HyError::ReadOnly(format!(
                    "this server is a read-only replica; send writes to the primary at {primary}"
                )));
            }
        }
        Ok(())
    }

    /// Acquire the database-wide writer gate if this session doesn't
    /// hold it yet. Must be called before the first table mutation of
    /// any write statement.
    fn begin_write(&mut self) {
        if !self.holds_gate {
            self.catalog.writer_gate().acquire();
            self.holds_gate = true;
        }
    }

    /// Release the writer gate at the end of a write statement — unless
    /// a transaction is open, which keeps the gate until COMMIT/ROLLBACK
    /// (single-writer transactions).
    fn end_statement_write(&mut self) {
        if self.holds_gate && self.tx.is_none() {
            self.holds_gate = false;
            self.catalog.writer_gate().release();
        }
    }

    /// The session's current resource settings.
    pub fn settings(&self) -> SessionSettings {
        self.settings
    }

    /// Run only `rules` of the optimizer's and executor's rewrites from the
    /// next statement on (every one by default). A test hook: each rewrite
    /// returns the bits of the plan it replaces, and `Rules::NONE` is the
    /// reference a test compares every other set with.
    pub fn set_rules(&mut self, rules: Rules) {
        self.rules = rules;
    }

    /// A shareable handle that cancels the session's running (or next)
    /// statement from any thread. Cancellation is sticky until a
    /// statement actually aborts with [`HyError::Cancelled`]; the session
    /// then clears it so subsequent statements run normally.
    pub fn cancel_handle(&self) -> Arc<CancelToken> {
        Arc::clone(&self.cancel)
    }

    /// The metrics registry this session reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.tx.is_some()
    }

    /// Execute a script of `;`-separated statements; returns the last
    /// statement's result.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let statements = parse_sql(sql)?;
        if statements.is_empty() {
            return Err(HyError::Parse("empty statement".into()));
        }
        let mut last = None;
        for stmt in &statements {
            last = Some(self.execute_traced(stmt, Some(sql))?);
        }
        Ok(last.expect("non-empty checked"))
    }

    /// Execute one parsed statement under a fresh per-statement governor.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        self.execute_traced(stmt, None)
    }

    /// Mint the next trace id: session id in the high bits, a per-session
    /// statement sequence in the low 20. Recorded in [`SessionStat`]
    /// *before* execution so `EXPLAIN ANALYZE` can print it.
    fn next_trace_id(&mut self) -> u64 {
        self.trace_seq = self.trace_seq.wrapping_add(1);
        let trace = (self.stat.id() << 20) | (self.trace_seq & 0xF_FFFF);
        self.stat.set_last_trace(trace);
        trace
    }

    /// The statement-execution spine: governor setup, trace-id minting,
    /// metrics, session counters, and slow-query capture. `sql` is the
    /// original text when known (it is recorded in the slow-query log).
    fn execute_traced(&mut self, stmt: &Statement, sql: Option<&str>) -> Result<QueryResult> {
        self.check_read_only(stmt)?;
        let started = Instant::now();
        let trace_id = self.next_trace_id();
        self.governor = self.new_statement_governor();
        let governor = Arc::clone(&self.governor);
        // Capture the optimizer input up front when slow-query logging is
        // armed: by the time we know the statement was slow, the bound
        // plan has been consumed.
        let capture = self.slow_log.is_some() && self.settings.slow_query_ms > 0;
        let mut plan_text = String::new();
        let result = Binder::new(&self.catalog)
            .bind_statement(stmt)
            .and_then(|bound| {
                if capture {
                    if let BoundStatement::Query(plan) = &bound {
                        plan_text = plan.explain();
                    }
                }
                self.execute_bound(bound)
            });
        self.governor = Arc::new(Governor::unlimited());
        let wall_us = started.elapsed().as_micros() as u64;
        self.metrics.histogram("query.wall_us").record(wall_us);
        let peak = governor.budget().peak();
        if peak > 0 {
            self.metrics
                .histogram("governor.peak_reserved_bytes")
                .record(peak);
        }
        let denied = governor.budget().denied();
        if denied > 0 {
            self.metrics
                .counter("governor.denied_reservations")
                .add(denied);
        }
        let verdict = match &result {
            Ok(_) => {
                self.metrics.counter("query.executed").inc();
                "ok"
            }
            Err(e) => {
                self.metrics.counter("query.failed").inc();
                match e {
                    HyError::Cancelled(_) => {
                        // One cancel request kills at most one statement:
                        // clear the sticky token now that it has fired.
                        self.cancel.reset();
                        self.metrics.counter("query.cancelled").inc();
                        "cancelled"
                    }
                    HyError::Timeout(_) => {
                        self.metrics.counter("query.timed_out").inc();
                        "timeout"
                    }
                    HyError::BudgetExceeded(_) => {
                        self.metrics.counter("query.budget_exceeded").inc();
                        "budget_exceeded"
                    }
                    _ => "error",
                }
            }
        };
        self.stat
            .record_statement(result.is_err(), self.tx.is_some());
        if capture && wall_us >= self.settings.slow_query_ms.saturating_mul(1000) {
            let rows = result
                .as_ref()
                .map(|r| r.row_count().max(r.rows_affected) as u64)
                .unwrap_or(0);
            if let Some(log) = &self.slow_log {
                log.push(SlowQueryEntry {
                    trace_id,
                    session_id: self.stat.id(),
                    sql: match sql {
                        Some(text) => text.to_owned(),
                        None => format!("{stmt:?}"),
                    },
                    wall_us,
                    rows,
                    verdict: verdict.to_owned(),
                    plan: std::mem::take(&mut plan_text),
                });
            }
        }
        result
    }

    /// Build the governor for the next statement from the current
    /// settings: the shared cancel token, a deadline if
    /// `statement_timeout_ms` is set, a byte budget if
    /// `memory_budget_mb` is set, and the `threads` cap.
    fn new_statement_governor(&self) -> Arc<Governor> {
        let timeout = (self.settings.statement_timeout_ms > 0)
            .then(|| Duration::from_millis(self.settings.statement_timeout_ms));
        let budget = (self.settings.memory_budget_mb > 0)
            .then(|| self.settings.memory_budget_mb.saturating_mul(1024 * 1024));
        let threads = usize::try_from(self.settings.threads).unwrap_or(usize::MAX);
        Arc::new(Governor::new(Arc::clone(&self.cancel), timeout, budget).with_threads(threads))
    }

    /// Apply `SET <name> = <value>`. Unknown names are a bind error; the
    /// session's settings are unchanged on failure.
    fn apply_setting(&mut self, name: &str, value: SetValue) -> Result<QueryResult> {
        let Some((_, kind)) = SETTINGS.iter().find(|(n, _)| *n == name) else {
            let names: Vec<&str> = SETTINGS.iter().map(|(n, _)| *n).collect();
            return Err(HyError::Bind(format!(
                "unknown session setting '{name}' (available: {})",
                names.join(", ")
            )));
        };
        let number = match value {
            SetValue::Number(n @ ..0) => {
                return Err(HyError::Bind(format!(
                    "SET {name}: value must be non-negative, got {n}"
                )))
            }
            SetValue::Number(n) => n as u64,
            SetValue::Switch(on) if matches!(kind, Kind::Switch(_)) => on as u64,
            SetValue::Switch(_) => {
                return Err(HyError::Bind(format!(
                    "SET {name}: expected an integer, got {value}"
                )))
            }
        };
        match kind {
            Kind::Number(field) => *field(&mut self.settings) = number,
            Kind::Switch(_) if number > 1 => {
                return Err(HyError::Bind(format!(
                    "SET {name}: expected on, off, 1 or 0, got {number}"
                )))
            }
            Kind::Switch(field) => *field(&mut self.settings) = number == 1,
            Kind::SlowLogSize => match &self.slow_log {
                Some(log) => log.set_capacity(number as usize),
                None => {
                    return Err(HyError::Bind(
                        "slow_query_log_size needs a database-backed session \
                         (bare sessions have no slow-query log)"
                            .into(),
                    ))
                }
            },
        }
        Ok(QueryResult::affected(0))
    }

    fn execute_bound(&mut self, bound: BoundStatement) -> Result<QueryResult> {
        match bound {
            BoundStatement::Query(plan) => self.run_query(plan),
            BoundStatement::CreateTable {
                name,
                schema,
                if_not_exists,
            } => {
                let r = self.run_create_table(&name, schema, if_not_exists);
                self.end_statement_write();
                r
            }
            BoundStatement::DropTable { name, if_exists } => {
                let r = self.run_drop_table(&name, if_exists);
                self.end_statement_write();
                r
            }
            BoundStatement::Insert { table, source } => {
                let r = self.run_insert(&table, source);
                self.end_statement_write();
                r
            }
            BoundStatement::Update {
                table,
                exprs,
                filter,
            } => {
                let r = self.run_update(&table, &exprs, filter.as_ref());
                self.end_statement_write();
                r
            }
            BoundStatement::Delete { table, filter } => {
                let r = self.run_delete(&table, filter.as_ref());
                self.end_statement_write();
                r
            }
            BoundStatement::Begin => {
                if self.tx.is_some() {
                    return Err(HyError::Transaction(
                        "a transaction is already in progress".into(),
                    ));
                }
                self.tx = Some(Transaction::new());
                self.metrics.counter("tx.begin").inc();
                Ok(QueryResult::affected(0))
            }
            BoundStatement::Commit => match self.tx.take() {
                Some(tx) => {
                    // The transaction's staged redo ops become one WAL
                    // commit record; the WAL append and the in-memory
                    // publish share one commit-mutex critical section (see
                    // `after_write`), so an acknowledged commit can never be
                    // truncated away by a concurrent checkpoint. A WAL
                    // failure rolls the whole transaction back, so recovery
                    // can never observe half a transaction.
                    let ops = std::mem::take(&mut self.redo);
                    let published = commit_ops(self.durability.as_deref(), &ops, |logged| {
                        if logged {
                            tx.commit()
                        } else {
                            tx.rollback()
                        }
                    });
                    self.own_tables.clear();
                    self.end_statement_write();
                    match published {
                        Ok(()) => {
                            self.metrics.counter("tx.commit").inc();
                            Ok(QueryResult::affected(0))
                        }
                        Err(e) => {
                            self.metrics.counter("tx.rollback").inc();
                            Err(e)
                        }
                    }
                }
                None => Err(HyError::Transaction("no transaction in progress".into())),
            },
            BoundStatement::Rollback => match self.tx.take() {
                Some(tx) => {
                    tx.rollback();
                    self.redo.clear();
                    self.own_tables.clear();
                    self.end_statement_write();
                    self.metrics.counter("tx.rollback").inc();
                    Ok(QueryResult::affected(0))
                }
                None => Err(HyError::Transaction("no transaction in progress".into())),
            },
            BoundStatement::Set { name, value } => self.apply_setting(&name, value),
            BoundStatement::Explain { statement, analyze } => self.run_explain(*statement, analyze),
            BoundStatement::Backup { dir, base, verify } => {
                self.run_backup(&dir, base.as_deref(), verify)
            }
        }
    }

    /// `BACKUP TO 'dir' [FROM 'base'] [VERIFY]`: online backup through the
    /// durability engine. Allowed on replicas (a backup is a read), but
    /// meaningless without a data directory.
    fn run_backup(&mut self, dir: &str, base: Option<&str>, verify: bool) -> Result<QueryResult> {
        let Some(d) = &self.durability else {
            return Err(HyError::Storage(
                "BACKUP requires a durable database (start the server with --data-dir)".into(),
            ));
        };
        let summary = d.backup(
            std::path::Path::new(dir),
            base.map(std::path::Path::new),
            verify,
        )?;
        Ok(QueryResult::text(
            "backup",
            vec![format!(
                "backed up to {} (lsn {}, {} segments copied, {} bytes{}{})",
                summary.dest.display(),
                summary.backup_lsn,
                summary.segments_copied,
                summary.bytes,
                if summary.incremental {
                    ", incremental"
                } else {
                    ""
                },
                if summary.verified { ", verified" } else { "" },
            )],
        ))
    }

    /// EXPLAIN / EXPLAIN ANALYZE. The plain form annotates each plan node
    /// with its estimated cardinality; the ANALYZE form additionally runs
    /// the statement under a profiling executor and reports actual rows,
    /// chunk counts, wall time, and peak operator memory per node.
    fn run_explain(&mut self, inner: BoundStatement, analyze: bool) -> Result<QueryResult> {
        let plan = match inner {
            BoundStatement::Query(plan) => plan,
            other if analyze => {
                // Non-query statements have no plan tree; ANALYZE still
                // executes them and reports the outcome.
                let result = self.execute_bound(other)?;
                return Ok(QueryResult::text(
                    "plan",
                    vec![format!(
                        "Statement (rows_affected={})",
                        result.rows_affected
                    )],
                ));
            }
            other => {
                return Ok(QueryResult::text(
                    "plan",
                    format!("{other:?}").lines().map(str::to_owned).collect(),
                ));
            }
        };
        let optimized = self.optimizer().optimize(plan)?;
        let table_rows = |name: &str| -> usize {
            self.table_snapshot(name)
                .map(|s| s.live_rows())
                .unwrap_or(0)
        };
        let estimate = |p: &LogicalPlan| {
            format!(
                " (est_rows={})",
                stats::estimate_rows(p, &table_rows).round() as u64
            )
        };

        if !analyze {
            let text = optimized.explain_annotated(&estimate);
            return Ok(QueryResult::text(
                "plan",
                text.lines().map(str::to_owned).collect(),
            ));
        }

        let mut executor = Executor::new(self.exec_context());
        executor.ctx.enable_profiling();
        let started = Instant::now();
        let chunks = executor.execute(&optimized)?;
        let total_wall = started.elapsed();
        let profile = executor.ctx.take_profile();
        let exec_stats = executor.ctx.stats;
        let total_rows: usize = chunks.iter().map(Chunk::len).sum();

        let annotate = |p: &LogicalPlan| {
            let mut out = estimate(p);
            match profile.as_ref().and_then(|prof| prof.find(p.node_id())) {
                Some(span) => {
                    out.push_str(&format!(
                        " (actual rows={} chunks={} calls={} time={:.3}ms mem={}B)",
                        span.rows_out,
                        span.chunks_out,
                        span.calls,
                        span.wall.as_secs_f64() * 1e3,
                        span.peak_mem_bytes,
                    ));
                    for (k, v) in &span.extras {
                        out.push_str(&format!(" [{k}={v}]"));
                    }
                }
                None => out.push_str(" (never executed)"),
            }
            out
        };
        let mut lines: Vec<String> = optimized
            .explain_annotated(&annotate)
            .lines()
            .map(str::to_owned)
            .collect();
        lines.push(format!(
            "Execution: total={:.3}ms rows={} iterations={} peak_working_rows={} trace={}",
            total_wall.as_secs_f64() * 1e3,
            total_rows,
            exec_stats.iterations,
            exec_stats.peak_working_rows,
            self.stat.last_trace_id(),
        ));
        let mut qr = QueryResult::text("plan", lines);
        qr.stats = exec_stats;
        Ok(qr)
    }

    /// The optimizer under the session's rules.
    fn optimizer(&self) -> Optimizer {
        Optimizer::new().with_rules(self.rules)
    }

    fn run_query(&mut self, plan: LogicalPlan) -> Result<QueryResult> {
        let optimized = self.optimizer().optimize(plan)?;
        let schema = Arc::new(optimized.schema().without_qualifiers());
        let mut executor = Executor::new(self.exec_context());
        let chunks = executor.execute(&optimized)?;
        Ok(QueryResult::rows(schema, chunks, executor.ctx.stats))
    }

    fn run_plan(&mut self, plan: &LogicalPlan) -> Result<Vec<Chunk>> {
        let mut executor = Executor::new(self.exec_context());
        executor.execute(plan)
    }

    fn exec_context(&self) -> ExecContext {
        let mut ctx = ExecContext::new(Arc::clone(&self.catalog))
            .with_own_tables(self.own_tables.iter().cloned())
            .with_metrics(Arc::clone(&self.metrics))
            .with_governor(Arc::clone(&self.governor))
            .with_plan_reuse(self.settings.plan_reuse)
            .with_encoded_scan(self.settings.encoded_scan)
            .with_rules(self.rules);
        if let Some(hub) = &self.sysviews {
            ctx = ctx.with_system_views(Arc::clone(hub));
        }
        ctx
    }

    fn table_snapshot(&self, table: &str) -> Result<hylite_storage::TableSnapshot> {
        let t = self.catalog.get_table(table)?;
        let guard = t.read();
        Ok(if self.own_tables.contains(&table.to_ascii_lowercase()) {
            guard.snapshot()
        } else {
            guard.committed_snapshot()
        })
    }

    fn run_update(
        &mut self,
        table: &str,
        exprs: &[ScalarExpr],
        filter: Option<&ScalarExpr>,
    ) -> Result<QueryResult> {
        // The gate is taken before the scan so the positional row ids it
        // produces cannot be shifted by a concurrent writer before the
        // delete+append lands.
        self.begin_write();
        let snapshot = self.table_snapshot(table)?;
        let hits = hylite_exec::scan::scan_with_row_ids(
            &snapshot,
            filter,
            &self.governor,
            self.settings.encoded_scan,
        )?;
        let mut ids = Vec::new();
        let mut new_rows: Vec<Vec<Value>> = Vec::new();
        for (chunk, row_ids) in &hits {
            let cols: Vec<hylite_common::ColumnVector> =
                exprs.iter().map(|e| e.eval(chunk)).collect::<Result<_>>()?;
            for i in 0..chunk.len() {
                new_rows.push(cols.iter().map(|c| c.value(i)).collect());
            }
            ids.extend_from_slice(row_ids);
        }
        let n = ids.len();
        if n > 0 {
            let types = snapshot.schema().types();
            let chunk = Chunk::from_rows(&types, &new_rows)?;
            let t = self.catalog.get_table(table)?;
            {
                // Same delete+append shape as `Table::update_rows`, split so
                // the redo log captures the appended chunk verbatim.
                let mut guard = t.write();
                guard.delete_rows(&ids)?;
                guard.insert_chunk(chunk.clone())?;
            }
            let key = table.to_ascii_lowercase();
            self.after_write(
                table,
                vec![
                    RedoOp::Delete {
                        table: key.clone(),
                        row_ids: ids.iter().map(|&i| i as u64).collect(),
                    },
                    RedoOp::Insert {
                        table: key,
                        rows: chunk,
                    },
                ],
            )?;
        }
        Ok(QueryResult::affected(n))
    }

    fn run_delete(&mut self, table: &str, filter: Option<&ScalarExpr>) -> Result<QueryResult> {
        // Gate before the scan: see `run_update` on row-id stability.
        self.begin_write();
        let snapshot = self.table_snapshot(table)?;
        let hits = hylite_exec::scan::scan_with_row_ids(
            &snapshot,
            filter,
            &self.governor,
            self.settings.encoded_scan,
        )?;
        let ids: Vec<usize> = hits.into_iter().flat_map(|(_, ids)| ids).collect();
        let n = ids.len();
        if n > 0 {
            let t = self.catalog.get_table(table)?;
            t.write().delete_rows(&ids)?;
            self.after_write(
                table,
                vec![RedoOp::Delete {
                    table: table.to_ascii_lowercase(),
                    row_ids: ids.iter().map(|&i| i as u64).collect(),
                }],
            )?;
        }
        Ok(QueryResult::affected(n))
    }

    /// Post-write bookkeeping: inside a transaction, record the touched
    /// table and stage the redo ops; in autocommit mode, log the commit to
    /// the WAL (when durable) and publish immediately. The WAL append
    /// happens *before* the in-memory commit so an acknowledged write is
    /// always recoverable; on WAL failure the write is rolled back.
    fn after_write(&mut self, table: &str, ops: Vec<RedoOp>) -> Result<()> {
        let t = self
            .catalog
            .get_table(table)
            .expect("table existed during the write");
        match &mut self.tx {
            Some(tx) => {
                tx.touch(&t);
                self.own_tables.insert(table.to_ascii_lowercase());
                if self.durability.is_some() {
                    self.redo.extend(ops);
                }
            }
            None => {
                debug_assert!(self.holds_gate, "autocommit write without the writer gate");
                commit_ops(self.durability.as_deref(), &ops, settle_table(&t))?;
            }
        }
        Ok(())
    }

    /// CREATE TABLE. DDL is logged immediately as its own commit record
    /// (the catalog is not transactional), through the same log-then-
    /// publish protocol as every other write, so a concurrent checkpoint
    /// never snapshots a created-but-unlogged (or logged-but-uncreated)
    /// table and a WAL failure leaves the catalog untouched. The name is
    /// checked first: the writer gate, held from `begin_write`, keeps
    /// every other catalog writer out between the check and the create.
    fn run_create_table(
        &mut self,
        name: &str,
        schema: Schema,
        if_not_exists: bool,
    ) -> Result<QueryResult> {
        self.begin_write();
        if self.catalog.has_table(name) {
            if if_not_exists {
                return Ok(QueryResult::affected(0));
            }
            return Err(HyError::Catalog(format!("table '{name}' already exists")));
        }
        let op = RedoOp::CreateTable {
            name: name.to_ascii_lowercase(),
            schema: schema.clone(),
        };
        let mut created = Ok(());
        commit_ops(self.durability.as_deref(), &[op], |logged| {
            if logged {
                created = self.catalog.create_table(name, schema).map(drop);
            }
        })?;
        created?;
        Ok(QueryResult::affected(0))
    }

    /// DROP TABLE. Same check-then-log-then-publish protocol as
    /// [`Self::run_create_table`].
    fn run_drop_table(&mut self, name: &str, if_exists: bool) -> Result<QueryResult> {
        self.begin_write();
        let key = name.to_ascii_lowercase();
        if let Err(e) = self.catalog.get_table(name) {
            return if if_exists {
                Ok(QueryResult::affected(0))
            } else {
                Err(e)
            };
        }
        let op = RedoOp::DropTable { name: key.clone() };
        commit_ops(self.durability.as_deref(), &[op], |logged| {
            if logged {
                // Cannot fail: `if_exists` tolerates even a missing table.
                let _ = self.catalog.drop_table(name, true);
            }
        })?;
        self.own_tables.remove(&key);
        Ok(QueryResult::affected(0))
    }

    /// INSERT ... VALUES / INSERT ... SELECT. The source plan runs *before*
    /// the writer gate is taken (reads need no gate); the gate is held from
    /// the staging append through publish so no other session's staged rows
    /// can be swept into this commit.
    fn run_insert(&mut self, table: &str, source: LogicalPlan) -> Result<QueryResult> {
        let plan = self.optimizer().optimize(source)?;
        let chunks = self.run_plan(&plan)?;
        let types = plan.schema().types();
        let data = Chunk::concat(&types, &chunks)?;
        let n = data.len();
        self.begin_write();
        let t = self.catalog.get_table(table)?;
        t.write().insert_chunk(data.clone())?;
        self.after_write(
            table,
            vec![RedoOp::Insert {
                table: table.to_ascii_lowercase(),
                rows: data,
            }],
        )?;
        Ok(QueryResult::affected(n))
    }
}

/// Commit `ops`: on a durable database through [`Durability::commit`],
/// which logs them and then runs `settle(logged)` — the in-memory publish,
/// or the rollback if the WAL refused the commit — inside the commit
/// lock. An in-memory database, or a commit with nothing to log,
/// publishes at once.
pub(crate) fn commit_ops(
    durability: Option<&Durability>,
    ops: &[RedoOp],
    settle: impl FnOnce(bool),
) -> Result<()> {
    match durability {
        Some(d) if !ops.is_empty() => d.commit(ops, settle).map(drop),
        _ => {
            settle(true);
            Ok(())
        }
    }
}

/// The `settle` of a commit that staged rows in one table: publish them,
/// or discard them if the commit was not logged.
pub(crate) fn settle_table(table: &TableRef) -> impl FnOnce(bool) + '_ {
    move |logged| {
        let mut guard = table.write();
        if logged {
            guard.commit()
        } else {
            guard.rollback()
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // An open transaction rolls back when the session ends, and a held
        // writer gate is released so other sessions can make progress.
        if let Some(tx) = self.tx.take() {
            tx.rollback();
        }
        if self.holds_gate {
            self.holds_gate = false;
            self.catalog.writer_gate().release();
        }
    }
}
