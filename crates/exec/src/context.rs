//! Execution context: catalog access, working tables, runtime statistics.

use std::collections::HashMap;
use std::sync::Arc;

use hylite_common::governor::Governor;
use hylite_common::sysview::{SystemView, SystemViewHub};
use hylite_common::telemetry::{MetricsRegistry, ProfileBuilder, QueryProfile};
use hylite_common::{Chunk, HyError, Result, Value};
use hylite_planner::Rules;
use hylite_storage::{Catalog, TableSnapshot};

/// Runtime statistics of one query execution, used by EXPLAIN-style
/// diagnostics and the memory-ablation experiment (ITERATE vs recursive
/// CTE intermediate sizes, §5.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Largest number of intermediate working-table rows alive at once
    /// across all iteration constructs in the query.
    pub peak_working_rows: usize,
    /// Total iterations executed by ITERATE / recursive CTE operators
    /// and iterative analytics operators (k-Means, PageRank).
    pub iterations: usize,
}

impl ExecStats {
    /// Record a working-set size observation.
    pub fn observe_working_rows(&mut self, rows: usize) {
        self.peak_working_rows = self.peak_working_rows.max(rows);
    }
}

/// Shared, immutable result of a subplan used as a working table.
pub type WorkingRelation = Arc<Vec<Chunk>>;

/// Context threaded through execution.
pub struct ExecContext {
    catalog: Arc<Catalog>,
    /// Working tables by name; a stack per name supports nesting (an
    /// ITERATE inside a recursive CTE, etc.). Every push gets a binding
    /// id unique within the statement, which is how the reuse table tells
    /// one generation of a working table from the next.
    working: HashMap<String, Vec<(u64, WorkingRelation)>>,
    /// Binding ids handed out so far (`0` means "not bound").
    bindings: u64,
    /// One snapshot per base table for the whole statement, so every scan
    /// of a table (20 of `edges` in a 20-iteration ITERATE) reads the same
    /// committed version while other sessions commit.
    snapshots: Vec<(String, Arc<TableSnapshot>)>,
    /// `SET plan_reuse`: whether the executor may keep and share sub-plan
    /// results within the statement.
    plan_reuse: bool,
    /// `SET encoded_scan`: whether scans hand their range predicates to
    /// storage, to be evaluated on encoded blocks.
    encoded_scan: bool,
    /// The rewrites the executor may run: [`Rules::BROADCAST_CROSS`].
    pub(crate) rules: Rules,
    /// Tables mutated by the session's open transaction: the session
    /// reads its *own* uncommitted changes from these, and the committed
    /// state of everything else — snapshot isolation.
    own_tables: std::collections::HashSet<String>,
    /// Runtime statistics.
    pub stats: ExecStats,
    /// Engine-wide metrics; shared with the owning database so operator
    /// counters and histograms survive across statements.
    metrics: Arc<MetricsRegistry>,
    /// Per-operator span profile, recorded only when explicitly enabled
    /// (EXPLAIN ANALYZE) so plain queries pay nothing.
    profile: Option<ProfileBuilder>,
    /// The statement's resource governor (cancellation, deadline, memory
    /// budget). Defaults to an unlimited one so execution outside a
    /// session (tests, benches) is unaffected.
    governor: Arc<Governor>,
    /// Scoped memory accounting: one frame per open [`Executor::execute`]
    /// call, tracking bytes reserved for that subtree's child outputs.
    /// When a node finishes, its children's outputs are dead and the
    /// frame's bytes are released back to the budget.
    ///
    /// [`Executor::execute`]: crate::Executor::execute
    mem_frames: Vec<u64>,
    /// System-view hub for `hylite.*` scans. `None` outside a database
    /// session (bare contexts in tests); scans then return no rows.
    sysviews: Option<Arc<SystemViewHub>>,
}

impl ExecContext {
    /// Context over a catalog, with a private metrics registry.
    pub fn new(catalog: Arc<Catalog>) -> ExecContext {
        ExecContext {
            catalog,
            working: HashMap::new(),
            bindings: 0,
            snapshots: Vec::new(),
            plan_reuse: true,
            encoded_scan: false,
            rules: Rules::ALL,
            own_tables: std::collections::HashSet::new(),
            stats: ExecStats::default(),
            metrics: Arc::new(MetricsRegistry::new()),
            profile: None,
            governor: Arc::new(Governor::unlimited()),
            mem_frames: Vec::new(),
            sysviews: None,
        }
    }

    /// Attach the database's system-view hub so `hylite.*` scans see
    /// live engine state.
    pub fn with_system_views(mut self, hub: Arc<SystemViewHub>) -> ExecContext {
        self.sysviews = Some(hub);
        self
    }

    /// Materialize a system view's rows from every registered provider
    /// (empty without a hub).
    pub fn scan_system_view(&self, view: SystemView) -> Vec<Vec<Value>> {
        match &self.sysviews {
            Some(hub) => hub.scan(view),
            None => Vec::new(),
        }
    }

    /// Switch sub-plan reuse and loop-invariant hoisting on or off (on by
    /// default); results are bit-identical either way.
    pub fn with_plan_reuse(mut self, on: bool) -> ExecContext {
        self.plan_reuse = on;
        self
    }

    /// Whether the executor may keep and share sub-plan results.
    pub fn plan_reuse(&self) -> bool {
        self.plan_reuse
    }

    /// Switch predicate evaluation on encoded blocks on or off (off by
    /// default); results are bit-identical either way.
    pub fn with_encoded_scan(mut self, on: bool) -> ExecContext {
        self.encoded_scan = on;
        self
    }

    /// Whether scans hand their range predicates to storage.
    pub fn encoded_scan(&self) -> bool {
        self.encoded_scan
    }

    /// Run only `rules` (every one by default); results are bit-identical
    /// under every set.
    pub fn with_rules(mut self, rules: Rules) -> ExecContext {
        self.rules = rules;
        self
    }

    /// Attach the statement's resource governor.
    pub fn with_governor(mut self, governor: Arc<Governor>) -> ExecContext {
        self.governor = governor;
        self
    }

    /// The statement's resource governor.
    pub fn governor(&self) -> &Arc<Governor> {
        &self.governor
    }

    /// Cooperative cancellation/deadline check — called at every operator
    /// dispatch (and, via shared governor handles, in every scan morsel
    /// and analytics iteration).
    pub fn check_governor(&self) -> Result<()> {
        self.governor.check()
    }

    /// Open a memory-accounting frame for one operator execution.
    pub fn push_mem_frame(&mut self) {
        self.mem_frames.push(0);
    }

    /// Close the current frame, releasing every byte its children
    /// reserved (their outputs are dead once the parent has produced its
    /// own output).
    pub fn pop_mem_frame(&mut self) {
        if let Some(bytes) = self.mem_frames.pop() {
            self.governor.release(bytes);
        }
    }

    /// Charge one operator's materialized output against the budget and
    /// remember it in the *parent's* frame so it is released when the
    /// parent finishes. Top-level outputs (no parent frame) stay charged
    /// until the statement's governor is dropped.
    pub fn reserve_output(&mut self, bytes: u64) -> Result<()> {
        self.governor.reserve(bytes)?;
        if let Some(frame) = self.mem_frames.last_mut() {
            *frame += bytes;
        }
        Ok(())
    }

    /// Release bytes that were charged to the current frame before the
    /// frame closes — used by ITERATE when it drops an old generation of
    /// the working table mid-loop, so long iterations don't accumulate
    /// phantom charges.
    pub fn release_scoped(&mut self, bytes: u64) {
        self.governor.release(bytes);
        if let Some(frame) = self.mem_frames.last_mut() {
            *frame = frame.saturating_sub(bytes);
        }
    }

    /// Mark tables whose uncommitted (working) state this session reads.
    pub fn with_own_tables(mut self, tables: impl IntoIterator<Item = String>) -> ExecContext {
        self.own_tables = tables.into_iter().collect();
        self
    }

    /// Share an engine-wide metrics registry instead of the private one.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> ExecContext {
        self.metrics = metrics;
        self
    }

    /// The metrics registry this execution reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Start recording a per-operator span profile for this execution.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(ProfileBuilder::new());
    }

    /// True when a profile is being recorded.
    pub fn profiling(&self) -> bool {
        self.profile.is_some()
    }

    /// Open a profile span for plan node `node_id` (no-op unless
    /// profiling is enabled).
    pub fn profile_enter(&mut self, node_id: usize, op_name: &str) {
        if let Some(p) = &mut self.profile {
            p.enter(node_id, op_name);
        }
    }

    /// Close the innermost profile span with its output totals.
    pub fn profile_exit(&mut self, rows_out: u64, chunks_out: u64) {
        if let Some(p) = &mut self.profile {
            p.exit(rows_out, chunks_out);
        }
    }

    /// Annotate the innermost open profile span.
    pub fn profile_note(&mut self, key: &str, value: impl ToString) {
        if let Some(p) = &mut self.profile {
            p.note(key, value);
        }
    }

    /// Raise the innermost open span's peak memory observation.
    pub fn profile_mem(&mut self, bytes: u64) {
        if let Some(p) = &mut self.profile {
            p.observe_mem(bytes);
        }
    }

    /// Annotate the span of plan node `node_id`, open or already closed.
    pub fn profile_note_node(&mut self, node_id: usize, key: &str, value: impl ToString) {
        if let Some(p) = &mut self.profile {
            p.note_node(node_id, key, value);
        }
    }

    /// Finish profiling and return the assembled profile, if any.
    pub fn take_profile(&mut self) -> Option<QueryProfile> {
        self.profile.take().map(ProfileBuilder::finish)
    }

    /// Snapshot a base table: the session's own working state for tables
    /// it has mutated in its open transaction, the committed state
    /// otherwise. Taken on the statement's first use of the table and
    /// returned unchanged afterwards, whatever other sessions commit.
    pub fn snapshot(&mut self, table: &str) -> Result<Arc<TableSnapshot>> {
        let seen = |(name, _): &&(String, Arc<TableSnapshot>)| name.eq_ignore_ascii_case(table);
        if let Some((_, snap)) = self.snapshots.iter().find(seen) {
            return Ok(Arc::clone(snap));
        }
        let t = self.catalog.get_table(table)?;
        let guard = t.read();
        let snap = Arc::new(if self.own_tables.contains(&table.to_ascii_lowercase()) {
            guard.snapshot()
        } else {
            guard.committed_snapshot()
        });
        self.snapshots.push((table.to_owned(), Arc::clone(&snap)));
        Ok(snap)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Push a working relation for `name`.
    pub fn push_working(&mut self, name: &str, chunks: WorkingRelation) {
        let rows: usize = chunks.iter().map(Chunk::len).sum();
        self.stats.observe_working_rows(rows);
        if self.profile.is_some() {
            let bytes: usize = chunks.iter().map(Chunk::heap_bytes).sum();
            self.profile_mem(bytes as u64);
        }
        self.bindings += 1;
        self.working
            .entry(name.to_owned())
            .or_default()
            .push((self.bindings, chunks));
    }

    /// Pop the innermost working relation for `name`, returning its
    /// binding id (`0` if there was none).
    pub fn pop_working(&mut self, name: &str) -> u64 {
        let Some(stack) = self.working.get_mut(name) else {
            return 0;
        };
        let popped = stack.pop().map_or(0, |(id, _)| id);
        if stack.is_empty() {
            self.working.remove(name);
        }
        popped
    }

    /// Binding id of the innermost working relation for `name` (`0` if
    /// unbound): equal ids mean the same generation of the table.
    pub fn binding_id(&self, name: &str) -> u64 {
        self.working
            .get(name)
            .and_then(|s| s.last())
            .map_or(0, |(id, _)| *id)
    }

    /// Read the innermost working relation for `name`.
    pub fn read_working(&self, name: &str) -> Result<WorkingRelation> {
        self.working
            .get(name)
            .and_then(|s| s.last())
            .map(|(_, rel)| Arc::clone(rel))
            .ok_or_else(|| {
                HyError::Execution(format!(
                    "working table '{name}' referenced outside its iteration construct"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector;

    #[test]
    fn working_table_stack() {
        let mut ctx = ExecContext::new(Arc::new(Catalog::new()));
        assert!(ctx.read_working("iterate").is_err());
        let a = Arc::new(vec![Chunk::new(vec![ColumnVector::from_i64(vec![1])])]);
        let b = Arc::new(vec![Chunk::new(vec![ColumnVector::from_i64(vec![2, 3])])]);
        ctx.push_working("iterate", a);
        ctx.push_working("iterate", Arc::clone(&b));
        assert_eq!(ctx.read_working("iterate").unwrap()[0].len(), 2);
        ctx.pop_working("iterate");
        assert_eq!(ctx.read_working("iterate").unwrap()[0].len(), 1);
        ctx.pop_working("iterate");
        assert!(ctx.read_working("iterate").is_err());
    }

    #[test]
    fn one_snapshot_per_table_per_statement() {
        use hylite_common::{DataType, Field, Schema};
        let catalog = Arc::new(Catalog::new());
        let schema = Schema::new(vec![Field::new("x", DataType::Int64)]);
        let t = catalog.create_table("t", schema).unwrap();
        let commit = |values: &[i64]| {
            let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![Value::Int(*v)]).collect();
            t.write().insert_rows(&rows).unwrap();
            t.write().commit();
        };
        commit(&[1, 2, 3]);
        let mut statement = ExecContext::new(Arc::clone(&catalog));
        let first = statement.snapshot("t").unwrap();
        assert_eq!(first.live_rows(), 3);
        // Another session commits while the statement is still running.
        commit(&[4, 5]);
        let second = statement.snapshot("T").unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "a statement reads one version of a table, however often it scans it"
        );
        assert_eq!(second.live_rows(), 3);
        let mut next = ExecContext::new(catalog);
        assert_eq!(next.snapshot("t").unwrap().live_rows(), 5);
    }

    #[test]
    fn stats_track_peak() {
        let mut ctx = ExecContext::new(Arc::new(Catalog::new()));
        let big = Arc::new(vec![Chunk::new(vec![ColumnVector::from_i64(vec![0; 100])])]);
        let small = Arc::new(vec![Chunk::new(vec![ColumnVector::from_i64(vec![0; 5])])]);
        ctx.push_working("w", big);
        ctx.pop_working("w");
        ctx.push_working("w", small);
        assert_eq!(ctx.stats.peak_working_rows, 100);
    }
}
