//! The plan interpreter.

use std::collections::HashMap;
use std::sync::Arc;

use hylite_common::{Chunk, DataType, HyError, Result};
use hylite_expr::ScalarExpr;
use hylite_planner::{JoinKind, LogicalPlan, Rules};

use crate::aggregate;
use crate::context::ExecContext;
use crate::join::{self, JoinBuild};
use crate::keys::{GroupIndex, KeyLayout};
use crate::reuse::ReuseTable;
use crate::scan;
use crate::sort;
use crate::util;

/// Executes bound, optimized logical plans against an [`ExecContext`].
pub struct Executor {
    /// The execution context (catalog handle, working tables, stats).
    pub ctx: ExecContext,
    /// What the running statement keeps and shares (`reuse.rs`).
    reuse: ReuseTable,
    /// Open `execute` calls; 0 means the next call is a statement's root.
    depth: usize,
    /// The largest `groups` / `build_rows` each node has noted (profiling).
    sizes: HashMap<(usize, &'static str), usize>,
}

impl Executor {
    /// Executor over a context.
    pub fn new(ctx: ExecContext) -> Executor {
        Executor {
            ctx,
            reuse: ReuseTable::default(),
            depth: 0,
            sizes: HashMap::new(),
        }
    }

    /// Execute a plan to a materialized chunk stream.
    ///
    /// The root call of a statement first analyses the plan for work it
    /// would repeat (unless `plan_reuse` is off): repeated sub-plans and
    /// loop-invariant parts of ITERATE / recursive-CTE bodies then run
    /// once and are served from the statement's reuse table afterwards.
    ///
    /// Every (sub)plan execution is a governor check point: a cancelled,
    /// timed-out, or over-budget statement aborts before the node runs.
    /// When the statement has a memory budget, each node's materialized
    /// output is charged against it and released once the parent operator
    /// has produced its own output (the children's intermediates are dead
    /// by then) — see [`ExecContext::reserve_output`]. A result the reuse
    /// table keeps is charged a second time, for as long as it is kept;
    /// the first node that runs out of budget makes the table give
    /// everything back, and runs again.
    ///
    /// When profiling is enabled on the context, every (sub)plan
    /// execution is additionally bracketed by a span recording output
    /// rows/chunks, wall time and an estimate of the materialized output
    /// size. Repeated executions of the same node (loop bodies) fold into
    /// one span — see [`hylite_common::telemetry::ProfileBuilder`]. A node
    /// served from its own kept result opens no span, so `calls` counts
    /// real executions and `reused` the times they were saved.
    pub fn execute(&mut self, plan: &LogicalPlan) -> Result<Vec<Chunk>> {
        if self.depth == 0 && self.ctx.plan_reuse() {
            self.reuse = ReuseTable::analyze(plan);
        }
        self.depth += 1;
        let result = self.execute_governed(plan);
        self.depth -= 1;
        if self.depth == 0 {
            self.reuse.finish(&mut self.ctx);
        }
        result
    }

    fn execute_governed(&mut self, plan: &LogicalPlan) -> Result<Vec<Chunk>> {
        self.ctx.check_governor()?;
        let role = if self.reuse.is_empty() {
            None
        } else {
            self.reuse.role(plan).copied()
        };
        let kept = role.and_then(|r| self.reuse.result(r.result?, &self.ctx));
        // A node served from the result it computed itself is not a call.
        let own = matches!(&kept, Some((_, owner)) if *owner == plan.node_id());
        let profiling = self.ctx.profiling() && !own;
        self.bracket(plan, profiling, |s| match kept {
            Some((chunks, _)) => {
                if profiling {
                    s.ctx.profile_note("from_reuse", "yes");
                }
                Ok(chunks)
            }
            None => {
                let mut result = s.execute_node(plan, role.and_then(|r| r.build));
                // Out of budget while the reuse table holds memory: it
                // gives all of it back and the node runs again as written.
                if over_budget(&result) && s.reuse.surrender(&s.ctx) {
                    s.ctx.pop_mem_frame();
                    s.ctx.push_mem_frame();
                    result = s.execute_node(plan, None);
                }
                if let (Ok(chunks), Some(slot)) = (&result, role.and_then(|r| r.result)) {
                    s.reuse.keep_result(slot, plan.node_id(), chunks, &s.ctx);
                }
                result
            }
        })
    }

    /// Run `body` as an execution of `plan`: in the node's profile span
    /// when `profiling`, and in a memory frame of its own whose children's
    /// outputs are released when it ends, its own output charged instead.
    fn bracket(
        &mut self,
        plan: &LogicalPlan,
        profiling: bool,
        body: impl FnOnce(&mut Self) -> Result<Vec<Chunk>>,
    ) -> Result<Vec<Chunk>> {
        if profiling {
            self.ctx.profile_enter(plan.node_id(), plan.op_name());
        }
        let budgeted = self.ctx.governor().budget().limit() != u64::MAX;
        if budgeted {
            self.ctx.push_mem_frame();
        }
        let mut result = body(self);
        if budgeted {
            self.ctx.pop_mem_frame();
            if let Ok(chunks) = &result {
                let bytes = util::heap_bytes(chunks);
                let mut reserved = self.ctx.reserve_output(bytes);
                if over_budget(&reserved) && self.reuse.surrender(&self.ctx) {
                    reserved = self.ctx.reserve_output(bytes);
                }
                if let Err(e) = reserved {
                    result = Err(e);
                }
            }
        }
        if profiling {
            match &result {
                Ok(chunks) => {
                    self.ctx.profile_mem(util::heap_bytes(chunks));
                    self.ctx
                        .profile_exit(util::total_rows(chunks) as u64, chunks.len() as u64);
                }
                Err(_) => self.ctx.profile_exit(0, 0),
            }
        }
        result
    }

    /// The input of an aggregate keyed on `group_exprs`, and the length of
    /// the runs of rows that share their keys in it. `π(P × C)` keyed on
    /// P's columns only, with C of 1 to [`join::RBLOCK`] rows, comes from
    /// [`join::broadcast`] without the product being built, in runs of |C|
    /// (a C of any other size gets the product). Anything else — another
    /// shape, a projection or product the reuse table has a role for,
    /// [`Rules::BROADCAST_CROSS`] off — runs as written, in runs of one.
    fn aggregate_input(
        &mut self,
        project: &LogicalPlan,
        group_exprs: &[ScalarExpr],
    ) -> Result<(Vec<Chunk>, usize)> {
        let LogicalPlan::Project { input, exprs, .. } = project else {
            return Ok((self.execute(project)?, 1));
        };
        let cross = matches!(**input, LogicalPlan::Join { kind, .. } if kind == JoinKind::Cross);
        let mut sides = input.children();
        let (Some(left), Some(right)) = (sides.next(), sides.next()) else {
            return Ok((self.execute(project)?, 1));
        };
        let width = left.schema().len();
        let (mut keys, mut read) = (Vec::new(), Vec::new());
        group_exprs
            .iter()
            .for_each(|e| e.referenced_columns(&mut keys));
        keys.iter()
            .for_each(|&k| exprs[k].referenced_columns(&mut read));
        let free = [project, input]
            .iter()
            .all(|n| self.reuse.role(n).is_none());
        let keyed_on_left = read.iter().all(|&c| c < width) && !exprs.is_empty();
        let unconditioned = input.expressions().next().is_none();
        let on = self.ctx.rules.has(Rules::BROADCAST_CROSS);
        if !(cross && unconditioned && keyed_on_left && free && on) {
            return Ok((self.execute(project)?, 1));
        }
        let (profiling, mut runs) = (self.ctx.profiling(), None);
        let chunks = self.bracket(project, profiling, |s| {
            let product = s.bracket(input, profiling, |s| {
                let l = s.execute(left)?;
                let types = right.schema().types();
                let r = Chunk::concat(&types, &s.execute(right)?)?;
                if !(1..=join::RBLOCK).contains(&r.len()) {
                    s.note_size(input, "build_rows", r.len());
                    return join::nested_loop(&l, &r, JoinKind::Cross, None, &types);
                }
                s.ctx.profile_note("cross", "broadcast");
                runs = Some(r.len());
                join::broadcast(&l, &r, exprs, width)
            })?;
            match runs {
                Some(_) => Ok(product),
                None => util::project(&product, exprs),
            }
        })?;
        Ok((chunks, runs.unwrap_or(1)))
    }

    /// End a working-table binding: what the reuse table computed under it
    /// dies with it.
    pub(crate) fn pop_working(&mut self, name: &str) {
        let binding = self.ctx.pop_working(name);
        if !self.reuse.is_empty() {
            self.reuse.binding_popped(binding, &self.ctx);
        }
    }

    /// A loop node ran to its end: what the reuse table held for the loop
    /// is released, not carried to the end of the statement.
    fn loop_ended(&mut self, plan: &LogicalPlan) {
        if !self.reuse.is_empty() {
            self.reuse.loop_ended(plan.node_id(), &self.ctx);
        }
    }

    /// DISTINCT / UNION: the first occurrence of every row.
    fn distinct(
        &mut self,
        plan: &LogicalPlan,
        chunks: &[Chunk],
        types: &[DataType],
    ) -> Result<Vec<Chunk>> {
        let governor = Arc::clone(self.ctx.governor());
        let (out, seen) = aggregate::distinct(KeyLayout::new, chunks, types, &governor)?;
        self.note_keys(plan, &seen, true);
        Ok(out)
    }

    /// Note a hash operator's index on its profile span (`[keys=fixed|bytes]`,
    /// `[groups=N]`); one `built` off the fixed layout counts in the registry.
    fn note_keys(&mut self, plan: &LogicalPlan, index: &GroupIndex, built: bool) {
        self.ctx.profile_note("keys", index.layout_name());
        self.note_size(plan, "groups", index.len());
        if built && index.layout_name() == "bytes" {
            let counter = self.ctx.metrics().counter("exec.hash_keys_bytes_layout");
            counter.inc();
        }
    }

    /// Note a hash table's size on `plan`'s span: the largest over the
    /// node's calls, as a loop body's last round may run on no rows.
    fn note_size(&mut self, plan: &LogicalPlan, key: &'static str, size: usize) {
        if self.ctx.profiling() {
            let largest = self.sizes.entry((plan.node_id(), key)).or_default();
            *largest = size.max(*largest);
            self.ctx.profile_note(key, *largest);
        }
    }

    /// Single-operator dispatch (no profiling bookkeeping).
    /// `build_slot` is the reuse-table slot for a join's built right side.
    fn execute_node(
        &mut self,
        plan: &LogicalPlan,
        build_slot: Option<usize>,
    ) -> Result<Vec<Chunk>> {
        match plan {
            LogicalPlan::TableScan {
                table,
                projection,
                filter,
                ..
            } => {
                let snapshot = self.ctx.snapshot(table)?;
                let governor = Arc::clone(self.ctx.governor());
                let (chunks, pruning) = scan::scan_pruned(
                    &snapshot,
                    projection.as_deref(),
                    filter.as_ref(),
                    &governor,
                    self.ctx.encoded_scan(),
                )?;
                for (metric, count) in [
                    ("scan.blocks_scanned", pruning.blocks_scanned),
                    ("scan.blocks_pruned", pruning.blocks_pruned),
                    (
                        "scan.blocks_skipped_encoded",
                        pruning.blocks_skipped_encoded,
                    ),
                    ("scan.rows_selected", pruning.rows_selected),
                ] {
                    self.ctx.profile_note(&metric["scan.".len()..], count);
                    self.ctx.metrics().counter(metric).add(count as u64);
                }
                Ok(chunks)
            }
            LogicalPlan::Values { schema, rows } => {
                let types = schema.types();
                Ok(vec![Chunk::from_rows(&types, rows)?])
            }
            LogicalPlan::SystemScan { view, schema } => {
                let rows = self.ctx.scan_system_view(*view);
                let types = schema.types();
                Ok(vec![Chunk::from_rows(&types, &rows)?])
            }
            LogicalPlan::Empty { .. } => Ok(vec![Chunk::zero_column(1)]),
            LogicalPlan::WorkingTable { name, .. } => {
                let rel = self.ctx.read_working(name)?;
                Ok(rel.as_ref().clone())
            }
            LogicalPlan::Filter { input, predicate } => {
                let chunks = self.execute(input)?;
                let out = chunks.iter().map(|c| util::apply_predicate(c, predicate));
                out.filter(|r| !matches!(r, Ok(c) if c.is_empty()))
                    .collect()
            }
            LogicalPlan::Project { input, exprs, .. } => {
                util::project(&self.execute(input)?, exprs)
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                ..
            } => {
                let l = self.execute(left)?;
                let kept = build_slot.and_then(|slot| self.reuse.build(slot, &self.ctx));
                let (build, built) = match kept {
                    Some((build, hits)) => {
                        self.ctx.profile_note("build_reused", hits);
                        (build, false)
                    }
                    None => {
                        let r = self.execute(right)?;
                        let build = Arc::new(JoinBuild::new(
                            KeyLayout::new,
                            &r,
                            condition.as_ref(),
                            left.schema().len(),
                            &right.schema().types(),
                        )?);
                        if let Some(slot) = build_slot {
                            self.reuse
                                .keep_build(slot, plan.node_id(), &build, &self.ctx);
                        }
                        (build, true)
                    }
                };
                if let Some(index) = build.index() {
                    self.note_keys(plan, index, built);
                }
                self.note_size(plan, "build_rows", build.build_rows());
                build.probe(&l, *kind)
            }
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                at_best,
                schema,
            } => {
                let (chunks, runs) = self.aggregate_input(input, group_exprs)?;
                let governor = Arc::clone(self.ctx.governor());
                let (out, index) = aggregate::aggregate(
                    KeyLayout::new,
                    &chunks,
                    runs,
                    group_exprs,
                    aggregates,
                    at_best.as_ref(),
                    &schema.types(),
                    &governor,
                )?;
                if !group_exprs.is_empty() {
                    self.note_keys(plan, &index, true);
                }
                Ok(out)
            }
            LogicalPlan::Sort { input, keys } => {
                let chunks = self.execute(input)?;
                sort::sort(&chunks, keys, &input.schema().types())
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let chunks = self.execute(input)?;
                Ok(sort::limit(chunks, *limit, *offset))
            }
            LogicalPlan::Union {
                inputs,
                all,
                schema,
            } => {
                let mut chunks = Vec::new();
                for i in inputs {
                    chunks.extend(self.execute(i)?);
                }
                if *all {
                    Ok(chunks)
                } else {
                    self.distinct(plan, &chunks, &schema.types())
                }
            }
            LogicalPlan::Distinct { input } => {
                let chunks = self.execute(input)?;
                self.distinct(plan, &chunks, &input.schema().types())
            }
            LogicalPlan::RecursiveCte {
                name,
                init,
                step,
                all,
                ..
            } => {
                let result = self.exec_recursive_cte(name, init, step, *all);
                self.loop_ended(plan);
                result
            }
            LogicalPlan::Iterate {
                init,
                step,
                stop,
                max_iterations,
                ..
            } => {
                let result = self.exec_iterate(init, step, stop, *max_iterations);
                self.loop_ended(plan);
                result
            }
            LogicalPlan::Operator { op, inputs, schema } => {
                self.exec_operator(op, inputs, &schema.types())
            }
        }
    }
}

fn over_budget<T>(result: &Result<T>) -> bool {
    matches!(result, Err(HyError::BudgetExceeded(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Field, Schema, Value};
    use hylite_expr::{BinaryOp, ScalarExpr};
    use hylite_planner::{AnalyticsOp, JoinKind, SortKey};
    use hylite_storage::Catalog;

    fn setup() -> (Arc<Catalog>, Arc<Schema>) {
        let catalog = Arc::new(Catalog::new());
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        let t = catalog.create_table("t", schema.clone()).unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        t.write().insert_rows(&rows).unwrap();
        t.write().commit();
        (catalog, Arc::new(schema))
    }

    fn scan_plan(schema: &Arc<Schema>) -> LogicalPlan {
        LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Arc::clone(schema),
            projection: None,
            filter: None,
            schema: Arc::clone(schema),
        }
    }

    fn exec(catalog: &Arc<Catalog>, plan: &LogicalPlan) -> Vec<Chunk> {
        let mut e = Executor::new(ExecContext::new(Arc::clone(catalog)));
        e.execute(plan).unwrap()
    }

    #[test]
    fn scan_filter_project_pipeline() {
        let (catalog, schema) = setup();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan_plan(&schema)),
                predicate: ScalarExpr::binary(
                    BinaryOp::Lt,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(5i64),
                )
                .unwrap(),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Mul,
                ScalarExpr::column(1, DataType::Float64),
                ScalarExpr::literal(2.0f64),
            )
            .unwrap()],
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)])),
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&[DataType::Float64], &out).unwrap();
        assert_eq!(
            total.column(0).as_f64().unwrap(),
            &[0.0, 2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn empty_produces_one_row() {
        let (catalog, _) = setup();
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Empty {
                schema: Arc::new(Schema::empty()),
            }),
            exprs: vec![ScalarExpr::literal(42i64)],
            schema: Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)])),
        };
        let out = exec(&catalog, &plan);
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0].column(0).value(0), Value::Int(42));
    }

    #[test]
    fn sort_limit() {
        let (catalog, schema) = setup();
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan_plan(&schema)),
                keys: vec![SortKey {
                    expr: ScalarExpr::column(0, DataType::Int64),
                    asc: false,
                }],
            }),
            limit: Some(3),
            offset: 1,
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&schema.types(), &out).unwrap();
        assert_eq!(total.column(0).as_i64().unwrap(), &[98, 97, 96]);
    }

    #[test]
    fn self_join() {
        let (catalog, schema) = setup();
        let join_schema = Arc::new(schema.join(&schema));
        let plan = LogicalPlan::Join {
            left: Box::new(scan_plan(&schema)),
            right: Box::new(scan_plan(&schema)),
            kind: JoinKind::Inner,
            condition: Some(
                ScalarExpr::binary(
                    BinaryOp::Eq,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::column(2, DataType::Int64),
                )
                .unwrap(),
            ),
            schema: join_schema,
        };
        let out = exec(&catalog, &plan);
        assert_eq!(util::total_rows(&out), 100);
    }

    #[test]
    fn iterate_paper_listing_1() {
        // ITERATE((SELECT 7), (SELECT x+7), (SELECT x WHERE x >= 100))
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(7)]],
        };
        let working = LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: Arc::clone(&int_schema),
        };
        let step = LogicalPlan::Project {
            input: Box::new(working.clone()),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(7i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let stop = LogicalPlan::Filter {
            input: Box::new(working),
            predicate: ScalarExpr::binary(
                BinaryOp::GtEq,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(100i64),
            )
            .unwrap(),
        };
        let plan = LogicalPlan::Iterate {
            init: Box::new(init),
            step: Box::new(step),
            stop: Box::new(stop),
            max_iterations: 1000,
            schema: int_schema,
        };
        let out = exec(&catalog, &plan);
        let total = Chunk::concat(&[DataType::Int64], &out).unwrap();
        // Smallest three-digit multiple of seven.
        assert_eq!(total.column(0).as_i64().unwrap(), &[105]);
    }

    #[test]
    fn iterate_memory_is_non_appending() {
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: (0..50).map(|i| vec![Value::Int(i)]).collect(),
        };
        let working = LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: Arc::clone(&int_schema),
        };
        let step = LogicalPlan::Project {
            input: Box::new(working.clone()),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let stop = LogicalPlan::Filter {
            input: Box::new(working),
            predicate: ScalarExpr::binary(
                BinaryOp::GtEq,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1000i64),
            )
            .unwrap(),
        };
        let plan = LogicalPlan::Iterate {
            init: Box::new(init),
            step: Box::new(step),
            stop: Box::new(stop),
            max_iterations: 10_000,
            schema: int_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(util::total_rows(&out), 50);
        // §5.1: at most 2·n live tuples regardless of iteration count.
        assert!(
            e.ctx.stats.peak_working_rows <= 100,
            "peak {} exceeds 2n",
            e.ctx.stats.peak_working_rows
        );
        assert!(e.ctx.stats.iterations > 900);
    }

    /// `UNION ALL` of a loop that keeps its invariant join build and a
    /// branch that needs more memory than the loop ever did: what the loop
    /// kept is released when the loop ends, so the statement peaks where it
    /// does with `plan_reuse` off.
    #[test]
    fn kept_data_is_released_when_its_loop_ends() {
        use hylite_common::governor::{CancelToken, Governor};
        let (catalog, schema) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let id = || ScalarExpr::column(0, DataType::Int64);
        // Two spellings, so the branches have no sub-plan in common.
        let all_of_t = |least: i64| LogicalPlan::Filter {
            input: Box::new(scan_plan(&schema)),
            predicate: ScalarExpr::binary(BinaryOp::GtEq, id(), ScalarExpr::literal(least))
                .unwrap(),
        };
        let working = || LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: Arc::clone(&int_schema),
        };
        let plus_one = ScalarExpr::binary(BinaryOp::Add, id(), ScalarExpr::literal(1i64)).unwrap();
        let looping = LogicalPlan::Iterate {
            init: Box::new(LogicalPlan::Values {
                schema: Arc::clone(&int_schema),
                rows: vec![vec![Value::Int(0)]],
            }),
            step: Box::new(LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(LogicalPlan::Join {
                        left: Box::new(working()),
                        right: Box::new(all_of_t(0)),
                        kind: JoinKind::Cross,
                        condition: None,
                        schema: Arc::new(int_schema.join(&schema)),
                    }),
                    exprs: vec![plus_one.clone()],
                    schema: Arc::clone(&int_schema),
                }),
                limit: Some(1),
                offset: 0,
            }),
            stop: Box::new(LogicalPlan::Filter {
                input: Box::new(working()),
                predicate: ScalarExpr::binary(BinaryOp::GtEq, id(), ScalarExpr::literal(4i64))
                    .unwrap(),
            }),
            max_iterations: 100,
            schema: Arc::clone(&int_schema),
        };
        let wide_schema = Arc::new(Schema::new(
            (0..40)
                .map(|i| Field::new(format!("c{i}"), DataType::Int64))
                .collect(),
        ));
        let hungry = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(all_of_t(-1)),
                    exprs: vec![plus_one; 40],
                    schema: wide_schema,
                }),
                exprs: vec![id()],
                schema: Arc::clone(&int_schema),
            }),
            limit: Some(1),
            offset: 0,
        };
        let plan = LogicalPlan::Union {
            inputs: vec![looping, hungry],
            all: true,
            schema: int_schema,
        };
        let peak = |reuse: bool| {
            let governor = Arc::new(Governor::new(
                Arc::new(CancelToken::new()),
                None,
                Some(1 << 30),
            ));
            let ctx = ExecContext::new(Arc::clone(&catalog))
                .with_governor(Arc::clone(&governor))
                .with_plan_reuse(reuse);
            let hits = ctx.metrics().counter("exec.join_build_reuse_hits");
            let out = Executor::new(ctx).execute(&plan).unwrap();
            assert_eq!(util::total_rows(&out), 2);
            let budget = governor.budget();
            (budget.peak(), budget.reserved(), hits.get())
        };
        let (off, left_off, no_hits) = peak(false);
        let (on, left_on, hits) = peak(true);
        assert_eq!(no_hits, 0);
        assert_eq!(hits, 3, "the build of `t` serves iterations 2 to 4");
        assert_eq!(on, off, "the loop's kept build outlived the loop");
        assert_eq!(left_on, left_off, "a kept value is still charged");
    }

    #[test]
    fn recursive_cte_union_all_counts() {
        // WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 WHERE n<10)
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(1)]],
        };
        let step = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(LogicalPlan::WorkingTable {
                    name: "r".into(),
                    schema: Arc::clone(&int_schema),
                }),
                predicate: ScalarExpr::binary(
                    BinaryOp::Lt,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(10i64),
                )
                .unwrap(),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Add,
                ScalarExpr::column(0, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let plan = LogicalPlan::RecursiveCte {
            name: "r".into(),
            init: Box::new(init),
            step: Box::new(step),
            all: true,
            schema: int_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        let total = Chunk::concat(&[DataType::Int64], &out).unwrap();
        let mut got: Vec<i64> = total.column(0).as_i64().unwrap().to_vec();
        got.sort_unstable();
        assert_eq!(got, (1..=10).collect::<Vec<i64>>());
        // Appending semantics: the peak intermediate is the full result.
        assert!(e.ctx.stats.peak_working_rows >= 10);
    }

    #[test]
    fn recursive_cte_union_dedups_to_fixpoint() {
        // Step produces an already-seen value → fixpoint terminates even
        // though the step never returns empty on its own.
        let (catalog, _) = setup();
        let int_schema = Arc::new(Schema::new(vec![Field::new("n", DataType::Int64)]));
        let init = LogicalPlan::Values {
            schema: Arc::clone(&int_schema),
            rows: vec![vec![Value::Int(0)]],
        };
        // step: SELECT (n+1) % 5 FROM r
        let step = LogicalPlan::Project {
            input: Box::new(LogicalPlan::WorkingTable {
                name: "r".into(),
                schema: Arc::clone(&int_schema),
            }),
            exprs: vec![ScalarExpr::binary(
                BinaryOp::Mod,
                ScalarExpr::binary(
                    BinaryOp::Add,
                    ScalarExpr::column(0, DataType::Int64),
                    ScalarExpr::literal(1i64),
                )
                .unwrap(),
                ScalarExpr::literal(5i64),
            )
            .unwrap()],
            schema: Arc::clone(&int_schema),
        };
        let plan = LogicalPlan::RecursiveCte {
            name: "r".into(),
            init: Box::new(init),
            step: Box::new(step),
            all: false,
            schema: int_schema,
        };
        let (catalog2, _) = (catalog, ());
        let mut e = Executor::new(ExecContext::new(catalog2));
        let out = e.execute(&plan).unwrap();
        assert_eq!(util::total_rows(&out), 5);
    }

    #[test]
    fn kmeans_operator_end_to_end() {
        let catalog = Arc::new(Catalog::new());
        let schema = Arc::new(Schema::new(vec![
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
        ]));
        let data = LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Float(0.0), Value::Float(0.0)],
                vec![Value::Float(0.2), Value::Float(0.1)],
                vec![Value::Float(9.0), Value::Float(9.0)],
                vec![Value::Float(9.2), Value::Float(9.1)],
            ],
        };
        let centers = LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: vec![
                vec![Value::Float(1.0), Value::Float(1.0)],
                vec![Value::Float(8.0), Value::Float(8.0)],
            ],
        };
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("cluster_id", DataType::Int64),
            Field::new("x", DataType::Float64),
            Field::new("y", DataType::Float64),
            Field::new("size", DataType::Int64),
        ]));
        let plan = LogicalPlan::Operator {
            op: AnalyticsOp::KMeans {
                lambda: None,
                max_iterations: 10,
            },
            inputs: vec![data, centers],
            schema: out_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0].column(3).as_i64().unwrap(), &[2, 2]);
    }

    #[test]
    fn pagerank_operator_end_to_end() {
        let catalog = Arc::new(Catalog::new());
        let edge_schema = Arc::new(Schema::new(vec![
            Field::new("src", DataType::Int64),
            Field::new("dest", DataType::Int64),
        ]));
        // 4-cycle.
        let edges = LogicalPlan::Values {
            schema: Arc::clone(&edge_schema),
            rows: vec![
                vec![Value::Int(10), Value::Int(20)],
                vec![Value::Int(20), Value::Int(30)],
                vec![Value::Int(30), Value::Int(40)],
                vec![Value::Int(40), Value::Int(10)],
            ],
        };
        let out_schema = Arc::new(Schema::new(vec![
            Field::new("vertex", DataType::Int64),
            Field::new("rank", DataType::Float64),
        ]));
        let plan = LogicalPlan::Operator {
            op: AnalyticsOp::PageRank {
                weighted: false,
                damping: 0.85,
                epsilon: 1e-9,
                max_iterations: 100,
            },
            inputs: vec![edges],
            schema: out_schema,
        };
        let mut e = Executor::new(ExecContext::new(catalog));
        let out = e.execute(&plan).unwrap();
        assert_eq!(out[0].len(), 4);
        let mut vertices: Vec<i64> = out[0].column(0).as_i64().unwrap().to_vec();
        vertices.sort_unstable();
        assert_eq!(vertices, vec![10, 20, 30, 40], "reverse mapping works");
        for &r in out[0].column(1).as_f64().unwrap() {
            assert!((r - 0.25).abs() < 1e-6);
        }
    }
}
