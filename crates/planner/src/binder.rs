//! The binder: resolves names, infers types, and lowers the AST into a
//! [`LogicalPlan`].
//!
//! The binder tracks a *scope schema* for each FROM subtree separately
//! from the plan's own output schema: both have identical column order
//! and types, but the scope schema carries the qualifiers (aliases) that
//! column references resolve against. This avoids re-qualification
//! projections on the hot path.

use std::collections::HashMap;
use std::sync::Arc;

use hylite_common::{DataType, Field, HyError, Result, Row, Schema, SchemaRef, Value};
use hylite_expr::{BoundLambda, ScalarExpr};
use hylite_sql::ast::{
    Cte, Expr, JoinKind as AstJoinKind, Lambda, OrderByExpr, Query, Select, SelectItem, SetExpr,
    SetValue, Statement, TableFunc, TableRef,
};
use hylite_storage::Catalog;

use crate::expr_binder::{contains_aggregate, ExprBinder};
use crate::logical::{AnalyticsOp, JoinKind, LogicalPlan, SortKey};

/// Default iteration cap for ITERATE / recursive CTEs — the paper's
/// infinite-loop guard (§5.1: "those situations need to be detected and
/// aborted by the database system").
pub const DEFAULT_MAX_ITERATIONS: usize = 1_000_000;

/// Default PageRank iteration cap when the query gives none.
pub const DEFAULT_PAGERANK_ITERATIONS: usize = 100;

/// Default k-Means iteration cap when the query gives none.
pub const DEFAULT_KMEANS_ITERATIONS: usize = 100;

/// A bound statement, ready for execution.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// A query producing a relation.
    Query(LogicalPlan),
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Schema.
        schema: Schema,
        /// IF NOT EXISTS.
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS.
        if_exists: bool,
    },
    /// INSERT with a bound source producing exactly the table's schema.
    Insert {
        /// Target table.
        table: String,
        /// Source plan (already cast/reordered to the table schema).
        source: LogicalPlan,
    },
    /// UPDATE.
    Update {
        /// Target table.
        table: String,
        /// Per-table-column new-value expressions (over the table schema);
        /// identity for unassigned columns.
        exprs: Vec<ScalarExpr>,
        /// Filter over the table schema (rows to update).
        filter: Option<ScalarExpr>,
    },
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
        /// Filter over the table schema (rows to delete).
        filter: Option<ScalarExpr>,
    },
    /// BEGIN.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
    /// `SET <setting> = <value>` — validated session knob assignment; the
    /// session layer interprets the name.
    Set {
        /// Setting name (lower-cased).
        name: String,
        /// The value; the session checks it against the setting.
        value: SetValue,
    },
    /// `EXPLAIN [ANALYZE]` of a bound statement.
    Explain {
        /// The statement being explained.
        statement: Box<BoundStatement>,
        /// Whether to execute it and report actual operator statistics.
        analyze: bool,
    },
    /// `BACKUP TO 'dir' [FROM 'base'] [VERIFY]` — executed by the session
    /// layer against the database's durability engine.
    Backup {
        /// Destination directory.
        dir: String,
        /// Optional incremental base backup directory.
        base: Option<String>,
        /// Whether to re-read every copied file before completion.
        verify: bool,
    },
}

/// Name-resolution and lowering context.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    /// Working tables in scope (`iterate`, recursive CTE bodies),
    /// innermost last.
    working: Vec<(String, SchemaRef)>,
    /// CTE definitions in scope, innermost last.
    ctes: Vec<HashMap<String, (LogicalPlan, SchemaRef)>>,
}

impl<'a> Binder<'a> {
    /// Binder over a catalog.
    pub fn new(catalog: &'a Catalog) -> Binder<'a> {
        Binder {
            catalog,
            working: Vec::new(),
            ctes: Vec::new(),
        }
    }

    /// Bind a top-level statement.
    pub fn bind_statement(&mut self, stmt: &Statement) -> Result<BoundStatement> {
        match stmt {
            Statement::Query(q) => Ok(BoundStatement::Query(self.bind_query(q)?.0)),
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                let mut seen = std::collections::HashSet::new();
                for (c, _) in columns {
                    if !seen.insert(c.clone()) {
                        return Err(HyError::Bind(format!(
                            "duplicate column '{c}' in CREATE TABLE"
                        )));
                    }
                }
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|(n, t)| Field::new(n.clone(), *t))
                        .collect(),
                );
                Ok(BoundStatement::CreateTable {
                    name: name.clone(),
                    schema,
                    if_not_exists: *if_not_exists,
                })
            }
            Statement::DropTable { name, if_exists } => Ok(BoundStatement::DropTable {
                name: name.clone(),
                if_exists: *if_exists,
            }),
            Statement::Insert {
                table,
                columns,
                source,
            } => self.bind_insert(table, columns.as_deref(), source),
            Statement::Update {
                table,
                assignments,
                filter,
            } => self.bind_update(table, assignments, filter.as_ref()),
            Statement::Delete { table, filter } => {
                let t = self.catalog.get_table(table)?;
                let schema = Arc::clone(t.read().schema());
                let filter = match filter {
                    Some(f) => Some(bind_predicate(&schema, f)?),
                    None => None,
                };
                Ok(BoundStatement::Delete {
                    table: table.clone(),
                    filter,
                })
            }
            Statement::Begin => Ok(BoundStatement::Begin),
            Statement::Commit => Ok(BoundStatement::Commit),
            Statement::Rollback => Ok(BoundStatement::Rollback),
            Statement::Set { name, value } => Ok(BoundStatement::Set {
                name: name.clone(),
                value: *value,
            }),
            Statement::Explain { statement, analyze } => Ok(BoundStatement::Explain {
                statement: Box::new(self.bind_statement(statement)?),
                analyze: *analyze,
            }),
            Statement::Backup { dir, base, verify } => {
                if dir.is_empty() {
                    return Err(HyError::Bind(
                        "BACKUP TO: destination directory must not be empty".into(),
                    ));
                }
                Ok(BoundStatement::Backup {
                    dir: dir.clone(),
                    base: base.clone(),
                    verify: *verify,
                })
            }
        }
    }

    fn bind_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        source: &Query,
    ) -> Result<BoundStatement> {
        let t = self.catalog.get_table(table)?;
        let table_schema = Arc::clone(t.read().schema());
        let (plan, plan_schema) = self.bind_query(source)?;
        // Map each table column to a source column (by position within the
        // explicit column list) or a NULL default. A listed column must
        // exist and be listed once.
        let provided: Vec<String> = match columns {
            Some(cols) => {
                let mut provided = Vec::with_capacity(cols.len());
                for c in cols.iter().map(|c| c.to_ascii_lowercase()) {
                    table_schema.index_of(&c)?;
                    if provided.contains(&c) {
                        return Err(HyError::Bind(format!("duplicate column '{c}' in INSERT")));
                    }
                    provided.push(c);
                }
                provided
            }
            None => table_schema
                .fields()
                .iter()
                .map(|f| f.name.clone())
                .collect(),
        };
        if provided.len() != plan_schema.len() {
            return Err(HyError::Bind(format!(
                "INSERT provides {} columns but source has {}",
                provided.len(),
                plan_schema.len()
            )));
        }
        let fields = table_schema.fields().iter();
        let sources = fields.map(|f| provided.iter().position(|c| *c == f.name));
        let schema = Arc::new(table_schema.without_qualifiers());
        Ok(BoundStatement::Insert {
            table: table.to_owned(),
            source: cast_projection(plan, &plan_schema, sources, &schema),
        })
    }

    fn bind_update(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        filter: Option<&Expr>,
    ) -> Result<BoundStatement> {
        let t = self.catalog.get_table(table)?;
        let schema = Arc::clone(t.read().schema());
        let mut binder = ExprBinder::new(&schema);
        let mut exprs: Vec<ScalarExpr> = schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| ScalarExpr::column(i, f.data_type))
            .collect();
        for (col, e) in assignments {
            let idx = schema.index_of(col)?;
            let bound = binder.bind(e)?;
            exprs[idx] = cast_if_needed(bound, schema.field(idx).data_type);
        }
        let filter = match filter {
            Some(f) => Some(bind_predicate(&schema, f)?),
            None => None,
        };
        Ok(BoundStatement::Update {
            table: table.to_owned(),
            exprs,
            filter,
        })
    }

    // ------------------------------------------------------------- queries

    /// Bind a query; returns the plan and its scope schema (same columns,
    /// qualifiers suitable for outer references).
    pub fn bind_query(&mut self, q: &Query) -> Result<(LogicalPlan, SchemaRef)> {
        self.ctes.push(HashMap::new());
        let result = self.bind_query_inner(q);
        self.ctes.pop();
        result
    }

    fn bind_query_inner(&mut self, q: &Query) -> Result<(LogicalPlan, SchemaRef)> {
        for cte in &q.ctes {
            self.bind_cte(cte, q.recursive)?;
        }
        // A SELECT body binds its own ORDER BY so that sort keys may
        // reference non-projected input columns (via hidden columns).
        let (mut plan, schema) = match &q.body {
            SetExpr::Select(s) => self.bind_select(s, &q.order_by)?,
            body => {
                let (plan, schema) = self.bind_set_expr(body)?;
                let mut exprs = columns_of(&schema);
                let keys = bind_order_by(&q.order_by, &schema, &mut exprs, None)?;
                (project_sorted(plan, exprs, &schema, keys, true), schema)
            }
        };
        if q.limit.is_some() || q.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: const_usize(&q.limit, "LIMIT")?,
                offset: const_usize(&q.offset, "OFFSET")?.unwrap_or(0),
            };
        }
        Ok((plan, schema))
    }

    fn bind_cte(&mut self, cte: &Cte, recursive: bool) -> Result<()> {
        let is_self_recursive = recursive && query_references(&cte.query, &cte.name);
        if is_self_recursive {
            // Body must be `init UNION [ALL] step`.
            let SetExpr::Union { left, right, all } = &cte.query.body else {
                return Err(HyError::Bind(format!(
                    "recursive CTE '{}' must be 'initial UNION [ALL] recursive'",
                    cte.name
                )));
            };
            let (init, init_schema) = self.bind_set_expr(left)?;
            let cte_schema = Arc::new(apply_cte_aliases(&init_schema, cte)?);
            self.working
                .push((cte.name.clone(), Arc::clone(&cte_schema)));
            let step_result = self.bind_set_expr(right);
            self.working.pop();
            let (step, step_schema) = step_result?;
            let step = coerce_plan_to(step, &step_schema, &cte_schema)?;
            let plan = LogicalPlan::RecursiveCte {
                name: cte.name.clone(),
                init: Box::new(coerce_plan_to(init, &init_schema, &cte_schema)?),
                step: Box::new(step),
                all: *all,
                schema: Arc::clone(&cte_schema),
            };
            self.ctes
                .last_mut()
                .expect("cte scope pushed")
                .insert(cte.name.clone(), (plan, cte_schema));
        } else {
            let (plan, schema) = self.bind_query(&cte.query)?;
            let cte_schema = Arc::new(apply_cte_aliases(&schema, cte)?);
            self.ctes
                .last_mut()
                .expect("cte scope pushed")
                .insert(cte.name.clone(), (plan, cte_schema));
        }
        Ok(())
    }

    fn bind_set_expr(&mut self, body: &SetExpr) -> Result<(LogicalPlan, SchemaRef)> {
        match body {
            SetExpr::Select(s) => self.bind_select(s, &[]),
            SetExpr::Query(q) => self.bind_query(q),
            SetExpr::Values(rows) => self.bind_values(rows),
            SetExpr::Union { left, right, all } => {
                let (l, ls) = self.bind_set_expr(left)?;
                let (r, rs) = self.bind_set_expr(right)?;
                if ls.len() != rs.len() {
                    return Err(HyError::Bind(format!(
                        "UNION inputs have {} and {} columns",
                        ls.len(),
                        rs.len()
                    )));
                }
                // Coerce both sides to common types; keep left's names.
                let mut fields = Vec::with_capacity(ls.len());
                for (lf, rf) in ls.fields().iter().zip(rs.fields()) {
                    let t = lf.data_type.common_type(rf.data_type)?;
                    fields.push(Field::new(lf.name.clone(), t));
                }
                let out = Arc::new(Schema::new(fields));
                let l = coerce_plan_to(l, &ls, &out)?;
                let r = coerce_plan_to(r, &rs, &out)?;
                let plan = LogicalPlan::Union {
                    inputs: vec![l, r],
                    all: *all,
                    schema: Arc::clone(&out),
                };
                Ok((plan, out))
            }
        }
    }

    fn bind_values(&mut self, rows: &[Vec<Expr>]) -> Result<(LogicalPlan, SchemaRef)> {
        if rows.is_empty() {
            return Err(HyError::Bind("VALUES requires at least one row".into()));
        }
        let width = rows[0].len();
        let mut value_rows: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
        let empty = Schema::empty();
        let mut binder = ExprBinder::new(&empty);
        for row in rows {
            if row.len() != width {
                return Err(HyError::Bind("VALUES rows have inconsistent arity".into()));
            }
            let vals: Vec<Value> = row
                .iter()
                .map(|e| {
                    let bound = binder.bind(e)?;
                    bound.eval_row(&Row::default())
                })
                .collect::<Result<_>>()?;
            value_rows.push(vals);
        }
        let mut types = vec![DataType::Null; width];
        for row in &value_rows {
            for (i, v) in row.iter().enumerate() {
                types[i] = types[i].common_type(v.data_type())?;
            }
        }
        let fields: Vec<Field> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                Field::new(
                    format!("column{}", i + 1),
                    if t == DataType::Null {
                        DataType::Int64
                    } else {
                        t
                    },
                )
            })
            .collect();
        let schema = Arc::new(Schema::new(fields));
        let plan = LogicalPlan::Values {
            schema: Arc::clone(&schema),
            rows: value_rows,
        };
        Ok((plan, schema))
    }

    fn bind_select(
        &mut self,
        s: &Select,
        order_by: &[OrderByExpr],
    ) -> Result<(LogicalPlan, SchemaRef)> {
        // FROM
        let (mut plan, scope) = if s.from.is_empty() {
            let schema = Arc::new(Schema::empty());
            (
                LogicalPlan::Empty {
                    schema: Arc::clone(&schema),
                },
                schema,
            )
        } else {
            let mut iter = s.from.iter();
            let (mut plan, mut scope) = self.bind_table_ref(iter.next().expect("non-empty"))?;
            for item in iter {
                let (rp, rs) = self.bind_table_ref(item)?;
                let schema = Arc::new(scope.join(&rs));
                plan = LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(rp),
                    kind: JoinKind::Cross,
                    condition: None,
                    schema: Arc::clone(&schema),
                };
                scope = schema;
            }
            (plan, scope)
        };

        // WHERE
        if let Some(pred) = &s.selection {
            if contains_aggregate(pred) {
                return Err(HyError::Bind(
                    "aggregates are not allowed in WHERE (use HAVING)".into(),
                ));
            }
            let predicate = bind_predicate(&scope, pred)?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let grouped = !s.group_by.is_empty()
            || s.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => contains_aggregate(expr),
                _ => false,
            })
            || s.having.as_ref().is_some_and(contains_aggregate)
            || order_by.iter().any(|ob| contains_aggregate(&ob.expr));
        // Every clause after WHERE binds through this one binder: over the
        // FROM scope, or, grouped, over the aggregate node's output.
        let mut binder = if grouped {
            let mut plain = ExprBinder::new(&scope);
            let keys = s.group_by.iter().map(|e| plain.bind(e));
            ExprBinder::grouped(&scope, keys.collect::<Result<_>>()?)
        } else if let Some(h) = &s.having {
            return Err(HyError::Bind(format!(
                "HAVING without GROUP BY or aggregates: {h}"
            )));
        } else {
            ExprBinder::new(&scope)
        };

        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        for item in &s.projection {
            let qualifier = match item {
                SelectItem::Expr { expr, alias } => {
                    let bound = binder.bind(expr)?;
                    let name = output_name(expr, alias.as_deref(), exprs.len());
                    fields.push(Field::new(name, bound.data_type()));
                    exprs.push(bound);
                    continue;
                }
                _ if grouped => {
                    return Err(HyError::Bind(
                        "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                    ))
                }
                SelectItem::Wildcard => None,
                SelectItem::QualifiedWildcard(q) => Some(q),
            };
            let wanted = qualifier.map(|q| q.to_ascii_lowercase());
            let before = exprs.len();
            for (i, f) in scope.fields().iter().enumerate() {
                if wanted.is_none() || f.qualifier == wanted {
                    exprs.push(ScalarExpr::column(i, f.data_type));
                    fields.push(Field::new(f.name.clone(), f.data_type));
                }
            }
            if let Some(q) = qualifier.filter(|_| exprs.len() == before) {
                return Err(HyError::Bind(format!("unknown table alias '{q}' in {q}.*")));
            }
        }
        let having = match &s.having {
            Some(h) => {
                let b = binder.bind(h)?;
                if b.data_type() != DataType::Bool && b.data_type() != DataType::Null {
                    return Err(HyError::Type(format!(
                        "HAVING must be boolean, got {}",
                        b.data_type()
                    )));
                }
                Some(b)
            }
            None => None,
        };
        let schema = Arc::new(Schema::new(fields));
        // Before the aggregate list is frozen: a key may add an aggregate.
        let keys = bind_order_by(order_by, &schema, &mut exprs, Some(&mut binder))?;
        if s.distinct && exprs.len() > schema.len() {
            return Err(HyError::Bind(
                "ORDER BY expressions must appear in the select list when DISTINCT is used".into(),
            ));
        }
        let mut plan = binder.read_relation(plan)?;
        if let Some(predicate) = having {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate,
            };
        }
        // A grouped projection is never left out: it renames the keys.
        let plan = project_sorted(plan, exprs, &schema, keys, !grouped);
        let plan = if s.distinct {
            LogicalPlan::Distinct {
                input: Box::new(plan),
            }
        } else {
            plan
        };
        Ok((plan, schema))
    }

    // --------------------------------------------------------- FROM items

    fn bind_table_ref(&mut self, tr: &TableRef) -> Result<(LogicalPlan, SchemaRef)> {
        match tr {
            TableRef::Table { name, alias } => {
                let qualifier = alias.as_deref().unwrap_or(name);
                // Working tables shadow CTEs shadow base tables.
                if let Some((_, schema)) = self.working.iter().rev().find(|(n, _)| n == name) {
                    let scope = Arc::new(schema.with_qualifier(qualifier));
                    let plan = LogicalPlan::WorkingTable {
                        name: name.clone(),
                        schema: Arc::clone(schema),
                    };
                    return Ok((plan, scope));
                }
                for scope_map in self.ctes.iter().rev() {
                    if let Some((plan, schema)) = scope_map.get(name) {
                        let scope = Arc::new(schema.with_qualifier(qualifier));
                        return Ok((plan.clone(), scope));
                    }
                }
                // The virtual `hylite` schema of system views.
                if let Some(view) = hylite_common::SystemView::from_name(name) {
                    // Unaliased, `SELECT metrics.name FROM hylite.metrics`
                    // should work, so the default qualifier is the short
                    // view name rather than the dotted one.
                    let qualifier = alias
                        .as_deref()
                        .unwrap_or_else(|| view.name().rsplit('.').next().unwrap_or(name));
                    let scope = Arc::new(view.schema().with_qualifier(qualifier));
                    let plan = LogicalPlan::SystemScan {
                        view,
                        schema: Arc::clone(&scope),
                    };
                    return Ok((plan, scope));
                }
                let t = self.catalog.get_table(name)?;
                let table_schema = Arc::clone(t.read().schema());
                let scope = Arc::new(table_schema.with_qualifier(qualifier));
                let plan = LogicalPlan::TableScan {
                    table: name.clone(),
                    table_schema: Arc::clone(&table_schema),
                    projection: None,
                    filter: None,
                    schema: Arc::clone(&scope),
                };
                Ok((plan, scope))
            }
            TableRef::Subquery { query, alias } => {
                let (plan, schema) = self.bind_query(query)?;
                let scope = match alias {
                    Some(a) => Arc::new(schema.with_qualifier(a)),
                    None => schema,
                };
                Ok((plan, scope))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, ls) = self.bind_table_ref(left)?;
                let (rp, rs) = self.bind_table_ref(right)?;
                let joined = Arc::new(ls.join(&rs));
                let condition = match on {
                    Some(e) => Some(bind_predicate(&joined, e)?),
                    None => None,
                };
                let kind = match kind {
                    AstJoinKind::Inner => JoinKind::Inner,
                    AstJoinKind::Left => JoinKind::Left,
                    AstJoinKind::Cross => JoinKind::Cross,
                };
                let plan = LogicalPlan::Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    kind,
                    condition,
                    schema: Arc::clone(&joined),
                };
                Ok((plan, joined))
            }
            TableRef::TableFunction { func, alias } => {
                let (plan, schema) = self.bind_table_func(func)?;
                let scope = match alias {
                    Some(a) => Arc::new(schema.with_qualifier(a)),
                    None => schema,
                };
                Ok((plan, scope))
            }
        }
    }

    fn bind_table_func(&mut self, func: &TableFunc) -> Result<(LogicalPlan, SchemaRef)> {
        match func {
            TableFunc::Iterate {
                init,
                step,
                stop,
                max_iterations,
            } => {
                let (init_plan, init_schema) = self.bind_query(init)?;
                let working_schema = Arc::new(init_schema.without_qualifiers());
                self.working
                    .push(("iterate".into(), Arc::clone(&working_schema)));
                let step_result = self.bind_query(step);
                let stop_result = self.bind_query(stop);
                self.working.pop();
                let (step_plan, step_schema) = step_result?;
                let (stop_plan, _) = stop_result?;
                let step_plan = coerce_plan_to(step_plan, &step_schema, &working_schema)?;
                let init_plan = coerce_plan_to(init_plan, &init_schema, &working_schema)?;
                let plan = LogicalPlan::Iterate {
                    init: Box::new(init_plan),
                    step: Box::new(step_plan),
                    stop: Box::new(stop_plan),
                    max_iterations: const_usize(max_iterations, "ITERATE max iterations")?
                        .unwrap_or(DEFAULT_MAX_ITERATIONS),
                    schema: Arc::clone(&working_schema),
                };
                Ok((plan, working_schema))
            }
            TableFunc::KMeans {
                data,
                centers,
                distance,
                max_iterations,
            } => {
                let (inputs, data_schema, lambda) =
                    self.bind_kmeans_inputs(func, data, centers, distance)?;
                let max_iterations = const_usize(max_iterations, "KMEANS max iterations")?
                    .unwrap_or(DEFAULT_KMEANS_ITERATIONS);
                let mut fields = vec![Field::new("cluster_id", DataType::Int64)];
                fields.extend(
                    data_schema
                        .fields()
                        .iter()
                        .map(|f| Field::new(f.name.clone(), DataType::Float64)),
                );
                fields.push(Field::new("size", DataType::Int64));
                let schema = Arc::new(Schema::new(fields));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::KMeans {
                        lambda,
                        max_iterations,
                    },
                    inputs,
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
            TableFunc::KMeansAssign {
                data,
                centers,
                distance,
            } => {
                let (inputs, data_schema, lambda) =
                    self.bind_kmeans_inputs(func, data, centers, distance)?;
                let mut fields: Vec<Field> = data_schema
                    .fields()
                    .iter()
                    .map(|f| Field::new(f.name.clone(), DataType::Float64))
                    .collect();
                fields.push(Field::new("cluster_id", DataType::Int64));
                let schema = Arc::new(Schema::new(fields));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::KMeansAssign { lambda },
                    inputs,
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
            TableFunc::PageRank {
                edges,
                damping,
                epsilon,
                max_iterations,
            } => {
                let (edges_plan, edges_schema) = self.bind_query(edges)?;
                if edges_schema.len() < 2 {
                    return Err(HyError::Bind(
                        "PAGERANK edges input needs (src, dest) columns".into(),
                    ));
                }
                // (src, dest) cast to BIGINT; an optional third column
                // supplies per-edge weights (§4.3's weighted PageRank).
                let weighted = edges_schema.len() >= 3;
                let mut edge_fields = vec![
                    Field::new("src", DataType::Int64),
                    Field::new("dest", DataType::Int64),
                ];
                if weighted {
                    let wf = edges_schema.field(2);
                    if !wf.data_type.is_numeric() {
                        return Err(HyError::Type(format!(
                            "PAGERANK edge weight column '{}' must be numeric, got {}",
                            wf.name, wf.data_type
                        )));
                    }
                    edge_fields.push(Field::new("weight", DataType::Float64));
                }
                let edge_schema = Arc::new(Schema::new(edge_fields));
                let sources = (0..edge_schema.len()).map(Some);
                let edges_plan = cast_projection(edges_plan, &edges_schema, sources, &edge_schema);
                let damping = const_f64(damping, "PAGERANK damping")?;
                if !(0.0..=1.0).contains(&damping) {
                    return Err(HyError::Bind(format!(
                        "PAGERANK damping must be in [0, 1], got {damping}"
                    )));
                }
                let epsilon = const_f64(epsilon, "PAGERANK epsilon")?;
                if epsilon < 0.0 {
                    return Err(HyError::Bind(format!(
                        "PAGERANK epsilon must be non-negative, got {epsilon}"
                    )));
                }
                let max_iterations = const_usize(max_iterations, "PAGERANK max iterations")?
                    .unwrap_or(DEFAULT_PAGERANK_ITERATIONS);
                let schema = Arc::new(Schema::new(vec![
                    Field::new("vertex", DataType::Int64),
                    Field::new("rank", DataType::Float64),
                ]));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::PageRank {
                        weighted,
                        damping,
                        epsilon,
                        max_iterations,
                    },
                    inputs: vec![edges_plan],
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
            TableFunc::NaiveBayesTrain { data, label_column } => {
                let (plan, features, label_field) =
                    self.bind_labeled_input(data, label_column.as_deref(), "NAIVE_BAYES_TRAIN")?;
                let schema = Arc::new(Schema::new(vec![
                    Field::new("class", label_field.data_type),
                    Field::new("attribute", DataType::Varchar),
                    Field::new("prior", DataType::Float64),
                    Field::new("mean", DataType::Float64),
                    Field::new("stddev", DataType::Float64),
                ]));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::NaiveBayesTrain {
                        feature_names: features,
                    },
                    inputs: vec![plan],
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
            TableFunc::ClassStats { data, label_column } => {
                let (plan, features, label_field) =
                    self.bind_labeled_input(data, label_column.as_deref(), "CLASS_STATS")?;
                let schema = Arc::new(Schema::new(vec![
                    Field::new("class", label_field.data_type),
                    Field::new("attribute", DataType::Varchar),
                    Field::new("count", DataType::Int64),
                    Field::new("mean", DataType::Float64),
                    Field::new("stddev", DataType::Float64),
                    Field::new("min", DataType::Float64),
                    Field::new("max", DataType::Float64),
                ]));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::ClassStats {
                        feature_names: features,
                    },
                    inputs: vec![plan],
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
            TableFunc::NaiveBayesPredict { model, data } => {
                let (model_plan, model_schema) = self.bind_query(model)?;
                if model_schema.len() != 5 {
                    return Err(HyError::Bind(format!(
                        "NAIVE_BAYES_PREDICT model must have 5 columns \
                         (class, attribute, prior, mean, stddev), got {}",
                        model_schema.len()
                    )));
                }
                let (data_plan, data_schema) =
                    self.bind_numeric_input(data, "NAIVE_BAYES_PREDICT data")?;
                let feature_names: Vec<String> = data_schema
                    .fields()
                    .iter()
                    .map(|f| f.name.clone())
                    .collect();
                let mut fields: Vec<Field> = data_schema
                    .fields()
                    .iter()
                    .map(|f| Field::new(f.name.clone(), DataType::Float64))
                    .collect();
                fields.push(Field::new("label", model_schema.field(0).data_type));
                let schema = Arc::new(Schema::new(fields));
                let plan = LogicalPlan::Operator {
                    op: AnalyticsOp::NaiveBayesPredict { feature_names },
                    inputs: vec![model_plan, data_plan],
                    schema: Arc::clone(&schema),
                };
                Ok((plan, schema))
            }
        }
    }

    /// Bind an analytics data subquery whose columns must all be numeric;
    /// wraps it in a cast-to-DOUBLE projection.
    fn bind_numeric_input(&mut self, q: &Query, what: &str) -> Result<(LogicalPlan, SchemaRef)> {
        let (plan, schema) = self.bind_query(q)?;
        if schema.is_empty() {
            return Err(HyError::Bind(format!(
                "{what} must have at least one column"
            )));
        }
        let mut fields = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            if !f.data_type.is_numeric() && f.data_type != DataType::Null {
                return Err(HyError::Type(format!(
                    "{what}: column '{}' must be numeric, got {}",
                    f.name, f.data_type
                )));
            }
            fields.push(Field::new(f.name.clone(), DataType::Float64));
        }
        let out = Arc::new(Schema::new(fields));
        let all_double = schema
            .fields()
            .iter()
            .all(|f| f.data_type == DataType::Float64);
        let plan = if all_double {
            plan
        } else {
            cast_projection(plan, &schema, (0..schema.len()).map(Some), &out)
        };
        Ok((plan, out))
    }

    /// Bind a labeled analytics input: numeric feature columns followed by
    /// the label column (moved last). Returns (plan, feature names, label).
    fn bind_labeled_input(
        &mut self,
        q: &Query,
        label_column: Option<&str>,
        what: &str,
    ) -> Result<(LogicalPlan, Vec<String>, Field)> {
        let (plan, schema) = self.bind_query(q)?;
        if schema.len() < 2 {
            return Err(HyError::Bind(format!(
                "{what} needs at least one feature column and a label column"
            )));
        }
        let label_idx = match label_column {
            Some(name) => schema.index_of(name)?,
            None => schema.len() - 1,
        };
        let label_field = schema.field(label_idx).clone();
        match label_field.data_type {
            DataType::Int64 | DataType::Varchar | DataType::Bool => {}
            other => {
                return Err(HyError::Type(format!(
                    "{what}: label column '{}' must be BIGINT, VARCHAR or BOOLEAN, got {other}",
                    label_field.name
                )))
            }
        }
        let mut sources = Vec::new();
        let mut fields = Vec::new();
        for (i, f) in schema.fields().iter().enumerate() {
            if i == label_idx {
                continue;
            }
            if !f.data_type.is_numeric() && f.data_type != DataType::Null {
                return Err(HyError::Type(format!(
                    "{what}: feature column '{}' must be numeric, got {}",
                    f.name, f.data_type
                )));
            }
            sources.push(Some(i));
            fields.push(Field::new(f.name.clone(), DataType::Float64));
        }
        let feature_names = fields.iter().map(|f| f.name.clone()).collect();
        sources.push(Some(label_idx));
        fields.push(Field::new(label_field.name.clone(), label_field.data_type));
        let out = Arc::new(Schema::new(fields));
        let plan = cast_projection(plan, &schema, sources, &out);
        Ok((plan, feature_names, label_field))
    }

    /// The inputs of KMEANS and KMEANS_ASSIGN — data and centers, each a
    /// numeric input of the same width — and the distance lambda bound
    /// over them; errors name the function `func`.
    fn bind_kmeans_inputs(
        &mut self,
        func: &TableFunc,
        data: &Query,
        centers: &Query,
        distance: &Option<Lambda>,
    ) -> Result<(Vec<LogicalPlan>, SchemaRef, Option<BoundLambda>)> {
        let name = func.name();
        let (data_plan, data_schema) = self.bind_numeric_input(data, &format!("{name} data"))?;
        let (centers_plan, centers_schema) =
            self.bind_numeric_input(centers, &format!("{name} centers"))?;
        if data_schema.len() != centers_schema.len() {
            return Err(HyError::Bind(format!(
                "{name}: data has {} dimensions but centers have {}",
                data_schema.len(),
                centers_schema.len()
            )));
        }
        let lambda = self.bind_distance_lambda(distance, &data_schema, &centers_schema)?;
        Ok((vec![data_plan, centers_plan], data_schema, lambda))
    }

    /// Bind the optional distance lambda against (data, centers) schemas.
    fn bind_distance_lambda(
        &self,
        lambda: &Option<Lambda>,
        data_schema: &Schema,
        centers_schema: &Schema,
    ) -> Result<Option<BoundLambda>> {
        let Some(l) = lambda else {
            return Ok(None);
        };
        if l.params.len() != 2 {
            return Err(HyError::Bind(format!(
                "distance lambda must have two parameters, got {}",
                l.params.len()
            )));
        }
        let left = data_schema.with_qualifier(&l.params[0]);
        let right = centers_schema.with_qualifier(&l.params[1]);
        let combined = left.join(&right);
        let body = ExprBinder::new(&combined).bind(&l.body)?;
        if !body.data_type().is_numeric() {
            return Err(HyError::Type(format!(
                "distance lambda must return a numeric value, got {}",
                body.data_type()
            )));
        }
        Ok(Some(BoundLambda::new(
            data_schema.len(),
            centers_schema.len(),
            body,
        )?))
    }
}

// ------------------------------------------------------------------ helpers

/// `ORDER BY <k>` ordinal: Some(zero-based index) for integer literals.
fn ordinal(e: &Expr, width: usize) -> Result<Option<usize>> {
    if let Expr::Literal(Value::Int(k)) = e {
        if *k < 1 || *k as usize > width {
            return Err(HyError::Bind(format!(
                "ORDER BY position {k} is out of range"
            )));
        }
        return Ok(Some((*k - 1) as usize));
    }
    Ok(None)
}

/// Resolve ORDER BY against a query body's output `schema`, which `exprs`
/// compute: an ordinal or an expression over the output columns sorts them
/// directly; anything else the body's clause binder (a SELECT's; a set
/// operation has none) binds over the body's input, and it rides along in
/// `exprs` as a hidden column past the output's.
fn bind_order_by(
    order_by: &[OrderByExpr],
    schema: &Schema,
    exprs: &mut Vec<ScalarExpr>,
    mut over_input: Option<&mut ExprBinder<'_>>,
) -> Result<Vec<SortKey>> {
    let mut output = ExprBinder::new(schema);
    let mut keys = Vec::with_capacity(order_by.len());
    for ob in order_by {
        let expr = match ordinal(&ob.expr, schema.len())? {
            Some(k) => ScalarExpr::column(k, schema.field(k).data_type),
            None => match (output.bind(&ob.expr), over_input.as_deref_mut()) {
                (Ok(e), _) => e,
                (Err(_), Some(input)) => {
                    let hidden = input.bind(&ob.expr)?;
                    let column = ScalarExpr::column(exprs.len(), hidden.data_type());
                    exprs.push(hidden);
                    column
                }
                (Err(e), None) => return Err(e),
            },
        };
        keys.push(SortKey { expr, asc: ob.asc });
    }
    Ok(keys)
}

/// The end of a query body: `exprs` over `input`, named by `schema`, sorted
/// by `keys`; expressions past `schema` are hidden sort columns, dropped
/// after the sort. With `elide_identity`, a projection that repeats its
/// input column for column is left out.
fn project_sorted(
    input: LogicalPlan,
    exprs: Vec<ScalarExpr>,
    schema: &SchemaRef,
    keys: Vec<SortKey>,
    elide_identity: bool,
) -> LogicalPlan {
    let sorted = |plan: LogicalPlan| {
        if keys.is_empty() {
            return plan;
        }
        LogicalPlan::Sort {
            input: Box::new(plan),
            keys,
        }
    };
    if exprs.len() > schema.len() {
        let mut fields = schema.fields().to_vec();
        for (i, h) in exprs[schema.len()..].iter().enumerate() {
            fields.push(Field::new(format!("__sort{i}"), h.data_type()));
        }
        let extended = LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: Arc::new(Schema::new(fields)),
        };
        return LogicalPlan::Project {
            input: Box::new(sorted(extended)),
            exprs: columns_of(schema),
            schema: Arc::clone(schema),
        };
    }
    let identity = elide_identity
        && exprs.len() == input.schema().len()
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| matches!(e, ScalarExpr::Column { index, .. } if *index == i));
    if identity {
        return sorted(input);
    }
    sorted(LogicalPlan::Project {
        input: Box::new(input),
        exprs,
        schema: Arc::clone(schema),
    })
}

/// Every column of `schema`, in order.
pub(crate) fn columns_of(schema: &Schema) -> Vec<ScalarExpr> {
    let fields = schema.fields().iter().enumerate();
    fields
        .map(|(i, f)| ScalarExpr::column(i, f.data_type))
        .collect()
}

/// Bind a boolean predicate against a schema.
fn bind_predicate(schema: &Schema, e: &Expr) -> Result<ScalarExpr> {
    let bound = ExprBinder::new(schema).bind(e)?;
    match bound.data_type() {
        DataType::Bool | DataType::Null => Ok(bound),
        other => Err(HyError::Type(format!(
            "predicate must be boolean, got {other}"
        ))),
    }
}

/// Wrap in a cast when types differ.
fn cast_if_needed(expr: ScalarExpr, target: DataType) -> ScalarExpr {
    if expr.data_type() == target {
        return expr;
    }
    ScalarExpr::Cast {
        input: Box::new(expr),
        target,
    }
}

/// The one cast projection: `input`, whose columns `from` describes,
/// projected to `to` — output column `k` is input column `sources[k]`
/// (a NULL where that is `None`) cast to `to`'s type `k`, under its name.
fn cast_projection(
    input: LogicalPlan,
    from: &Schema,
    sources: impl IntoIterator<Item = Option<usize>>,
    to: &SchemaRef,
) -> LogicalPlan {
    let exprs = sources.into_iter().zip(to.fields()).map(|(source, f)| {
        let value = match source {
            Some(i) => ScalarExpr::column(i, from.field(i).data_type),
            None => ScalarExpr::Literal(Value::Null),
        };
        cast_if_needed(value, f.data_type)
    });
    LogicalPlan::Project {
        input: Box::new(input),
        exprs: exprs.collect(),
        schema: Arc::clone(to),
    }
}

/// Coerce a plan's columns to `target` types with a projection (no-op when
/// already aligned).
fn coerce_plan_to(plan: LogicalPlan, from: &Schema, target: &SchemaRef) -> Result<LogicalPlan> {
    if from.len() != target.len() {
        return Err(HyError::Bind(format!(
            "relation has {} columns, expected {}",
            from.len(),
            target.len()
        )));
    }
    let pairs = || from.fields().iter().zip(target.fields());
    if pairs().all(|(f, t)| f.data_type == t.data_type) {
        return Ok(plan);
    }
    if let Some((f, t)) = pairs().find(|(f, t)| !f.data_type.coercible_to(t.data_type)) {
        return Err(HyError::Type(format!(
            "cannot coerce column '{}' from {} to {}",
            f.name, f.data_type, t.data_type
        )));
    }
    let sources = (0..from.len()).map(Some);
    Ok(cast_projection(plan, from, sources, target))
}

/// Apply CTE column aliases to a schema (stripping qualifiers).
fn apply_cte_aliases(schema: &Schema, cte: &Cte) -> Result<Schema> {
    let base = schema.without_qualifiers();
    match &cte.columns {
        None => Ok(base),
        Some(names) => {
            if names.len() != base.len() {
                return Err(HyError::Bind(format!(
                    "CTE '{}' declares {} columns but its query produces {}",
                    cte.name,
                    names.len(),
                    base.len()
                )));
            }
            Ok(Schema::new(
                base.fields()
                    .iter()
                    .zip(names)
                    .map(|(f, n)| Field::new(n.clone(), f.data_type))
                    .collect(),
            ))
        }
    }
}

/// Fold an optional constant AST expression to `usize`; `None` when the
/// statement gives none, for the caller's default.
fn const_usize(e: &Option<Expr>, what: &str) -> Result<Option<usize>> {
    let Some(e) = e else { return Ok(None) };
    match const_value(e, what)? {
        Value::Int(k) if k >= 0 => Ok(Some(k as usize)),
        other => Err(HyError::Bind(format!(
            "{what} must be a non-negative integer, got {other}"
        ))),
    }
}

/// Fold a constant AST expression to `f64`.
fn const_f64(e: &Expr, what: &str) -> Result<f64> {
    let v = const_value(e, what)?;
    v.as_float()
        .map_err(|_| HyError::Bind(format!("{what} must be numeric, got {v}")))
}

fn const_value(e: &Expr, what: &str) -> Result<Value> {
    let empty = Schema::empty();
    let bound = ExprBinder::new(&empty)
        .bind(e)
        .map_err(|_| HyError::Bind(format!("{what} must be a constant expression")))?;
    bound.eval_row(&Row::default())
}

/// Does the query reference `name` as a table anywhere (for detecting
/// self-recursive CTEs)?
fn query_references(q: &Query, name: &str) -> bool {
    fn set_expr_refs(s: &SetExpr, name: &str) -> bool {
        match s {
            SetExpr::Select(sel) => sel.from.iter().any(|t| table_ref_refs(t, name)),
            SetExpr::Union { left, right, .. } => {
                set_expr_refs(left, name) || set_expr_refs(right, name)
            }
            SetExpr::Values(_) => false,
            SetExpr::Query(q) => query_references(q, name),
        }
    }
    fn table_ref_refs(t: &TableRef, name: &str) -> bool {
        match t {
            TableRef::Table { name: n, .. } => n == name,
            TableRef::Subquery { query, .. } => query_references(query, name),
            TableRef::Join { left, right, .. } => {
                table_ref_refs(left, name) || table_ref_refs(right, name)
            }
            TableRef::TableFunction { .. } => false,
        }
    }
    set_expr_refs(&q.body, name)
}

/// Output column name for a projection item.
fn output_name(e: &Expr, alias: Option<&str>, position: usize) -> String {
    if let Some(a) = alias {
        return a.to_ascii_lowercase();
    }
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("column{}", position + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_sql::parse_statement;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.create_table(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Float64),
                Field::new("s", DataType::Varchar),
            ]),
        )
        .unwrap();
        cat.create_table(
            "edges",
            Schema::new(vec![
                Field::new("src", DataType::Int64),
                Field::new("dest", DataType::Int64),
            ]),
        )
        .unwrap();
        cat
    }

    fn bind(sql: &str) -> Result<BoundStatement> {
        let cat = catalog();
        let stmt = parse_statement(sql)?;
        Binder::new(&cat).bind_statement(&stmt)
    }

    fn bind_plan(sql: &str) -> LogicalPlan {
        match bind(sql).unwrap() {
            BoundStatement::Query(p) => p,
            other => panic!("expected a query, got {other:?}"),
        }
    }

    #[test]
    fn select_star_expands() {
        let plan = bind_plan("SELECT * FROM t");
        assert_eq!(plan.schema().len(), 3);
        assert_eq!(plan.schema().field(0).name, "a");
    }

    #[test]
    fn aliases_resolve() {
        let plan = bind_plan("SELECT x.a AS renamed FROM t x WHERE x.b > 0");
        assert_eq!(plan.schema().field(0).name, "renamed");
        assert!(bind("SELECT t.a FROM t x").is_err(), "alias replaces name");
    }

    #[test]
    fn ambiguity_detected() {
        let err = bind("SELECT a FROM t, t u").unwrap_err();
        assert!(matches!(err, HyError::Bind(_)), "{err}");
    }

    #[test]
    fn grouped_plan_shape() {
        let plan = bind_plan("SELECT a, sum(b) FROM t GROUP BY a HAVING count(*) > 1");
        // Project over Filter(HAVING) over Aggregate.
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        let LogicalPlan::Filter { input, .. } = *input else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn order_by_hidden_column() {
        // b is not projected; it must ride along as a hidden sort column
        // and be dropped after the sort.
        let plan = bind_plan("SELECT a FROM t ORDER BY b DESC");
        assert_eq!(plan.schema().len(), 1);
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn iterate_binds_working_table() {
        let plan = bind_plan(
            "SELECT * FROM ITERATE((SELECT 1 x), (SELECT x + 1 FROM iterate), \
             (SELECT x FROM iterate WHERE x > 3))",
        );
        let LogicalPlan::Iterate { step, .. } = plan else {
            panic!()
        };
        // `iterate` must not leak outside the construct.
        let _ = step;
        assert!(
            bind("SELECT * FROM iterate").is_err(),
            "working table invisible outside ITERATE"
        );
    }

    #[test]
    fn kmeans_validations() {
        assert!(matches!(
            bind("SELECT * FROM KMEANS((SELECT s FROM t), (SELECT s FROM t), 3)"),
            Err(HyError::Type(_))
        ));
        assert!(matches!(
            bind("SELECT * FROM KMEANS((SELECT a, b FROM t), (SELECT a FROM t), 3)"),
            Err(HyError::Bind(_))
        ));
        // Lambda referencing a nonexistent attribute.
        assert!(bind(
            "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), \
             LAMBDA(p, q) p.nope - q.a, 3)"
        )
        .is_err());
        // Non-numeric lambda body.
        assert!(bind(
            "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), \
             LAMBDA(p, q) p.a > q.a, 3)"
        )
        .is_err());
    }

    #[test]
    fn pagerank_validations() {
        assert!(matches!(
            bind("SELECT * FROM PAGERANK((SELECT src FROM edges), 0.85, 0.0)"),
            Err(HyError::Bind(_))
        ));
        assert!(bind("SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 1.5, 0.0)").is_err());
        assert!(bind("SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, -1.0)").is_err());
        let plan = bind_plan("SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0)");
        let weighted = |plan: &LogicalPlan| match plan {
            LogicalPlan::Operator {
                op: AnalyticsOp::PageRank { weighted, .. },
                ..
            } => *weighted,
            other => panic!("not a PageRank node: {other}"),
        };
        assert!(!weighted(&plan));
        let plan =
            bind_plan("SELECT * FROM PAGERANK((SELECT src, dest, 1.0 w FROM edges), 0.85, 0.0)");
        assert!(weighted(&plan));
    }

    #[test]
    fn nb_label_column_selection() {
        let plan = bind_plan("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT b, a FROM t), a)");
        let LogicalPlan::Operator {
            op: AnalyticsOp::NaiveBayesTrain { feature_names },
            ..
        } = plan
        else {
            panic!()
        };
        assert_eq!(feature_names, vec!["b".to_string()]);
        // VARCHAR feature rejected.
        assert!(matches!(
            bind("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT s, a FROM t), a)"),
            Err(HyError::Type(_))
        ));
        // Float label rejected.
        assert!(matches!(
            bind("SELECT * FROM NAIVE_BAYES_TRAIN((SELECT a, b FROM t), b)"),
            Err(HyError::Type(_))
        ));
    }

    #[test]
    fn insert_binding_checks() {
        assert!(matches!(
            bind("INSERT INTO t (a) VALUES (1, 2)"),
            Err(HyError::Bind(_))
        ));
        let BoundStatement::Insert { source, .. } =
            bind("INSERT INTO t (s, a) VALUES ('x', 1)").unwrap()
        else {
            panic!()
        };
        // Source reordered/padded to the table's 3 columns.
        assert_eq!(source.schema().len(), 3);
    }

    #[test]
    fn update_binds_identity_for_unassigned() {
        let BoundStatement::Update { exprs, .. } =
            bind("UPDATE t SET b = b + 1 WHERE a = 1").unwrap()
        else {
            panic!()
        };
        assert_eq!(exprs.len(), 3);
        assert_eq!(exprs[0].to_string(), "#0", "a untouched");
        assert_eq!(exprs[2].to_string(), "#2", "s untouched");
    }

    #[test]
    fn recursive_cte_requires_union() {
        let err =
            bind("WITH RECURSIVE r (n) AS (SELECT n + 1 FROM r) SELECT * FROM r").unwrap_err();
        assert!(matches!(err, HyError::Bind(_)));
    }

    #[test]
    fn values_types_unify() {
        let plan = bind_plan("VALUES (1, 'a'), (2.5, 'b')");
        assert_eq!(plan.schema().field(0).data_type, DataType::Float64);
        assert!(bind("VALUES (1), (1, 2)").is_err(), "inconsistent arity");
        assert!(
            bind("VALUES (1, 'a'), ('b', 'c')").is_err(),
            "no common type"
        );
    }
}
