//! The bound logical plan.

use std::fmt;
use std::sync::Arc;

use hylite_common::{Result, SchemaRef, SystemView, Value};
use hylite_expr::{AggregateFunction, BinaryOp, BoundLambda, ScalarExpr};

/// Join kinds supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Cross product.
    Cross,
}

/// One aggregate in an [`LogicalPlan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggregateFunction,
    /// Argument (absent for `COUNT(*)`).
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub name: String,
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression over the input.
    pub expr: ScalarExpr,
    /// Ascending?
    pub asc: bool,
}

/// What is specific to one analytics operator of an
/// [`LogicalPlan::Operator`] node. Where the operator's inputs and
/// expressions live is the node's business, not the variant's.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyticsOp {
    /// k-Means (§6.1), lambda-parameterized (§7). Inputs: data, initial
    /// centers (same width, all DOUBLE). Output: cluster_id, dims..., size.
    KMeans {
        /// Distance lambda; None = default squared L2.
        lambda: Option<BoundLambda>,
        /// Maximum iterations.
        max_iterations: usize,
    },
    /// k-Means assignment (model application). Inputs: data, centers.
    /// Output: dims..., cluster_id.
    KMeansAssign {
        /// Distance lambda; None = default squared L2.
        lambda: Option<BoundLambda>,
    },
    /// PageRank (§6.3). Input: (src BIGINT, dest BIGINT [, weight DOUBLE]).
    /// Output: vertex, rank.
    PageRank {
        /// Whether a third edge column supplies per-edge weights.
        weighted: bool,
        /// Damping factor.
        damping: f64,
        /// Convergence epsilon.
        epsilon: f64,
        /// Maximum iterations.
        max_iterations: usize,
    },
    /// Naive Bayes training (§6.2). Input: feature columns (DOUBLE), then
    /// the label column. Output: class, attribute, prior, mean, stddev.
    NaiveBayesTrain {
        /// Feature names (for the model's attribute column).
        feature_names: Vec<String>,
    },
    /// Naive Bayes prediction. Inputs: model (the shape training emits),
    /// data (feature columns, DOUBLE). Output: features..., label.
    NaiveBayesPredict {
        /// Feature names, aligned with the data columns.
        feature_names: Vec<String>,
    },
    /// Per-class statistics building block. Input as for training.
    /// Output: class, attribute, count, mean, stddev, min, max.
    ClassStats {
        /// Feature names.
        feature_names: Vec<String>,
    },
}

impl AnalyticsOp {
    /// Operator name, as EXPLAIN prints it.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyticsOp::KMeans { .. } => "KMeans",
            AnalyticsOp::KMeansAssign { .. } => "KMeansAssign",
            AnalyticsOp::PageRank { .. } => "PageRank",
            AnalyticsOp::NaiveBayesTrain { .. } => "NaiveBayesTrain",
            AnalyticsOp::NaiveBayesPredict { .. } => "NaiveBayesPredict",
            AnalyticsOp::ClassStats { .. } => "ClassStats",
        }
    }

    /// The user-supplied lambda, for the operators that take one.
    pub fn lambda(&self) -> Option<&BoundLambda> {
        match self {
            AnalyticsOp::KMeans { lambda, .. } | AnalyticsOp::KMeansAssign { lambda } => {
                lambda.as_ref()
            }
            AnalyticsOp::PageRank { .. }
            | AnalyticsOp::NaiveBayesTrain { .. }
            | AnalyticsOp::NaiveBayesPredict { .. }
            | AnalyticsOp::ClassStats { .. } => None,
        }
    }

    fn lambda_mut(&mut self) -> Option<&mut BoundLambda> {
        match self {
            AnalyticsOp::KMeans { lambda, .. } | AnalyticsOp::KMeansAssign { lambda } => {
                lambda.as_mut()
            }
            AnalyticsOp::PageRank { .. }
            | AnalyticsOp::NaiveBayesTrain { .. }
            | AnalyticsOp::NaiveBayesPredict { .. }
            | AnalyticsOp::ClassStats { .. } => None,
        }
    }
}

/// A bound, typed logical query plan.
///
/// Every node knows its output schema. Analytical operators (k-Means,
/// PageRank, Naive Bayes, Iterate) are ordinary plan nodes — they can be
/// freely composed with relational operators, which is the paper's layer-4
/// integration story.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a base table, with optional column pruning and a pushed
    /// filter evaluated during the scan.
    TableScan {
        /// Table name in the catalog.
        table: String,
        /// Full table schema (pre-projection).
        table_schema: SchemaRef,
        /// Retained column indices (None = all).
        projection: Option<Vec<usize>>,
        /// Filter over the *projected* columns, applied inside the scan.
        filter: Option<ScalarExpr>,
        /// Output schema (projected, requalified).
        schema: SchemaRef,
    },
    /// Scan of a read-only `hylite.*` system view (virtual relation
    /// materialized at execution time from live engine state).
    SystemScan {
        /// Which system view.
        view: SystemView,
        /// Output schema (qualified).
        schema: SchemaRef,
    },
    /// Literal rows.
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// A one-row, zero-column relation (`SELECT` without `FROM`).
    Empty {
        /// Output schema (zero columns).
        schema: SchemaRef,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: ScalarExpr,
    },
    /// Projection / computation of derived columns.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// One expression per output column.
        exprs: Vec<ScalarExpr>,
        /// Output schema (names for the expressions).
        schema: SchemaRef,
    },
    /// Join of two inputs.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// Condition over the concatenated schema (None for cross).
        condition: Option<ScalarExpr>,
        /// Output schema (left ++ right).
        schema: SchemaRef,
    },
    /// Grouped aggregation. Output = group keys, then aggregates.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Group-by key expressions over the input.
        group_exprs: Vec<ScalarExpr>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
        /// A groupjoin's MIN (MAX) and its `v`: each group folds only its
        /// rows whose `v` is `=` to the group's `MIN(v)` (`MAX(v)`).
        at_best: Option<(AggregateFunction, ScalarExpr)>,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// LIMIT/OFFSET.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Maximum rows (None = unbounded).
        limit: Option<usize>,
        /// Rows to skip.
        offset: usize,
    },
    /// UNION (optionally de-duplicating).
    Union {
        /// Inputs (≥ 2), all type-compatible.
        inputs: Vec<LogicalPlan>,
        /// Keep duplicates?
        all: bool,
        /// Output schema.
        schema: SchemaRef,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Reference to a named working relation: a CTE body, the recursive
    /// CTE's working table, or the `iterate` table inside ITERATE.
    WorkingTable {
        /// Relation name (`iterate`, or the CTE's name).
        name: String,
        /// Schema of the working relation.
        schema: SchemaRef,
    },
    /// SQL:1999 recursive CTE: appending semantics (§5.1's comparison
    /// baseline). `step` references the working table by `name`.
    RecursiveCte {
        /// Working-table name.
        name: String,
        /// Non-recursive term.
        init: Box<LogicalPlan>,
        /// Recursive term (references `WorkingTable(name)`).
        step: Box<LogicalPlan>,
        /// UNION ALL (true) vs UNION with dedup fixpoint (false).
        all: bool,
        /// Output schema.
        schema: SchemaRef,
    },
    /// The paper's non-appending ITERATE operator (§5.1).
    Iterate {
        /// Initialization plan; seeds the working table `iterate`.
        init: Box<LogicalPlan>,
        /// Step plan; replaces the working table each round.
        step: Box<LogicalPlan>,
        /// Stop plan; iteration ends when it produces ≥ 1 row.
        stop: Box<LogicalPlan>,
        /// Iteration cap (infinite-loop guard).
        max_iterations: usize,
        /// Output schema (same as init/step).
        schema: SchemaRef,
    },
    /// An analytics operator (§6): k-Means, PageRank, Naive Bayes, ...
    Operator {
        /// Which operator, with its parameters.
        op: AnalyticsOp,
        /// Input subplans, in SQL argument order.
        inputs: Vec<LogicalPlan>,
        /// Output schema.
        schema: SchemaRef,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::TableScan { schema, .. }
            | LogicalPlan::SystemScan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Empty { schema }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. }
            | LogicalPlan::WorkingTable { schema, .. }
            | LogicalPlan::RecursiveCte { schema, .. }
            | LogicalPlan::Iterate { schema, .. }
            | LogicalPlan::Operator { schema, .. } => Arc::clone(schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Opaque identity of this plan node, used to correlate executor
    /// profile spans with plan-tree positions. Plans are immutable while
    /// a statement executes, so the node's address is a stable key.
    pub fn node_id(&self) -> usize {
        self as *const LogicalPlan as usize
    }

    /// Short operator name for EXPLAIN output.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::TableScan { .. } => "TableScan",
            LogicalPlan::SystemScan { .. } => "SystemScan",
            LogicalPlan::Values { .. } => "Values",
            LogicalPlan::Empty { .. } => "Empty",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Union { .. } => "Union",
            LogicalPlan::Distinct { .. } => "Distinct",
            LogicalPlan::WorkingTable { .. } => "WorkingTable",
            LogicalPlan::RecursiveCte { .. } => "RecursiveCte",
            LogicalPlan::Iterate { .. } => "Iterate",
            LogicalPlan::Operator { op, .. } => op.name(),
        }
    }

    // Where a node keeps its inputs and its expressions is written down in
    // the four accessors below and nowhere else; every pass over plans
    // (optimizer rules, reuse analysis, EXPLAIN) goes through them. No
    // wildcard arm: a new variant does not compile until it is listed.
    // Each names the node's boxed inputs and its input list (its optional
    // expression, its expression list, its aggregates and its sort keys),
    // and one chain walks them: no allocation per node and pass.

    /// Direct children, in order.
    pub fn children(&self) -> impl Iterator<Item = &LogicalPlan> {
        let (boxed, listed): ([Option<&LogicalPlan>; 3], &[LogicalPlan]) = match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::SystemScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::WorkingTable { .. } => ([None, None, None], &[]),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => ([Some(&**input), None, None], &[]),
            LogicalPlan::Join { left, right, .. } => ([Some(&**left), Some(&**right), None], &[]),
            LogicalPlan::RecursiveCte { init, step, .. } => {
                ([Some(&**init), Some(&**step), None], &[])
            }
            LogicalPlan::Iterate {
                init, step, stop, ..
            } => ([Some(&**init), Some(&**step), Some(&**stop)], &[]),
            LogicalPlan::Union { inputs, .. } | LogicalPlan::Operator { inputs, .. } => {
                ([None, None, None], inputs)
            }
        };
        boxed.into_iter().flatten().chain(listed)
    }

    /// Direct children, in the order of [`LogicalPlan::children`].
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut LogicalPlan> {
        let (boxed, listed): ([Option<&mut LogicalPlan>; 3], &mut [LogicalPlan]) = match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::SystemScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::WorkingTable { .. } => ([None, None, None], &mut []),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => ([Some(&mut **input), None, None], &mut []),
            LogicalPlan::Join { left, right, .. } => {
                ([Some(&mut **left), Some(&mut **right), None], &mut [])
            }
            LogicalPlan::RecursiveCte { init, step, .. } => {
                ([Some(&mut **init), Some(&mut **step), None], &mut [])
            }
            LogicalPlan::Iterate {
                init, step, stop, ..
            } => (
                [Some(&mut **init), Some(&mut **step), Some(&mut **stop)],
                &mut [],
            ),
            LogicalPlan::Union { inputs, .. } | LogicalPlan::Operator { inputs, .. } => {
                ([None, None, None], inputs)
            }
        };
        boxed.into_iter().flatten().chain(listed)
    }

    /// This node with every child replaced by `f(child)`, in order.
    pub fn map_children(
        mut self,
        mut f: impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
    ) -> Result<LogicalPlan> {
        for child in self.children_mut() {
            let hole = LogicalPlan::Empty {
                schema: child.schema(),
            };
            *child = f(std::mem::replace(child, hole))?;
        }
        Ok(self)
    }

    /// The scalar expressions this node itself evaluates (not its
    /// inputs'): over its input's columns, for a join and a lambda over
    /// both inputs' side by side.
    pub fn expressions(&self) -> impl Iterator<Item = &ScalarExpr> {
        type Parts<'a> = (
            Option<&'a ScalarExpr>,
            &'a [ScalarExpr],
            &'a [AggExpr],
            &'a [SortKey],
        );
        let (one, list, aggregates, keys): Parts<'_> = match self {
            LogicalPlan::TableScan { filter, .. } => (filter.as_ref(), &[], &[], &[]),
            LogicalPlan::Filter { predicate, .. } => (Some(predicate), &[], &[], &[]),
            LogicalPlan::Project { exprs, .. } => (None, exprs, &[], &[]),
            LogicalPlan::Join { condition, .. } => (condition.as_ref(), &[], &[], &[]),
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                at_best,
                ..
            } => (
                at_best.as_ref().map(|(_, v)| v),
                group_exprs,
                aggregates,
                &[],
            ),
            LogicalPlan::Sort { keys, .. } => (None, &[], &[], keys),
            LogicalPlan::Operator { op, .. } => (op.lambda().map(BoundLambda::body), &[], &[], &[]),
            LogicalPlan::SystemScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::WorkingTable { .. }
            | LogicalPlan::RecursiveCte { .. }
            | LogicalPlan::Iterate { .. } => (None, &[], &[], &[]),
        };
        let arguments = aggregates.iter().filter_map(|a| a.arg.as_ref());
        let keys = keys.iter().map(|k| &k.expr);
        one.into_iter().chain(list).chain(arguments).chain(keys)
    }

    /// The node's expressions, in the order of
    /// [`LogicalPlan::expressions`].
    pub fn expressions_mut(&mut self) -> impl Iterator<Item = &mut ScalarExpr> {
        type Parts<'a> = (
            Option<&'a mut ScalarExpr>,
            &'a mut [ScalarExpr],
            &'a mut [AggExpr],
            &'a mut [SortKey],
        );
        let (one, list, aggregates, keys): Parts<'_> = match self {
            LogicalPlan::TableScan { filter, .. } => (filter.as_mut(), &mut [], &mut [], &mut []),
            LogicalPlan::Filter { predicate, .. } => (Some(predicate), &mut [], &mut [], &mut []),
            LogicalPlan::Project { exprs, .. } => (None, exprs, &mut [], &mut []),
            LogicalPlan::Join { condition, .. } => (condition.as_mut(), &mut [], &mut [], &mut []),
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                at_best,
                ..
            } => (
                at_best.as_mut().map(|(_, v)| v),
                group_exprs,
                aggregates,
                &mut [],
            ),
            LogicalPlan::Sort { keys, .. } => (None, &mut [], &mut [], keys),
            LogicalPlan::Operator { op, .. } => (
                op.lambda_mut().map(BoundLambda::body_mut),
                &mut [],
                &mut [],
                &mut [],
            ),
            LogicalPlan::SystemScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Union { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::WorkingTable { .. }
            | LogicalPlan::RecursiveCte { .. }
            | LogicalPlan::Iterate { .. } => (None, &mut [], &mut [], &mut []),
        };
        let arguments = aggregates.iter_mut().filter_map(|a| a.arg.as_mut());
        let keys = keys.iter_mut().map(|k| &mut k.expr);
        one.into_iter().chain(list).chain(arguments).chain(keys)
    }

    /// Whether the node itself (not its inputs) holds a `-0.0` literal.
    /// `PartialEq` on plans compares `f64` literals numerically, so `0.0`
    /// equals `-0.0`, yet the two can compute different bits: equal plans
    /// that hold none are equal to the bit.
    pub fn holds_negative_zero(&self) -> bool {
        let is_negative_zero = |x: f64| x == 0.0 && x.is_sign_negative();
        let negative_zero = |v: &Value| matches!(v, Value::Float(x) if is_negative_zero(*x));
        let own = match self {
            LogicalPlan::Values { rows, .. } => rows.iter().flatten().any(negative_zero),
            LogicalPlan::Operator {
                op:
                    AnalyticsOp::PageRank {
                        damping, epsilon, ..
                    },
                ..
            } => is_negative_zero(*damping) || is_negative_zero(*epsilon),
            _ => false,
        };
        own || self.expressions().any(|e| e.any_literal(&negative_zero))
    }

    /// The column sets the node's output is unique on, derived from its
    /// operators, never declared: an aggregate is unique on its group keys
    /// (one without keys, on none: it has one row), DISTINCT and UNION on
    /// all their columns. Filters and column-picking projections keep
    /// their input's, and a join its left input's when the right one is
    /// unique on its columns of a pure equi-join (n:1).
    pub fn unique_keys(&self) -> Vec<Vec<usize>> {
        match self {
            LogicalPlan::Aggregate { group_exprs, .. } => vec![(0..group_exprs.len()).collect()],
            LogicalPlan::Distinct { .. } | LogicalPlan::Union { all: false, .. } => {
                vec![(0..self.schema().len()).collect()]
            }
            LogicalPlan::Filter { input, .. } => input.unique_keys(),
            LogicalPlan::Project { input, exprs, .. } => {
                let at = |c: &usize| exprs.iter().position(|e| column_of(e) == Some(*c));
                let keys = input.unique_keys().into_iter();
                keys.filter_map(|key| key.iter().map(at).collect())
                    .collect()
            }
            LogicalPlan::Join { left, right, .. } => {
                let width = left.schema().len();
                // A one-row right side is n:1 on any condition.
                let pairs = column_pairs(self.expressions().next(), width).unwrap_or_default();
                let cols: Vec<usize> = pairs.iter().map(|&(_, r)| r - width).collect();
                if right.is_unique_on(&cols) {
                    left.unique_keys()
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }

    /// Whether some set of [`LogicalPlan::unique_keys`] lies within `cols`.
    pub fn is_unique_on(&self, cols: &[usize]) -> bool {
        let within = |key: &Vec<usize>| key.iter().all(|c| cols.contains(c));
        self.unique_keys().iter().any(within)
    }

    /// Render an indented EXPLAIN tree.
    pub fn explain(&self) -> String {
        self.explain_annotated(&|_| String::new())
    }

    /// Render an indented EXPLAIN tree with `annotate(node)` appended to
    /// each operator line — estimated cardinalities for plain EXPLAIN,
    /// actual execution statistics for EXPLAIN ANALYZE.
    pub fn explain_annotated(&self, annotate: &dyn Fn(&LogicalPlan) -> String) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out, annotate);
        out
    }

    fn explain_into(
        &self,
        depth: usize,
        out: &mut String,
        annotate: &dyn Fn(&LogicalPlan) -> String,
    ) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(self.op_name());
        match self {
            LogicalPlan::TableScan {
                table,
                projection,
                filter,
                ..
            } => {
                out.push_str(&format!(" table={table}"));
                if let Some(p) = projection {
                    out.push_str(&format!(" cols={p:?}"));
                }
                if let Some(f) = filter {
                    out.push_str(&format!(" filter={f}"));
                }
            }
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!(" predicate={predicate}"));
            }
            LogicalPlan::Project { exprs, .. } => {
                let rendered: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!(" [{}]", rendered.join(", ")));
            }
            LogicalPlan::Join {
                kind, condition, ..
            } => {
                out.push_str(&format!(" kind={kind:?}"));
                if let Some(c) = condition {
                    out.push_str(&format!(" on={c}"));
                }
            }
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                at_best,
                ..
            } => {
                let keys: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                let aggs: Vec<&str> = aggregates.iter().map(|a| a.func.name()).collect();
                let (keys, aggs) = (keys.join(", "), aggs.join(", "));
                out.push_str(&format!(" group_by=[{keys}] aggs=[{aggs}]"));
                if let Some((func, v)) = at_best {
                    out.push_str(&format!(" at_{}={v}", func.name()));
                }
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                out.push_str(&format!(" limit={limit:?} offset={offset}"));
            }
            LogicalPlan::Iterate { max_iterations, .. } => {
                out.push_str(&format!(" max_iter={max_iterations}"));
            }
            LogicalPlan::Operator { op, .. } => match op {
                AnalyticsOp::KMeans {
                    lambda,
                    max_iterations,
                } => {
                    let distance = lambda.as_ref().map_or("default-L2", |_| "custom");
                    out.push_str(&format!(" lambda={distance} max_iter={max_iterations}"));
                }
                AnalyticsOp::PageRank {
                    damping,
                    epsilon,
                    max_iterations,
                    ..
                } => {
                    out.push_str(&format!(
                        " d={damping} eps={epsilon} max_iter={max_iterations}"
                    ));
                }
                _ => {}
            },
            LogicalPlan::WorkingTable { name, .. } => out.push_str(&format!(" name={name}")),
            LogicalPlan::SystemScan { view, .. } => out.push_str(&format!(" view={}", view.name())),
            _ => {}
        }
        out.push_str(&annotate(self));
        out.push('\n');
        for c in self.children() {
            c.explain_into(depth + 1, out, annotate);
        }
    }
}

/// The `l = r` column pairs a join condition is made of (none without
/// one), `l` a column of the left input and `r` of the right in the
/// `left_width`-wide left ++ right schema, the two of one type; `None`
/// when any conjunct is something else.
pub(crate) fn column_pairs(
    condition: Option<&ScalarExpr>,
    left_width: usize,
) -> Option<Vec<(usize, usize)>> {
    let (mut pairs, mut todo) = (Vec::new(), Vec::from_iter(condition));
    while let Some(e) = todo.pop() {
        let ScalarExpr::Binary { op, .. } = e else {
            return None;
        };
        let mut sides = e.children();
        let (l, r) = (sides.next()?, sides.next()?);
        match op {
            BinaryOp::And => todo.extend([l, r]),
            BinaryOp::Eq if l.data_type() == r.data_type() => {
                let (a, b) = (column_of(l)?, column_of(r)?);
                ((a < left_width) != (b < left_width)).then_some(())?;
                pairs.push((a.min(b), a.max(b)));
            }
            _ => return None,
        }
    }
    Some(pairs)
}

/// The column a bare column reference reads.
pub(crate) fn column_of(e: &ScalarExpr) -> Option<usize> {
    match *e {
        ScalarExpr::Column { index, .. } => Some(index),
        _ => None,
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{DataType, Field, Schema};

    fn scan() -> LogicalPlan {
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
        ]));
        LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Arc::clone(&schema),
            projection: None,
            filter: None,
            schema,
        }
    }

    #[test]
    fn schema_propagates_through_filter() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan()),
            predicate: ScalarExpr::literal(true),
        };
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: ScalarExpr::literal(true),
            }),
            limit: Some(10),
            offset: 0,
        };
        let text = plan.explain();
        assert!(text.contains("Limit"));
        assert!(text.contains("  Filter"));
        assert!(text.contains("    TableScan table=t"));
    }

    #[test]
    fn children_counts() {
        assert_eq!(scan().children().count(), 0);
        let j = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            condition: None,
            schema: Arc::new(Schema::empty()),
        };
        assert_eq!(j.children().count(), 2);
    }
}
