//! The bound logical plan.

use std::fmt;
use std::sync::Arc;

use hylite_common::{DataType, Field, Schema, SchemaRef, SystemView, Value};
use hylite_expr::{AggregateFunction, BoundLambda, ScalarExpr};

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
    /// k-Means physical operator (§6.1), lambda-parameterized (§7).
    KMeans {
        /// Data subplan (all columns DOUBLE after binding).
        data: Box<LogicalPlan>,
        /// Initial centers subplan (same width).
        centers: Box<LogicalPlan>,
        /// Distance lambda; None = default squared L2.
        lambda: Option<BoundLambda>,
        /// Maximum iterations.
        max_iterations: usize,
        /// Output schema: cluster_id, dims..., size.
        schema: SchemaRef,
    },
    /// k-Means assignment operator (model application).
    KMeansAssign {
        /// Data subplan.
        data: Box<LogicalPlan>,
        /// Centers subplan.
        centers: Box<LogicalPlan>,
        /// Distance lambda; None = default squared L2.
        lambda: Option<BoundLambda>,
        /// Output schema: dims..., cluster_id.
        schema: SchemaRef,
    },
    /// PageRank physical operator (§6.3).
    PageRank {
        /// Edge list subplan: (src BIGINT, dest BIGINT [, weight DOUBLE]).
        edges: Box<LogicalPlan>,
        /// Whether a third edge column supplies per-edge weights.
        weighted: bool,
        /// Damping factor.
        damping: f64,
        /// Convergence epsilon.
        epsilon: f64,
        /// Maximum iterations.
        max_iterations: usize,
        /// Output schema: vertex, rank.
        schema: SchemaRef,
    },
    /// Naive Bayes training operator (§6.2).
    NaiveBayesTrain {
        /// Input: feature columns (DOUBLE) then the label column last.
        data: Box<LogicalPlan>,
        /// Feature names (for the model's attribute column).
        feature_names: Vec<String>,
        /// Output schema: class, attribute, prior, mean, stddev.
        schema: SchemaRef,
    },
    /// Naive Bayes prediction operator.
    NaiveBayesPredict {
        /// Model subplan (shape of NaiveBayesTrain's output).
        model: Box<LogicalPlan>,
        /// Data subplan: feature columns (DOUBLE).
        data: Box<LogicalPlan>,
        /// Feature names, aligned with data columns.
        feature_names: Vec<String>,
        /// Output schema: features..., predicted label.
        schema: SchemaRef,
    },
    /// Per-class statistics building block.
    ClassStats {
        /// Input: feature columns (DOUBLE) then the label column last.
        data: Box<LogicalPlan>,
        /// Feature names.
        feature_names: Vec<String>,
        /// Output schema: class, attribute, count, mean, stddev, min, max.
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
            | LogicalPlan::KMeans { schema, .. }
            | LogicalPlan::KMeansAssign { schema, .. }
            | LogicalPlan::PageRank { schema, .. }
            | LogicalPlan::NaiveBayesTrain { schema, .. }
            | LogicalPlan::NaiveBayesPredict { schema, .. }
            | LogicalPlan::ClassStats { schema, .. } => Arc::clone(schema),
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
            LogicalPlan::KMeans { .. } => "KMeans",
            LogicalPlan::KMeansAssign { .. } => "KMeansAssign",
            LogicalPlan::PageRank { .. } => "PageRank",
            LogicalPlan::NaiveBayesTrain { .. } => "NaiveBayesTrain",
            LogicalPlan::NaiveBayesPredict { .. } => "NaiveBayesPredict",
            LogicalPlan::ClassStats { .. } => "ClassStats",
        }
    }

    /// Direct children, in order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::SystemScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::Empty { .. }
            | LogicalPlan::WorkingTable { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs, .. } => inputs.iter().collect(),
            LogicalPlan::RecursiveCte { init, step, .. } => vec![init, step],
            LogicalPlan::Iterate {
                init, step, stop, ..
            } => vec![init, step, stop],
            LogicalPlan::KMeans { data, centers, .. }
            | LogicalPlan::KMeansAssign { data, centers, .. } => vec![data, centers],
            LogicalPlan::PageRank { edges, .. } => vec![edges],
            LogicalPlan::NaiveBayesTrain { data, .. } | LogicalPlan::ClassStats { data, .. } => {
                vec![data]
            }
            LogicalPlan::NaiveBayesPredict { model, data, .. } => vec![model, data],
        }
    }

    /// The scalar expressions this node itself evaluates (not its
    /// inputs').
    pub fn expressions(&self) -> Vec<&ScalarExpr> {
        match self {
            LogicalPlan::TableScan { filter, .. } => filter.iter().collect(),
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter().collect(),
            LogicalPlan::Join { condition, .. } => condition.iter().collect(),
            LogicalPlan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => group_exprs
                .iter()
                .chain(aggregates.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            LogicalPlan::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            LogicalPlan::KMeans { lambda, .. } | LogicalPlan::KMeansAssign { lambda, .. } => {
                lambda.iter().map(BoundLambda::body).collect()
            }
            _ => vec![],
        }
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
        for _ in 0..depth {
            out.push_str("  ");
        }
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
                ..
            } => {
                out.push_str(&format!(
                    " groups={} aggs=[{}]",
                    group_exprs.len(),
                    aggregates
                        .iter()
                        .map(|a| a.func.name().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            LogicalPlan::Limit { limit, offset, .. } => {
                out.push_str(&format!(" limit={limit:?} offset={offset}"));
            }
            LogicalPlan::Iterate { max_iterations, .. } => {
                out.push_str(&format!(" max_iter={max_iterations}"));
            }
            LogicalPlan::KMeans {
                lambda,
                max_iterations,
                ..
            } => {
                out.push_str(&format!(
                    " lambda={} max_iter={max_iterations}",
                    if lambda.is_some() {
                        "custom"
                    } else {
                        "default-L2"
                    }
                ));
            }
            LogicalPlan::PageRank {
                damping,
                epsilon,
                max_iterations,
                ..
            } => {
                out.push_str(&format!(
                    " d={damping} eps={epsilon} max_iter={max_iterations}"
                ));
            }
            LogicalPlan::WorkingTable { name, .. } => {
                out.push_str(&format!(" name={name}"));
            }
            LogicalPlan::SystemScan { view, .. } => {
                out.push_str(&format!(" view={}", view.name()));
            }
            _ => {}
        }
        out.push_str(&annotate(self));
        out.push('\n');
        for c in self.children() {
            c.explain_into(depth + 1, out, annotate);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Build the output schema for a projection from expressions and names.
pub fn project_schema(names: &[String], exprs: &[ScalarExpr]) -> Schema {
    Schema::new(
        names
            .iter()
            .zip(exprs)
            .map(|(n, e)| Field::new(n.clone(), e.data_type()))
            .collect(),
    )
}

/// Schema helper: all-DOUBLE fields with the given names.
pub fn f64_schema(names: &[String]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(n.clone(), DataType::Float64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(scan().children().len(), 0);
        let j = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            condition: None,
            schema: Arc::new(Schema::empty()),
        };
        assert_eq!(j.children().len(), 2);
    }
}
