//! Unbound SQL abstract syntax tree.
//!
//! Produced by [`crate::parser`], consumed by `hylite-planner`'s binder.
//! Expressions here carry names, not resolved column indices or types.

use std::fmt;

use hylite_common::{DataType, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...` (possibly with CTEs, set ops, ORDER BY, LIMIT).
    Query(Query),
    /// `CREATE TABLE name (col type, ...)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
        /// `IF NOT EXISTS` given.
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        /// Table name.
        name: String,
        /// `IF EXISTS` given.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES ... | SELECT ...`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row source.
        source: Box<Query>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE ...]`.
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// `DELETE FROM name [WHERE ...]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// `BEGIN`.
    Begin,
    /// `COMMIT`.
    Commit,
    /// `ROLLBACK`.
    Rollback,
    /// `SET <setting> = <value>` (also `SET <setting> TO <value>`) — a
    /// session knob such as `statement_timeout_ms` or `memory_budget_mb`.
    Set {
        /// Setting name (lower-cased identifier).
        name: String,
        /// The value; which kind a setting takes is the session's business.
        value: SetValue,
    },
    /// `EXPLAIN [ANALYZE] <statement>` — show the optimized plan; with
    /// `ANALYZE`, execute the statement and annotate each operator with
    /// its actual row counts and timings.
    Explain {
        /// The statement being explained.
        statement: Box<Statement>,
        /// Whether `ANALYZE` was given.
        analyze: bool,
    },
    /// `BACKUP TO 'dir' [FROM 'base'] [VERIFY]` — online backup of the
    /// database into a directory; `FROM` makes it incremental against an
    /// earlier backup, `VERIFY` re-reads every copied file before the
    /// backup is marked complete.
    Backup {
        /// Destination directory.
        dir: String,
        /// Optional incremental base backup directory.
        base: Option<String>,
        /// Whether `VERIFY` was given.
        verify: bool,
    },
}

impl Statement {
    /// Whether the statement would mutate data or schema. `EXPLAIN
    /// ANALYZE` executes its inner statement, so it writes when the inner
    /// statement does; plain `EXPLAIN` never executes anything.
    pub fn writes(&self) -> bool {
        match self {
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. } => true,
            Statement::Explain {
                statement,
                analyze: true,
            } => statement.writes(),
            _ => false,
        }
    }
}

/// A query: optional CTEs around a set expression, plus ordering/limits.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `WITH [RECURSIVE]` definitions, in order.
    pub ctes: Vec<Cte>,
    /// Whether `RECURSIVE` was given.
    pub recursive: bool,
    /// The query body.
    pub body: SetExpr,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderByExpr>,
    /// `LIMIT` expression (constant).
    pub limit: Option<Expr>,
    /// `OFFSET` expression (constant).
    pub offset: Option<Expr>,
}

impl Query {
    /// A plain query around a body with no CTEs/ordering.
    pub fn plain(body: SetExpr) -> Query {
        Query {
            ctes: vec![],
            recursive: false,
            body,
            order_by: vec![],
            limit: None,
            offset: None,
        }
    }
}

/// One common table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Cte {
    /// CTE name.
    pub name: String,
    /// Optional column alias list.
    pub columns: Option<Vec<String>>,
    /// Defining query.
    pub query: Box<Query>,
}

/// The body of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    /// A `SELECT` block.
    Select(Box<Select>),
    /// `UNION [ALL]`.
    Union {
        /// Left input.
        left: Box<SetExpr>,
        /// Right input.
        right: Box<SetExpr>,
        /// `ALL` keeps duplicates.
        all: bool,
    },
    /// `VALUES (..), (..)`.
    Values(Vec<Vec<Expr>>),
    /// A parenthesized query.
    Query(Box<Query>),
}

/// A `SELECT` block.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `DISTINCT` given.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// Comma-separated `FROM` items (implicit cross join).
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` keys.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`.
    QualifiedWildcard(String),
    /// An expression with optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// A `FROM` item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table (or CTE) by name.
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// Parenthesized subquery.
    Subquery {
        /// The subquery.
        query: Box<Query>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// Explicit join.
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// `ON` condition (absent for CROSS JOIN).
        on: Option<Expr>,
    },
    /// A built-in table function (ITERATE / analytics operators).
    TableFunction {
        /// The function with its arguments.
        func: TableFunc,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN`.
    Cross,
}

/// Built-in table functions — the paper's iteration and analytics
/// operators as they appear in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFunc {
    /// `ITERATE(init, step, stop [, max_iterations])` (§5.1).
    Iterate {
        /// Initialization subquery; its result seeds the `iterate` table.
        init: Box<Query>,
        /// Step subquery; may reference `iterate`.
        step: Box<Query>,
        /// Stop condition subquery; iteration stops when it yields rows.
        stop: Box<Query>,
        /// Optional iteration cap (defaults to the engine guard limit).
        max_iterations: Option<Expr>,
    },
    /// `KMEANS(data, centers [, lambda] [, max_iterations])` (§6.1/§7).
    KMeans {
        /// Data subquery (numeric columns = dimensions).
        data: Box<Query>,
        /// Initial centers subquery (same width as data).
        centers: Box<Query>,
        /// Distance lambda `λ(a, b) ...`; default is squared L2.
        distance: Option<Lambda>,
        /// Maximum iterations (defaults to convergence).
        max_iterations: Option<Expr>,
    },
    /// `KMEANS_ASSIGN(data, centers [, lambda])` — the model-application
    /// step: returns data rows plus their nearest center's index.
    KMeansAssign {
        /// Data subquery.
        data: Box<Query>,
        /// Centers subquery.
        centers: Box<Query>,
        /// Distance lambda; default squared L2.
        distance: Option<Lambda>,
    },
    /// `PAGERANK(edges, damping, epsilon [, max_iterations])` (§6.3).
    PageRank {
        /// Edge list subquery: two integer columns (src, dest).
        edges: Box<Query>,
        /// Damping factor d.
        damping: Expr,
        /// Convergence threshold ε.
        epsilon: Expr,
        /// Maximum iterations.
        max_iterations: Option<Expr>,
    },
    /// `NAIVE_BAYES_TRAIN(data [, label_column])` (§6.2); the label
    /// defaults to the last column.
    NaiveBayesTrain {
        /// Training data subquery (features + label).
        data: Box<Query>,
        /// Label column name.
        label_column: Option<String>,
    },
    /// `NAIVE_BAYES_PREDICT(model, data)` — applies a trained model.
    NaiveBayesPredict {
        /// Model subquery (as produced by NAIVE_BAYES_TRAIN).
        model: Box<Query>,
        /// Unlabeled data subquery.
        data: Box<Query>,
    },
    /// `CLASS_STATS(data [, label_column])` — the reusable per-class
    /// statistics building block (count, mean, stddev per class and
    /// attribute).
    ClassStats {
        /// Data subquery (features + label).
        data: Box<Query>,
        /// Label column name.
        label_column: Option<String>,
    },
}

impl TableFunc {
    /// The SQL name of this function.
    pub fn name(&self) -> &'static str {
        match self {
            TableFunc::Iterate { .. } => "ITERATE",
            TableFunc::KMeans { .. } => "KMEANS",
            TableFunc::KMeansAssign { .. } => "KMEANS_ASSIGN",
            TableFunc::PageRank { .. } => "PAGERANK",
            TableFunc::NaiveBayesTrain { .. } => "NAIVE_BAYES_TRAIN",
            TableFunc::NaiveBayesPredict { .. } => "NAIVE_BAYES_PREDICT",
            TableFunc::ClassStats { .. } => "CLASS_STATS",
        }
    }
}

/// A lambda expression `LAMBDA(a, b) body` / `λ(a, b) body`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Parameter names (tuple variables).
    pub params: Vec<String>,
    /// Body over `param.attribute` references.
    pub body: Expr,
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByExpr {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub asc: bool,
}

/// AST binary operators (unbound; `hylite-expr` has the bound version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Pow,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "^",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, possibly qualified.
    Column {
        /// Table/alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Function call — scalar or aggregate, resolved by the binder.
    Function {
        /// Function name (lowercase).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `COUNT(*)` is represented as `count` with `star = true`.
        star: bool,
        /// `DISTINCT` inside an aggregate (only COUNT supported).
        distinct: bool,
    },
    /// Searched CASE.
    Case {
        /// `(condition, result)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// ELSE result.
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Operand.
        expr: Box<Expr>,
        /// Target type.
        target: DataType,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidates.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern (must be a string literal).
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Binary helper.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Function {
                name,
                args,
                star,
                distinct,
            } => {
                write!(f, "{name}(")?;
                if *star {
                    write!(f, "*")?;
                } else {
                    if *distinct {
                        write!(f, "DISTINCT ")?;
                    }
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                }
                write!(f, ")")
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "CASE")?;
                for (c, r) in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast { expr, target } => write!(f, "CAST({expr} AS {target})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "))")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_expressions() {
        let e = Expr::bin(BinOp::Add, Expr::col("x"), Expr::lit(1i64));
        assert_eq!(e.to_string(), "(x + 1)");
        let e = Expr::Function {
            name: "count".into(),
            args: vec![],
            star: true,
            distinct: false,
        };
        assert_eq!(e.to_string(), "count(*)");
        let e = Expr::Literal(Value::from("a'b"));
        assert_eq!(e.to_string(), "'a''b'");
    }

    #[test]
    fn table_func_names() {
        let q = Box::new(Query::plain(SetExpr::Values(vec![vec![Expr::lit(1i64)]])));
        let f = TableFunc::PageRank {
            edges: q,
            damping: Expr::lit(0.85),
            epsilon: Expr::lit(0.0),
            max_iterations: None,
        };
        assert_eq!(f.name(), "PAGERANK");
    }
}

/// The value of a `SET` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetValue {
    /// An integer; `0` disables a knob, negative values are rejected by
    /// the binder.
    Number(i64),
    /// `on` or `off`.
    Switch(bool),
}

impl fmt::Display for SetValue {
    /// The value as `SET` spells it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetValue::Number(n) => write!(f, "{n}"),
            SetValue::Switch(on) => f.write_str(if *on { "on" } else { "off" }),
        }
    }
}
