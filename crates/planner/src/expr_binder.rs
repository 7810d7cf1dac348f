//! Expression binding: unbound AST expressions → typed [`ScalarExpr`]s.

use std::sync::Arc;

use hylite_common::{DataType, Field, HyError, Result, Schema, Value};
use hylite_expr::{AggregateFunction, BinaryOp, ScalarExpr, ScalarFunc, UnaryOp};
use hylite_sql::ast::{BinOp, Expr};

use crate::logical::{AggExpr, LogicalPlan};

/// Binds expressions against one input schema. A plain binder rejects
/// aggregate calls. A grouped one — for the SELECT list, HAVING and ORDER
/// BY of a grouped query — binds over the output of the aggregate node
/// instead: group keys and aggregate calls become its columns, and the
/// aggregates are collected as they are met.
pub struct ExprBinder<'a> {
    schema: &'a Schema,
    grouping: Option<Grouping>,
}

/// A grouped binder's state: the aggregate node's output columns are the
/// keys, then the aggregates.
struct Grouping {
    keys: Vec<ScalarExpr>,
    aggregates: Vec<AggExpr>,
}

impl<'a> ExprBinder<'a> {
    /// Plain binder over `schema`.
    pub fn new(schema: &'a Schema) -> ExprBinder<'a> {
        ExprBinder {
            schema,
            grouping: None,
        }
    }

    /// Grouped binder over `schema` with the query's bound group keys.
    pub fn grouped(schema: &'a Schema, keys: Vec<ScalarExpr>) -> ExprBinder<'a> {
        let grouping = Grouping {
            keys,
            aggregates: Vec::new(),
        };
        ExprBinder {
            schema,
            grouping: Some(grouping),
        }
    }

    /// The relation the bound expressions read, over `input`: `input`
    /// itself for a plain binder, the aggregate node of the keys and of
    /// every aggregate bound so far for a grouped one.
    pub fn read_relation(self, input: LogicalPlan) -> Result<LogicalPlan> {
        let Some(Grouping { keys, aggregates }) = self.grouping else {
            return Ok(input);
        };
        let mut fields = Vec::with_capacity(keys.len() + aggregates.len());
        for (i, key) in keys.iter().enumerate() {
            fields.push(Field::new(format!("key{i}"), key.data_type()));
        }
        for a in &aggregates {
            fields.push(Field::new(a.name.clone(), aggregate_type(a)?));
        }
        Ok(LogicalPlan::Aggregate {
            input: Box::new(input),
            group_exprs: keys,
            aggregates,
            at_best: None,
            schema: Arc::new(Schema::new(fields)),
        })
    }

    /// Bind an expression; aggregate calls are an error for a plain binder.
    pub fn bind(&mut self, e: &Expr) -> Result<ScalarExpr> {
        if let Some(bound) = self.bind_grouped(e)? {
            return Ok(bound);
        }
        match e {
            Expr::Column { qualifier, name } => {
                let idx = self.schema.resolve(qualifier.as_deref(), name)?;
                Ok(ScalarExpr::column(idx, self.schema.field(idx).data_type))
            }
            Expr::Literal(v) => Ok(ScalarExpr::Literal(v.clone())),
            Expr::Binary { op, left, right } => {
                let l = self.bind(left)?;
                let r = self.bind(right)?;
                ScalarExpr::binary(map_binop(*op), l, r)
            }
            Expr::Neg(inner) => ScalarExpr::unary(UnaryOp::Neg, self.bind(inner)?),
            Expr::Not(inner) => ScalarExpr::unary(UnaryOp::Not, self.bind(inner)?),
            Expr::Function {
                name,
                args,
                star,
                distinct,
            } => {
                if is_aggregate(name, *star) {
                    return Err(HyError::Bind(format!(
                        "aggregate function {name}() is not allowed here"
                    )));
                }
                if *star || *distinct {
                    return Err(HyError::Bind(format!(
                        "{name}() does not accept * or DISTINCT"
                    )));
                }
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| HyError::Bind(format!("unknown function '{name}'")))?;
                let bound: Vec<ScalarExpr> =
                    args.iter().map(|a| self.bind(a)).collect::<Result<_>>()?;
                ScalarExpr::func(func, bound)
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                let b: Vec<[ScalarExpr; 2]> = branches
                    .iter()
                    .map(|(c, r)| Ok([self.bind(c)?, self.bind(r)?]))
                    .collect::<Result<_>>()?;
                let e = match else_expr {
                    Some(e) => Some(self.bind(e)?),
                    None => None,
                };
                ScalarExpr::case(b, e)
            }
            Expr::Cast { expr, target } => Ok(ScalarExpr::Cast {
                input: Box::new(self.bind(expr)?),
                target: *target,
            }),
            Expr::IsNull { expr, negated } => Ok(ScalarExpr::IsNull {
                input: Box::new(self.bind(expr)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let input = self.bind(expr)?;
                let values: Vec<Value> = list
                    .iter()
                    .map(|item| {
                        let bound = self.bind(item)?;
                        match bound {
                            ScalarExpr::Literal(v) => Ok(v),
                            other if other.is_constant() => {
                                other.eval_row(&hylite_common::Row::default())
                            }
                            _ => Err(HyError::Bind(
                                "IN list items must be constant expressions".into(),
                            )),
                        }
                    })
                    .collect::<Result<_>>()?;
                Ok(ScalarExpr::InList {
                    input: Box::new(input),
                    list: values,
                    negated: *negated,
                })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // e BETWEEN a AND b  ⇒  e >= a AND e <= b (negated: OR of
                // complements), binding `e` once per side.
                let ge = ScalarExpr::binary(BinaryOp::GtEq, self.bind(expr)?, self.bind(low)?)?;
                let le = ScalarExpr::binary(BinaryOp::LtEq, self.bind(expr)?, self.bind(high)?)?;
                let both = ScalarExpr::binary(BinaryOp::And, ge, le)?;
                if *negated {
                    ScalarExpr::unary(UnaryOp::Not, both)
                } else {
                    Ok(both)
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let input = self.bind(expr)?;
                let pattern = match self.bind(pattern)? {
                    ScalarExpr::Literal(Value::Str(s)) => s,
                    other => {
                        return Err(HyError::Bind(format!(
                            "LIKE pattern must be a string literal, got {other}"
                        )))
                    }
                };
                if input.data_type() != DataType::Varchar && input.data_type() != DataType::Null {
                    return Err(HyError::Type(format!(
                        "LIKE requires VARCHAR, got {}",
                        input.data_type()
                    )));
                }
                Ok(ScalarExpr::Like {
                    input: Box::new(input),
                    pattern,
                    negated: *negated,
                })
            }
        }
    }

    /// A grouped binder's look at `e` before the arms of [`ExprBinder::bind`]:
    /// a sub-expression equal to a group key becomes the key's column, a
    /// constant stays as it is, an aggregate call becomes its aggregate's
    /// column, and a bare column is an error. `None` leaves `e` to those arms — always, for a plain binder.
    fn bind_grouped(&mut self, e: &Expr) -> Result<Option<ScalarExpr>> {
        let Some(grouping) = &mut self.grouping else {
            return Ok(None);
        };
        let mut plain = ExprBinder::new(self.schema);
        if let Expr::Function {
            name,
            args,
            star,
            distinct,
        } = e
        {
            if is_aggregate(name, *star) {
                if *distinct {
                    return Err(HyError::Bind(
                        "DISTINCT aggregates are not supported".into(),
                    ));
                }
                let (func, arg) = if *star {
                    (AggregateFunction::CountStar, None)
                } else {
                    let func = AggregateFunction::from_name(name).expect("checked above");
                    if args.len() != 1 {
                        return Err(HyError::Bind(format!(
                            "{name}() expects exactly one argument"
                        )));
                    }
                    (func, Some(plain.bind(&args[0])?))
                };
                return grouping.aggregate(func, arg).map(Some);
            }
        }
        if !contains_aggregate(e) {
            if let Ok(bound) = plain.bind(e) {
                if let Some(i) = grouping.keys.iter().position(|k| *k == bound) {
                    return Ok(Some(ScalarExpr::column(i, bound.data_type())));
                }
                if bound.is_constant() {
                    return Ok(Some(bound));
                }
            }
        }
        if let Expr::Column { qualifier, name } = e {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.clone(),
            };
            return Err(HyError::Bind(format!(
                "column '{full}' must appear in the GROUP BY clause or be used in an aggregate"
            )));
        }
        Ok(None)
    }
}

impl Grouping {
    /// The aggregate node's column of `func(arg)`, registered on first use
    /// so that `HAVING count(*) > 2` and `SELECT count(*)` share one
    /// accumulator.
    fn aggregate(
        &mut self,
        func: AggregateFunction,
        arg: Option<ScalarExpr>,
    ) -> Result<ScalarExpr> {
        let same = |a: &AggExpr| a.func == func && a.arg == arg;
        let at = match self.aggregates.iter().position(same) {
            Some(at) => at,
            None => {
                let name = func.name().replace("(*)", "_star");
                self.aggregates.push(AggExpr { func, arg, name });
                self.aggregates.len() - 1
            }
        };
        let data_type = aggregate_type(&self.aggregates[at])?;
        Ok(ScalarExpr::column(self.keys.len() + at, data_type))
    }
}

/// Whether a call of `name` is an aggregate (`count(*)` included).
fn is_aggregate(name: &str, star: bool) -> bool {
    AggregateFunction::from_name(name).is_some() || (star && name == "count")
}

/// The output type of an aggregate.
fn aggregate_type(a: &AggExpr) -> Result<DataType> {
    let input = a
        .arg
        .as_ref()
        .map_or(DataType::Int64, ScalarExpr::data_type);
    a.func.result_type(input)
}

/// Map an AST operator to the bound operator.
fn map_binop(op: BinOp) -> BinaryOp {
    match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Mod => BinaryOp::Mod,
        BinOp::Pow => BinaryOp::Pow,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::NotEq => BinaryOp::NotEq,
        BinOp::Lt => BinaryOp::Lt,
        BinOp::LtEq => BinaryOp::LtEq,
        BinOp::Gt => BinaryOp::Gt,
        BinOp::GtEq => BinaryOp::GtEq,
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
    }
}

/// Whether the AST expression contains any aggregate function call.
pub fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, star, .. } => is_aggregate(name, *star),
        Expr::Column { .. } | Expr::Literal(_) => false,
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Neg(i) | Expr::Not(i) => contains_aggregate(i),
        Expr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .any(|(c, r)| contains_aggregate(c) || contains_aggregate(r))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_sql::parse_expression;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64).with_qualifier("t"),
            Field::new("b", DataType::Float64).with_qualifier("t"),
            Field::new("s", DataType::Varchar).with_qualifier("t"),
        ])
    }

    fn bind(sql: &str) -> Result<ScalarExpr> {
        let s = schema();
        let e = parse_expression(sql)?;
        ExprBinder::new(&s).bind(&e)
    }

    fn aggregates(binder: &ExprBinder<'_>) -> usize {
        binder.grouping.as_ref().map_or(0, |g| g.aggregates.len())
    }

    #[test]
    fn binds_columns_and_arith() {
        let e = bind("a + b * 2").unwrap();
        assert_eq!(e.data_type(), DataType::Float64);
        assert_eq!(e.to_string(), "(#0 + (#1 * 2))");
    }

    #[test]
    fn binds_qualified() {
        let e = bind("t.a").unwrap();
        assert_eq!(e.to_string(), "#0");
        assert!(bind("u.a").is_err());
    }

    #[test]
    fn between_expands() {
        let e = bind("a BETWEEN 1 AND 3").unwrap();
        assert_eq!(e.to_string(), "((#0 >= 1) AND (#0 <= 3))");
    }

    #[test]
    fn like_requires_string() {
        assert!(bind("s LIKE 'a%'").is_ok());
        assert!(bind("a LIKE 'a%'").is_err());
        assert!(bind("s LIKE s").is_err(), "pattern must be a literal");
    }

    #[test]
    fn in_list_constants_only() {
        assert!(bind("a IN (1, 2, 3)").is_ok());
        assert!(bind("a IN (1, b)").is_err());
    }

    #[test]
    fn rejects_aggregates_in_plain_context() {
        assert!(matches!(bind("sum(a)"), Err(HyError::Bind(_))));
        assert!(matches!(bind("count(*)"), Err(HyError::Bind(_))));
    }

    #[test]
    fn unknown_function() {
        assert!(bind("frobnicate(a)").is_err());
    }

    #[test]
    fn grouped_binder_collects() {
        let s = schema();
        let group = vec![ScalarExpr::column(0, DataType::Int64)];
        let mut binder = ExprBinder::grouped(&s, group);
        let mut bind = |sql: &str| binder.bind(&parse_expression(sql).unwrap()).unwrap();
        // a, sum(b) + count(*), having-style: count(*) > 1
        assert_eq!(bind("a").to_string(), "#0");
        assert_eq!(bind("sum(b) + count(*)").to_string(), "(#1 + #2)");
        // count(*) reused, not duplicated
        assert_eq!(bind("count(*) > 1").to_string(), "(#2 > 1)");
        // Plain binding's arms, over the aggregate's columns.
        assert_eq!(
            bind("count(*) BETWEEN 1 AND 3").to_string(),
            "((#2 >= 1) AND (#2 <= 3))"
        );
        assert_eq!(bind("a IN (1, 2)").to_string(), "(#0 IN (1, 2))");
        assert_eq!(aggregates(&binder), 2);
    }

    #[test]
    fn grouped_binder_rejects_ungrouped_column() {
        let s = schema();
        for sql in ["a + sum(b)", "a BETWEEN 1 AND 2", "b IN (1.0)"] {
            let mut binder = ExprBinder::grouped(&s, vec![]);
            let err = binder.bind(&parse_expression(sql).unwrap()).unwrap_err();
            assert!(
                err.to_string()
                    .contains("must appear in the GROUP BY clause"),
                "{sql}: {err}"
            );
        }
    }

    #[test]
    fn group_key_expression_match() {
        let s = schema();
        let key = ExprBinder::new(&s)
            .bind(&parse_expression("a % 2").unwrap())
            .unwrap();
        let mut binder = ExprBinder::grouped(&s, vec![key]);
        let e = binder.bind(&parse_expression("a % 2").unwrap()).unwrap();
        assert_eq!(e.to_string(), "#0");
        let like = ExprBinder::grouped(&s, vec![ScalarExpr::column(2, DataType::Varchar)])
            .bind(&parse_expression("s LIKE 'x%'").unwrap())
            .unwrap();
        assert_eq!(like.to_string(), "(#0 LIKE 'x%')");
    }
}
