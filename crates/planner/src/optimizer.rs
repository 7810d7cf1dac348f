//! Rule-based logical optimizer.
//!
//! Rules applied to fixpoint (bounded pass count):
//!
//! 1. constant folding inside scalar expressions;
//! 2. predicate simplification (`TRUE AND p` → `p`, filters on constant
//!    predicates dropped or turned into empty relations);
//! 3. filter merging (`Filter(Filter(x))` → one conjunction);
//! 4. predicate pushdown — through projections, sorts, unions, into join
//!    sides and finally into table scans. Following §5.2 of the paper,
//!    predicates are **not** pushed through aggregates or analytical
//!    operators (k-Means, PageRank, Naive Bayes, Iterate, recursive CTEs):
//!    their results depend on the whole input, so the rewrite would be
//!    unsound;
//! 5. projection merging.
//!
//! Then, once each: the n:1 join first and the groupjoin (each unless its
//! [`Rules`] bit is off), and a top-down required-columns pass: every
//! table scan keeps exactly the columns its ancestors use (its own
//! filter's included), so that storage loads no other column's blocks.

use std::sync::Arc;

use hylite_common::{DataType, Result, Row, Schema, Value};
use hylite_expr::{AggregateFunction, BinaryOp, ScalarExpr};

use crate::binder::columns_of;
use crate::logical::{column_of, column_pairs, AggExpr, JoinKind, LogicalPlan};

/// The rewrites that can be switched off, as a bit set: every one is on by
/// default and gives the same bits as the plan it replaces, so a test
/// compares each with [`Rules::NONE`]. The executor reads
/// [`Rules::BROADCAST_CROSS`]; the optimizer the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rules(u8);

impl Rules {
    /// The n:1 join first: `(A ⋈ B) ⋈ U`, U unique on its join key, runs
    /// as `(A ⋈ U) ⋈ B`.
    pub const JOIN_REORDER: Rules = Rules(1);
    /// A join against a group-by of the same relation on `(key, v =
    /// min(v))` runs as one arg-min aggregate.
    pub const GROUPJOIN: Rules = Rules(2);
    /// An aggregate over a projection of `P × C`, keyed on P's columns,
    /// evaluates the projection once per C row instead of building `P × C`.
    pub const BROADCAST_CROSS: Rules = Rules(4);
    /// Each rule on its own.
    pub const EACH: [Rules; 3] = [Rules(1), Rules(2), Rules(4)];
    /// Every rule: the default.
    pub const ALL: Rules = Rules(7);
    /// No rule: the reference each rule is compared with.
    pub const NONE: Rules = Rules(0);

    /// These rules with `rule` switched off.
    pub const fn without(self, rule: Rules) -> Rules {
        Rules(self.0 & !rule.0)
    }

    /// Whether `rule` is on.
    pub const fn has(self, rule: Rules) -> bool {
        self.0 & rule.0 == rule.0
    }
}

impl Default for Rules {
    fn default() -> Rules {
        Rules::ALL
    }
}

/// The optimizer and the [`Rules`] it runs; `optimize` consumes and
/// returns plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Optimizer {
    rules: Rules,
}

/// Maximum rewrite passes before we stop (each pass is a full-tree walk).
const MAX_PASSES: usize = 8;

impl Optimizer {
    /// A new optimizer, every rule on.
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// This optimizer with only `rules` on.
    pub fn with_rules(self, rules: Rules) -> Optimizer {
        Optimizer { rules }
    }

    /// Optimize a plan.
    pub fn optimize(&self, mut plan: LogicalPlan) -> Result<LogicalPlan> {
        for _ in 0..MAX_PASSES {
            let before = plan.clone();
            plan = rewrite(plan)?;
            if plan == before {
                break;
            }
        }
        if self.rules.has(Rules::JOIN_REORDER) {
            reorder(&mut plan);
        }
        if self.rules.has(Rules::GROUPJOIN) {
            plan = groupjoin(plan)?;
        }
        let every_column = vec![true; plan.schema().len()];
        Ok(prune_columns(plan, every_column)?.0)
    }
}

/// One bottom-up rewrite pass.
fn rewrite(plan: LogicalPlan) -> Result<LogicalPlan> {
    // First rewrite children.
    let mut plan = plan.map_children(rewrite)?;
    // Then apply local rules: constant folding in every expression the
    // node carries (a lambda body's parameters are columns, and stay)...
    for e in plan.expressions_mut() {
        fold_slot(e);
    }
    // ... and the rules that look at the node's input.
    match plan {
        LogicalPlan::Filter { input, predicate } => rewrite_filter(*input, predicate),
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => rewrite_project(*input, exprs, schema),
        other => Ok(other),
    }
}

// ------------------------------------------------------- constant folding

/// Recursively replace the constant sub-expressions a slot holds with
/// literals; true when what is left reads no column. Evaluation errors
/// (like division by zero) leave the expression untouched so the error
/// surfaces at run time only if the row is actually produced.
fn fold_slot(slot: &mut ScalarExpr) -> bool {
    let (folded, constant) = fold(std::mem::replace(slot, ScalarExpr::Literal(Value::Null)));
    *slot = folded;
    constant
}

fn fold(mut e: ScalarExpr) -> (ScalarExpr, bool) {
    // Fold children first, where they are: every one of them, so `&`.
    let constant = match &mut e {
        ScalarExpr::Literal(_) => return (e, true),
        ScalarExpr::Column { .. } => return (e, false),
        node => node
            .children_mut()
            .fold(true, |c, child| fold_slot(child) & c),
    };
    // Boolean short-circuits that are sound under 3VL:
    // FALSE AND x = FALSE,  TRUE OR x = TRUE,
    // TRUE AND x = x,       FALSE OR x = x.
    if let ScalarExpr::Binary {
        op: op @ (BinaryOp::And | BinaryOp::Or),
        left,
        right,
        data_type,
    } = e
    {
        // The truth value that decides the result; the other one drops out
        // (and, a literal, leaves `constant` to the operand that stays).
        let absorbing = op == BinaryOp::Or;
        let is =
            |e: &ScalarExpr, b: bool| matches!(e, ScalarExpr::Literal(Value::Bool(x)) if *x == b);
        if is(&left, absorbing) || is(&right, absorbing) {
            return (ScalarExpr::Literal(Value::Bool(absorbing)), true);
        }
        if is(&left, !absorbing) {
            return (*right, constant);
        }
        if is(&right, !absorbing) {
            return (*left, constant);
        }
        e = ScalarExpr::Binary {
            op,
            left,
            right,
            data_type,
        };
    }
    // Whole-expression fold when constant.
    let Some(v) = constant.then(|| e.eval_row(&Row::default()).ok()).flatten() else {
        return (e, constant);
    };
    // Preserve the static type: an Int result for a Float64-typed
    // expression must stay a Float literal, and a NULL result of a typed
    // expression must keep its type (as CAST(NULL AS T)).
    if v.is_null() && e.data_type() != hylite_common::DataType::Null {
        e = ScalarExpr::Cast {
            input: Box::new(ScalarExpr::Literal(Value::Null)),
            target: e.data_type(),
        };
    } else if v.data_type() == e.data_type() {
        e = ScalarExpr::Literal(v);
    } else if let Ok(cast) = v.cast_to(e.data_type()) {
        e = ScalarExpr::Literal(cast);
    }
    (e, constant)
}

// ------------------------------------------------------ filter pushdown

fn rewrite_filter(input: LogicalPlan, predicate: ScalarExpr) -> Result<LogicalPlan> {
    // Constant predicates.
    if let ScalarExpr::Literal(v) = &predicate {
        match v {
            Value::Bool(true) => return Ok(input),
            Value::Bool(false) | Value::Null => {
                let schema = input.schema();
                return Ok(LogicalPlan::Values {
                    schema,
                    rows: vec![],
                });
            }
            _ => {}
        }
    }
    match input {
        // Merge adjacent filters.
        LogicalPlan::Filter {
            input: inner,
            predicate: p2,
        } => {
            let merged = ScalarExpr::binary(BinaryOp::And, p2, predicate)?;
            rewrite_filter(*inner, merged)
        }
        // Push through projection by substituting the projected
        // expressions into the predicate.
        LogicalPlan::Project {
            input: inner,
            exprs,
            schema,
        } => {
            let mut predicate = predicate;
            predicate.replace_columns(&|i| Some(exprs[i].clone()));
            Ok(LogicalPlan::Project {
                input: Box::new(LogicalPlan::Filter {
                    input: inner,
                    predicate,
                }),
                exprs,
                schema,
            })
        }
        // Push below sorts (safe: filtering commutes with ordering).
        LogicalPlan::Sort { input: inner, keys } => Ok(LogicalPlan::Sort {
            input: Box::new(LogicalPlan::Filter {
                input: inner,
                predicate,
            }),
            keys,
        }),
        // Push into every UNION branch.
        LogicalPlan::Union {
            inputs,
            all,
            schema,
        } => Ok(LogicalPlan::Union {
            inputs: inputs
                .into_iter()
                .map(|i| LogicalPlan::Filter {
                    input: Box::new(i),
                    predicate: predicate.clone(),
                })
                .collect(),
            all,
            schema,
        }),
        // Split conjuncts across join sides.
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            let mut push_left = Vec::new();
            let mut push_right = Vec::new();
            let mut keep = Vec::new();
            for c in conjuncts {
                let mut refs = Vec::new();
                c.referenced_columns(&mut refs);
                let all_left = refs.iter().all(|&i| i < left_width);
                let all_right = refs.iter().all(|&i| i >= left_width);
                // For LEFT joins only left-side predicates commute.
                if all_left {
                    push_left.push(c);
                } else if all_right && kind != JoinKind::Left {
                    push_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let left = apply_conjuncts(*left, push_left, 0)?;
            let right = apply_conjuncts(*right, push_right, left_width)?;
            let mut plan = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                condition,
                schema,
            };
            if let Some(rest) = conjoin(keep)? {
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: rest,
                };
            }
            Ok(plan)
        }
        // Push into the scan itself — evaluated during the scan.
        LogicalPlan::TableScan {
            table,
            table_schema,
            projection,
            filter,
            schema,
        } => {
            let filter = match filter {
                Some(f) => Some(ScalarExpr::binary(BinaryOp::And, f, predicate)?),
                None => Some(predicate),
            };
            Ok(LogicalPlan::TableScan {
                table,
                table_schema,
                projection,
                filter,
                schema,
            })
        }
        // Everything else (Aggregate, analytics operators, Iterate,
        // RecursiveCte, Limit, Distinct, ...) is a pushdown barrier.
        other => Ok(LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

fn split_conjuncts(e: ScalarExpr, out: &mut Vec<ScalarExpr>) {
    match e {
        ScalarExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
            ..
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn conjoin(mut parts: Vec<ScalarExpr>) -> Result<Option<ScalarExpr>> {
    let Some(mut acc) = parts.pop() else {
        return Ok(None);
    };
    while let Some(p) = parts.pop() {
        acc = ScalarExpr::binary(BinaryOp::And, p, acc)?;
    }
    Ok(Some(acc))
}

fn apply_conjuncts(
    plan: LogicalPlan,
    conjuncts: Vec<ScalarExpr>,
    offset: usize,
) -> Result<LogicalPlan> {
    let Some(mut pred) = conjoin(conjuncts)? else {
        return Ok(plan);
    };
    if offset > 0 {
        // Remap from join-output indices to right-input indices.
        let width = plan.schema().len() + offset;
        let mapping: Vec<usize> = (0..width).map(|i| i.saturating_sub(offset)).collect();
        pred.remap_columns(&mapping);
    }
    Ok(LogicalPlan::Filter {
        input: Box::new(plan),
        predicate: pred,
    })
}

// ------------------------------------------------- required columns

/// Mark the columns `exprs` read.
fn mark_columns<'a>(exprs: impl IntoIterator<Item = &'a ScalarExpr>, used: &mut [bool]) {
    let mut refs = Vec::new();
    for e in exprs {
        e.referenced_columns(&mut refs);
    }
    for i in refs {
        used[i] = true;
    }
}

/// Where each old column lands once only the `kept` ones remain.
fn positions_after(kept: &[bool]) -> Vec<usize> {
    let mut next = 0;
    kept.iter()
        .map(|&k| {
            let at = next;
            next += usize::from(k);
            at
        })
        .collect()
}

/// Narrow every table scan under `plan` to the columns that are used:
/// `required` marks the output columns of `plan` its parent reads, each
/// node adds what its own expressions read and asks its inputs for the
/// sum. Nodes whose output is their input's (filter, sort, limit, join)
/// pass a narrower input through and report where the surviving columns
/// moved — the returned old→new positions, `None` when nothing moved, as
/// is always the case when every column is required. Nodes with a schema
/// of their own (projection, aggregate, distinct, union, loops, analytics
/// operators) need all of it and stop the narrowing of their output, not
/// of what lies below them.
fn prune_columns(
    plan: LogicalPlan,
    required: Vec<bool>,
) -> Result<(LogicalPlan, Option<Vec<usize>>)> {
    let remap = |e: &mut ScalarExpr, moved: &Option<Vec<usize>>| {
        if let Some(m) = moved {
            e.remap_columns(m);
        }
    };
    match plan {
        LogicalPlan::TableScan {
            table,
            table_schema,
            mut projection,
            mut filter,
            mut schema,
        } => {
            let mut used = required;
            mark_columns(&filter, &mut used);
            let moved = (!used.iter().all(|&u| u)).then(|| positions_after(&used));
            if moved.is_some() {
                if let Some(f) = &mut filter {
                    remap(f, &moved);
                }
                let kept: Vec<usize> = (0..used.len()).filter(|&i| used[i]).collect();
                let fields = kept.iter().map(|&i| schema.field(i).clone()).collect();
                schema = Arc::new(Schema::new(fields));
                // Compose with an existing table-level projection.
                projection = Some(match &projection {
                    Some(p) => kept.iter().map(|&i| p[i]).collect(),
                    None => kept,
                });
            }
            let scan = LogicalPlan::TableScan {
                table,
                table_schema,
                projection,
                filter,
                schema,
            };
            Ok((scan, moved))
        }
        // One input, read through the node's expressions; a filter, sort or
        // limit hands its other columns on to a parent that may read them.
        mut node @ (LogicalPlan::Filter { .. }
        | LogicalPlan::Sort { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::Project { .. }
        | LogicalPlan::Aggregate { .. }) => {
            let computes = matches!(
                node,
                LogicalPlan::Project { .. } | LogicalPlan::Aggregate { .. }
            );
            let mut used = if computes {
                vec![false; node.children().next().map_or(0, |c| c.schema().len())]
            } else {
                required
            };
            mark_columns(node.expressions(), &mut used);
            let mut moved = None;
            node = node.map_children(|input| {
                let (input, input_moved) = prune_columns(input, std::mem::take(&mut used))?;
                moved = input_moved;
                Ok(input)
            })?;
            for e in node.expressions_mut() {
                remap(e, &moved);
            }
            Ok((node, if computes { None } else { moved }))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            mut condition,
            mut schema,
        } => {
            let left_width = left.schema().len();
            let mut used = required;
            mark_columns(&condition, &mut used);
            let used_right = used.split_off(left_width);
            let (left, moved_left) = prune_columns(*left, used)?;
            let (right, moved_right) = prune_columns(*right, used_right)?;
            let mut moved = None;
            if moved_left.is_some() || moved_right.is_some() {
                let (left_schema, right_schema) = (left.schema(), right.schema());
                let side = |moved: Option<Vec<usize>>, width: usize, base: usize| {
                    let moved = moved.unwrap_or_else(|| (0..width).collect());
                    moved.into_iter().map(move |at| base + at)
                };
                let right_width = schema.len() - left_width;
                let left_moved = side(moved_left, left_width, 0);
                let right_moved = side(moved_right, right_width, left_schema.len());
                moved = Some(left_moved.chain(right_moved).collect());
                if let Some(c) = &mut condition {
                    remap(c, &moved);
                }
                schema = Arc::new(left_schema.join(&right_schema));
            }
            let join = LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                condition,
                schema,
            };
            Ok((join, moved))
        }
        // DISTINCT and UNION compare whole rows; a loop's working table and
        // an analytics operator's inputs are read by position.
        whole_rows => {
            let plan = whole_rows.map_children(|child| {
                let every_column = vec![true; child.schema().len()];
                Ok(prune_columns(child, every_column)?.0)
            })?;
            Ok((plan, None))
        }
    }
}

// ----------------------------------------------------------- join order

/// Join the n:1 side first, bottom-up: `(A ⋈_{a=b} B) ⋈_{a′=u} U` is
/// `π((A ⋈_{a′=u} U) ⋈_{a=b} B)`, the projection putting the columns back
/// in order, when both joins are INNER on `=` of column pairs of one type,
/// the upper one reads A's columns, U is unique on its `u`s and B is not
/// on its `b`s. A hash join emits its probe rows in order, one chunk per
/// probe chunk, so an inner n:1 join is an order-preserving filter that
/// appends columns: the rows above come in the same order and chunks. Key
/// columns cannot fail, and no expression moves.
fn reorder(plan: &mut LogicalPlan) {
    plan.children_mut().for_each(reorder);
    if let Some(first) = n_to_one_first(plan) {
        *plan = first;
    }
}

fn n_to_one_first(plan: &LogicalPlan) -> Option<LogicalPlan> {
    let (lower, u, upper_on) = inner_join(plan)?;
    let (a, b, lower_on) = inner_join(lower)?;
    let (wa, wb, wu) = (a.schema().len(), b.schema().len(), u.schema().len());
    let lower_pairs = column_pairs(Some(lower_on), wa)?;
    let b_cols: Vec<usize> = lower_pairs.iter().map(|&(_, c)| c - wa).collect();
    // The upper join reads A on its left, and U.
    let pairs = column_pairs(Some(upper_on), wa)?.into_iter();
    let u_cols: Vec<usize> = Option::from_iter(pairs.map(|(_, c)| c.checked_sub(wa + wb)))?;
    if !u.is_unique_on(&u_cols) || b.is_unique_on(&b_cols) {
        return None;
    }
    // Where each column of A ++ B ++ U lands in A ++ U ++ B.
    let (b_at, u_at) = (wa + wu..wa + wu + wb, wa..wa + wu);
    let at: Vec<usize> = (0..wa).chain(b_at).chain(u_at).collect();
    let moved = |e: &ScalarExpr| {
        let mut e = e.clone();
        e.remap_columns(&at);
        e
    };
    let inner = join(a.clone(), u.clone(), moved(upper_on));
    Some(LogicalPlan::Project {
        input: Box::new(join(inner, b.clone(), moved(lower_on))),
        exprs: columns_of(&plan.schema()).iter().map(moved).collect(),
        schema: plan.schema(),
    })
}

/// An INNER join's inputs and condition.
fn inner_join(plan: &LogicalPlan) -> Option<(&LogicalPlan, &LogicalPlan, &ScalarExpr)> {
    let inner = matches!(plan, LogicalPlan::Join { kind, .. } if *kind == JoinKind::Inner);
    let mut inputs = plan.children();
    let (left, right) = (inputs.next()?, inputs.next()?);
    Some((left, right, plan.expressions().next().filter(|_| inner)?))
}

/// The INNER join of `left` and `right` on `on`.
fn join(left: LogicalPlan, right: LogicalPlan, on: ScalarExpr) -> LogicalPlan {
    LogicalPlan::Join {
        schema: Arc::new(left.schema().join(&right.schema())),
        left: Box::new(left),
        right: Box::new(right),
        kind: JoinKind::Inner,
        condition: Some(on),
    }
}

// ------------------------------------------------------------ groupjoin

/// The groupjoin (Moerkotte & Neumann, PVLDB 2011), bottom-up:
/// `γ_{K; A}(X ⋈_{K = K′ ∧ v = m} γ_{K′; min(v′)→m}(Y))` is
/// `γ_{K; A | v = min(v)}(X)` when Y's keys and `v′` are X's over an equal
/// input: one hash table instead of three. `max` alike.
fn groupjoin(plan: LogicalPlan) -> Result<LogicalPlan> {
    let plan = plan.map_children(groupjoin)?;
    Ok(fuse(&plan).unwrap_or(plan))
}

/// The groupjoin of `plan`, if it is one. It declines unless the join is
/// INNER on exactly one `=` per key and `v = m`, the outer keys are K in
/// Y's order, no key is a DOUBLE (a group's key cell is its first row's,
/// and `-0.0` would show which), and every aggregate in A reads a column
/// of X and folds to the same bits however its rows are chunked: COUNT,
/// MIN, MAX, or SUM over BIGINT — not a float sum, whose per-chunk
/// partials would move bits.
fn fuse(plan: &LogicalPlan) -> Option<LogicalPlan> {
    use AggregateFunction::*;
    let (input, group_exprs, aggregates) = plain_aggregate(plan)?;
    let (join, outer) = below_picks(input)?;
    let LogicalPlan::Join {
        left: x,
        right,
        kind: JoinKind::Inner,
        condition: Some(on),
        ..
    } = join
    else {
        return None;
    };
    let (inner, right_cols) = below_picks(right)?;
    let (y, keys, best) = plain_aggregate(inner)?;
    // Without keys the inner aggregate's one row is a global MIN, and an
    // empty or all-NULL X still yields the outer's one row: no groupjoin.
    let ([AggExpr { arg: Some(v_y), .. }], false) = (best, keys.is_empty()) else {
        return None;
    };
    // The column of X each output of the inner aggregate is equated with.
    let width = x.schema().len();
    let mut equated = vec![None; keys.len() + 1];
    for (a, b) in column_pairs(Some(on), width)? {
        let slot = equated.get_mut(right_cols[b - width])?;
        if slot.replace(a).is_some() {
            return None;
        }
    }
    let equated: Vec<usize> = equated.into_iter().collect::<Option<_>>()?;
    // Y's keys and `v′` are X's, no key a DOUBLE, over inputs equal to the
    // bit; the outer keys are K, and every aggregate is exact.
    let ((x_exprs, x_input), (y_exprs, y_input)) = (peel(x), peel(y));
    let mut y_is_x = keys.iter().chain([v_y]).zip(&equated).enumerate();
    let y_is_x = y_is_x.all(|(k, (e, &col))| {
        let mut e = e.clone();
        e.replace_columns(&|i| Some(y_exprs[i].clone()));
        e == x_exprs[col] && (k == keys.len() || e.data_type() != DataType::Float64)
    });
    let same_bits = x_input == y_input && !bits_may_differ(x) && !bits_may_differ(y);
    let exact = aggregates.iter().all(|a| match a.func {
        Sum => a.arg.as_ref().map(ScalarExpr::data_type) == Some(DataType::Int64),
        func => matches!(func, CountStar | Count | Min | Max),
    });
    if !(y_is_x && same_bits && exact && matches!(best[0].func, Min | Max)) {
        return None;
    }
    let (mut group_exprs, mut aggregates) = (group_exprs.to_vec(), aggregates.to_vec());
    let args = aggregates.iter_mut().filter_map(|a| a.arg.as_mut());
    for e in group_exprs.iter_mut().chain(args) {
        e.remap_columns(&outer);
        column_of(e).filter(|&c| c < width)?;
    }
    let grouped: Option<Vec<usize>> = group_exprs.iter().map(column_of).collect();
    let (&v, key_cols) = equated.split_last()?;
    let at_best = (best[0].func, ScalarExpr::column(v, x_exprs[v].data_type()));
    (grouped.as_deref() == Some(key_cols)).then(|| LogicalPlan::Aggregate {
        input: x.clone(),
        group_exprs,
        aggregates,
        at_best: Some(at_best),
        schema: plan.schema(),
    })
}

/// An aggregate without a groupjoin's marker: its input, keys and
/// aggregates.
fn plain_aggregate(plan: &LogicalPlan) -> Option<(&LogicalPlan, &[ScalarExpr], &[AggExpr])> {
    match plan {
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            at_best: None,
            ..
        } => Some((input, group_exprs, aggregates)),
        _ => None,
    }
}

/// The node under the column-picking projections on top of `plan`, and
/// which of its columns each of `plan`'s is.
fn below_picks(mut plan: &LogicalPlan) -> Option<(&LogicalPlan, Vec<usize>)> {
    let mut cols: Vec<usize> = (0..plan.schema().len()).collect();
    while let LogicalPlan::Project { input, exprs, .. } = plan {
        cols = cols
            .iter()
            .map(|&c| column_of(&exprs[c]))
            .collect::<Option<_>>()?;
        plan = input;
    }
    Some((plan, cols))
}

/// `plan` as expressions over an input: a projection's, or its own
/// columns.
fn peel(plan: &LogicalPlan) -> (Vec<ScalarExpr>, &LogicalPlan) {
    match plan {
        LogicalPlan::Project { input, exprs, .. } => (exprs.clone(), input),
        other => (columns_of(&other.schema()), other),
    }
}

/// Whether two equal copies of `plan` may compute different bits: a
/// `-0.0` literal (equal to `0.0` under `PartialEq`) or a system view
/// (live state) anywhere in it.
fn bits_may_differ(plan: &LogicalPlan) -> bool {
    let own = plan.holds_negative_zero() || matches!(plan, LogicalPlan::SystemScan { .. });
    own || plan.children().any(bits_may_differ)
}

// ------------------------------------------------------ projection rules

fn rewrite_project(
    input: LogicalPlan,
    mut exprs: Vec<ScalarExpr>,
    schema: hylite_common::SchemaRef,
) -> Result<LogicalPlan> {
    let input = match input {
        // Merge Project(Project(x)) by substitution.
        LogicalPlan::Project {
            input: inner,
            exprs: inner_exprs,
            ..
        } => {
            for e in &mut exprs {
                e.replace_columns(&|i| Some(inner_exprs[i].clone()));
            }
            inner
        }
        other => Box::new(other),
    };
    Ok(LogicalPlan::Project {
        input,
        exprs,
        schema,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggExpr, AnalyticsOp, SortKey};
    use hylite_common::{DataType, Field};

    fn scan(cols: usize) -> LogicalPlan {
        let fields: Vec<Field> = (0..cols)
            .map(|i| Field::new(format!("c{i}"), DataType::Int64))
            .collect();
        let schema = Arc::new(Schema::new(fields));
        LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Arc::clone(&schema),
            projection: None,
            filter: None,
            schema,
        }
    }

    fn col(i: usize) -> ScalarExpr {
        ScalarExpr::column(i, DataType::Int64)
    }

    fn fold_expr(mut e: ScalarExpr) -> ScalarExpr {
        fold_slot(&mut e);
        e
    }

    fn gt(l: ScalarExpr, v: i64) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Gt, l, ScalarExpr::literal(v)).unwrap()
    }

    #[test]
    fn constant_folding() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::literal(1i64),
            ScalarExpr::literal(2i64),
        )
        .unwrap();
        assert_eq!(fold_expr(e), ScalarExpr::literal(3i64));
        // TRUE AND p  →  p
        let p = gt(col(0), 5);
        let e = ScalarExpr::binary(BinaryOp::And, ScalarExpr::literal(true), p.clone()).unwrap();
        assert_eq!(fold_expr(e), p);
        // FALSE AND p  →  FALSE
        let e = ScalarExpr::binary(BinaryOp::And, ScalarExpr::literal(false), p.clone()).unwrap();
        assert_eq!(fold_expr(e), ScalarExpr::literal(false));
    }

    #[test]
    fn fold_preserves_type() {
        // 1 + 1 in a Float64 context (via cast) stays Float64.
        let e = ScalarExpr::Cast {
            input: Box::new(ScalarExpr::literal(2i64)),
            target: DataType::Float64,
        };
        let folded = fold_expr(e);
        assert_eq!(folded, ScalarExpr::literal(2.0f64));
    }

    #[test]
    fn division_by_zero_not_folded() {
        let e = ScalarExpr::binary(
            BinaryOp::Div,
            ScalarExpr::literal(1i64),
            ScalarExpr::literal(0i64),
        )
        .unwrap();
        // Stays intact; the runtime raises the error if the row survives.
        assert!(matches!(fold_expr(e), ScalarExpr::Binary { .. }));
    }

    #[test]
    fn every_expression_of_a_node_is_folded_and_columns_stay() {
        // c0 + (1 + 2): the constant part folds, the column stays.
        let one_plus_two = ScalarExpr::binary(
            BinaryOp::Add,
            ScalarExpr::literal(1i64),
            ScalarExpr::literal(2i64),
        )
        .unwrap();
        let e = ScalarExpr::binary(BinaryOp::Add, col(0), one_plus_two).unwrap();
        let folded = ScalarExpr::binary(BinaryOp::Add, col(0), ScalarExpr::literal(3i64)).unwrap();
        let schema = scan(2).schema();
        let aggregate = LogicalPlan::Aggregate {
            input: Box::new(scan(2)),
            group_exprs: vec![e.clone()],
            aggregates: vec![AggExpr {
                func: hylite_expr::AggregateFunction::Sum,
                arg: Some(e.clone()),
                name: "s".into(),
            }],
            at_best: Some((hylite_expr::AggregateFunction::Min, e.clone())),
            schema: Arc::clone(&schema),
        };
        let sort = LogicalPlan::Sort {
            input: Box::new(scan(2)),
            keys: vec![SortKey {
                expr: e.clone(),
                asc: true,
            }],
        };
        // A lambda's parameters are columns of its two inputs side by side.
        let kmeans = LogicalPlan::Operator {
            op: AnalyticsOp::KMeansAssign {
                lambda: Some(hylite_expr::BoundLambda::new(1, 1, e).unwrap()),
            },
            inputs: vec![scan(1), scan(1)],
            schema,
        };
        for plan in [aggregate, sort, kmeans] {
            let opt = Optimizer::new().optimize(plan).unwrap();
            assert!(opt.expressions().next().is_some());
            for e in opt.expressions() {
                assert_eq!(*e, folded, "{}", opt.op_name());
            }
        }
    }

    #[test]
    fn filter_pushed_into_scan() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(2)),
            predicate: gt(col(0), 1),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        let LogicalPlan::TableScan { filter, .. } = opt else {
            panic!("expected scan, got {opt}");
        };
        assert!(filter.is_some());
    }

    #[test]
    fn filter_true_dropped_false_empties() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: ScalarExpr::literal(true),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        assert!(matches!(opt, LogicalPlan::TableScan { filter: None, .. }));

        let plan = LogicalPlan::Filter {
            input: Box::new(scan(1)),
            predicate: ScalarExpr::literal(false),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        assert!(matches!(opt, LogicalPlan::Values { ref rows, .. } if rows.is_empty()));
    }

    #[test]
    fn filter_splits_across_join() {
        let left = scan(2);
        let right = scan(2);
        let join_schema = Arc::new(left.schema().join(&right.schema()));
        let join = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            condition: Some(ScalarExpr::binary(BinaryOp::Eq, col(0), col(2)).unwrap()),
            schema: join_schema,
        };
        // c1 > 1 (left) AND c3 > 2 (right)
        let pred = ScalarExpr::binary(BinaryOp::And, gt(col(1), 1), gt(col(3), 2)).unwrap();
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: pred,
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        let LogicalPlan::Join { left, right, .. } = opt else {
            panic!("expected join at root, got {opt}");
        };
        let LogicalPlan::TableScan { filter: lf, .. } = *left else {
            panic!("left filter should fold into scan, got {left}");
        };
        assert!(lf.is_some());
        let LogicalPlan::TableScan { filter: rf, .. } = *right else {
            panic!("right filter should fold into scan, got {right}");
        };
        // Remapped to right-local column index 1.
        assert_eq!(rf.unwrap().to_string(), "(#1 > 2)");
    }

    #[test]
    fn left_join_keeps_right_filter_above() {
        let left = scan(1);
        let right = scan(1);
        let join_schema = Arc::new(left.schema().join(&right.schema()));
        let join = LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Left,
            condition: Some(ScalarExpr::binary(BinaryOp::Eq, col(0), col(1)).unwrap()),
            schema: join_schema,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: gt(col(1), 0),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        assert!(
            matches!(opt, LogicalPlan::Filter { .. }),
            "right-side predicate must stay above a LEFT join: {opt}"
        );
    }

    #[test]
    fn filter_not_pushed_through_aggregate() {
        let agg_schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan(2)),
            group_exprs: vec![col(0)],
            aggregates: vec![],
            at_best: None,
            schema: agg_schema,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(agg),
            predicate: gt(col(0), 1),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        assert!(matches!(opt, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_not_pushed_through_analytics() {
        let pr_schema = Arc::new(Schema::new(vec![
            Field::new("vertex", DataType::Int64),
            Field::new("rank", DataType::Float64),
        ]));
        let pr = LogicalPlan::Operator {
            op: AnalyticsOp::PageRank {
                weighted: false,
                damping: 0.85,
                epsilon: 0.0,
                max_iterations: 45,
            },
            inputs: vec![scan(2)],
            schema: pr_schema,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(pr),
            predicate: gt(col(0), 10),
        };
        let opt = Optimizer::new().optimize(plan).unwrap();
        // The filter must remain ABOVE PageRank (§5.2 of the paper).
        let LogicalPlan::Filter { input, .. } = opt else {
            panic!("filter must not cross the analytics operator");
        };
        assert_eq!(input.op_name(), "PageRank");
    }

    #[test]
    fn projection_merges_and_prunes_scan() {
        // SELECT c2 FROM (SELECT c0, c2 FROM t) — two stacked projections.
        let inner = LogicalPlan::Project {
            input: Box::new(scan(4)),
            exprs: vec![col(0), col(2)],
            schema: Arc::new(Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ])),
        };
        let outer = LogicalPlan::Project {
            input: Box::new(inner),
            exprs: vec![col(1)],
            schema: Arc::new(Schema::new(vec![Field::new("b", DataType::Int64)])),
        };
        let opt = Optimizer::new().optimize(outer).unwrap();
        let LogicalPlan::Project { input, exprs, .. } = opt else {
            panic!()
        };
        assert_eq!(exprs.len(), 1);
        let LogicalPlan::TableScan { projection, .. } = *input else {
            panic!("expected pruned scan, got {input}");
        };
        assert_eq!(projection, Some(vec![2]));
        assert_eq!(exprs[0].to_string(), "#0");
    }

    // ---- required columns: one test per node kind the pass walks

    fn project(input: LogicalPlan, exprs: Vec<ScalarExpr>) -> LogicalPlan {
        let fields = (0..exprs.len())
            .map(|i| Field::new(format!("p{i}"), DataType::Int64))
            .collect();
        LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: Arc::new(Schema::new(fields)),
        }
    }

    fn join(left: LogicalPlan, right: LogicalPlan, condition: ScalarExpr) -> LogicalPlan {
        let schema = Arc::new(left.schema().join(&right.schema()));
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind: JoinKind::Inner,
            condition: Some(condition),
            schema,
        }
    }

    fn eq(l: usize, r: usize) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Eq, col(l), col(r)).unwrap()
    }

    fn optimized(plan: LogicalPlan) -> String {
        let once = Optimizer::new().optimize(plan).unwrap();
        let twice = Optimizer::new().optimize(once.clone()).unwrap();
        assert_eq!(once, twice, "not a fixpoint");
        once.explain()
    }

    /// The `TableScan` lines of an EXPLAIN, in order.
    fn scans(explain: &str) -> Vec<&str> {
        explain
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with("TableScan"))
            .collect()
    }

    #[test]
    fn aggregate_reads_only_its_keys_and_arguments() {
        use crate::logical::AggExpr;
        use hylite_expr::AggregateFunction;
        let agg = |group_exprs: Vec<ScalarExpr>, args: Vec<Option<ScalarExpr>>| {
            let width = group_exprs.len() + args.len();
            LogicalPlan::Aggregate {
                input: Box::new(scan(6)),
                group_exprs,
                aggregates: args
                    .into_iter()
                    .map(|arg| AggExpr {
                        func: if arg.is_some() {
                            AggregateFunction::Sum
                        } else {
                            AggregateFunction::CountStar
                        },
                        arg,
                        name: "a".into(),
                    })
                    .collect(),
                at_best: None,
                schema: scan(width).schema(),
            }
        };
        let text = optimized(agg(vec![col(1)], vec![None, Some(col(3)), Some(col(4))]));
        assert_eq!(scans(&text), ["TableScan table=t cols=[1, 3, 4]"], "{text}");
        let LogicalPlan::Aggregate {
            group_exprs,
            aggregates,
            ..
        } = Optimizer::new()
            .optimize(agg(vec![col(1)], vec![Some(col(4))]))
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(group_exprs[0].to_string(), "#0");
        assert_eq!(aggregates[0].arg.as_ref().unwrap().to_string(), "#1");
        // count(*) alone reads no column at all.
        let text = optimized(agg(vec![], vec![None]));
        assert_eq!(scans(&text), ["TableScan table=t cols=[]"], "{text}");
        // A groupjoin's best column is read and renumbered like the rest.
        let mut best = agg(vec![col(1)], vec![None]);
        if let LogicalPlan::Aggregate { at_best, .. } = &mut best {
            *at_best = Some((AggregateFunction::Min, col(5)));
        }
        let text = optimized(best);
        assert_eq!(scans(&text), ["TableScan table=t cols=[1, 5]"], "{text}");
        assert!(text.contains("aggs=[count(*)] at_min=#1"), "{text}");
    }

    #[test]
    fn filter_sort_and_limit_pass_the_narrowing_through() {
        // SELECT c0 FROM (SELECT * FROM t ORDER BY c2 LIMIT 5) WHERE c4 > 1:
        // the filter cannot sink below the LIMIT and stays a node.
        let plan = project(
            LogicalPlan::Filter {
                input: Box::new(LogicalPlan::Limit {
                    input: Box::new(LogicalPlan::Sort {
                        input: Box::new(scan(6)),
                        keys: vec![crate::logical::SortKey {
                            expr: col(2),
                            asc: true,
                        }],
                    }),
                    limit: Some(5),
                    offset: 0,
                }),
                predicate: gt(col(4), 1),
            },
            vec![col(0)],
        );
        let text = optimized(plan);
        assert!(text.contains("Filter predicate=(#2 > 1)"), "{text}");
        assert_eq!(scans(&text), ["TableScan table=t cols=[0, 2, 4]"], "{text}");
        assert!(text.starts_with("Project [#0]"), "{text}");
    }

    #[test]
    fn select_star_under_limit_keeps_the_scan_whole() {
        let plan = LogicalPlan::Limit {
            input: Box::new(scan(4)),
            limit: Some(3),
            offset: 0,
        };
        assert_eq!(scans(&optimized(plan)), ["TableScan table=t"]);
    }

    #[test]
    fn scan_keeps_its_own_filter_columns_and_composes_projections() {
        let plan = project(
            LogicalPlan::Filter {
                input: Box::new(scan(5)),
                predicate: gt(col(3), 7),
            },
            vec![col(1)],
        );
        let text = optimized(plan);
        assert_eq!(
            scans(&text),
            ["TableScan table=t cols=[1, 3] filter=(#1 > 7)"],
            "{text}"
        );
        // Over a scan that already projects, positions compose.
        let LogicalPlan::TableScan {
            table,
            table_schema,
            filter,
            ..
        } = scan(6)
        else {
            panic!()
        };
        let narrowed = LogicalPlan::TableScan {
            table,
            table_schema,
            projection: Some(vec![5, 3, 1]),
            filter,
            schema: scan(3).schema(),
        };
        let text = optimized(project(narrowed, vec![col(2)]));
        assert_eq!(scans(&text), ["TableScan table=t cols=[1]"], "{text}");
    }

    #[test]
    fn join_inputs_keep_keys_residual_and_output_columns() {
        // SELECT l.c0, r.c1 FROM l JOIN r ON l.c1 = r.c0 AND l.c2 < r.c2:
        // c2 of either side is read by the residual only; c3 by nobody.
        let residual = ScalarExpr::binary(BinaryOp::Lt, col(2), col(6)).unwrap();
        let on = ScalarExpr::binary(BinaryOp::And, eq(1, 4), residual).unwrap();
        let text = optimized(project(join(scan(4), scan(4), on), vec![col(0), col(5)]));
        assert_eq!(
            scans(&text),
            [
                "TableScan table=t cols=[0, 1, 2]",
                "TableScan table=t cols=[0, 1, 2]"
            ],
            "{text}"
        );
        assert!(text.contains("on=((#1 = #3) AND (#2 < #5))"), "{text}");
        assert!(text.starts_with("Project [#0, #4]"), "{text}");
        // Only the right side narrows: left positions stay, right ones move.
        let text = optimized(project(
            join(scan(2), scan(4), eq(1, 5)),
            vec![col(0), col(1), col(4)],
        ));
        assert_eq!(
            scans(&text),
            ["TableScan table=t", "TableScan table=t cols=[2, 3]"],
            "{text}"
        );
        assert!(text.contains("on=(#1 = #3)"), "{text}");
        assert!(text.starts_with("Project [#0, #1, #2]"), "{text}");
    }

    #[test]
    fn distinct_and_union_need_whole_rows() {
        let distinct = project(
            LogicalPlan::Distinct {
                input: Box::new(scan(3)),
            },
            vec![col(0)],
        );
        assert_eq!(scans(&optimized(distinct)), ["TableScan table=t"]);
        // Below a projection of its own each branch narrows all the same.
        let union = LogicalPlan::Union {
            inputs: vec![
                project(scan(4), vec![col(1)]),
                project(scan(4), vec![col(3)]),
            ],
            all: false,
            schema: scan(1).schema(),
        };
        assert_eq!(
            scans(&optimized(union)),
            ["TableScan table=t cols=[1]", "TableScan table=t cols=[3]"]
        );
    }

    #[test]
    fn loop_bodies_and_operator_inputs_are_narrowed_inside() {
        let working = || LogicalPlan::WorkingTable {
            name: "iterate".into(),
            schema: scan(1).schema(),
        };
        let iterate = LogicalPlan::Iterate {
            init: Box::new(project(scan(3), vec![col(2)])),
            // SELECT e.c1 FROM iterate w JOIN t e ON w.c0 = e.c0
            step: Box::new(project(join(working(), scan(3), eq(0, 1)), vec![col(2)])),
            stop: Box::new(LogicalPlan::Filter {
                input: Box::new(working()),
                predicate: gt(col(0), 100),
            }),
            max_iterations: 10,
            schema: scan(1).schema(),
        };
        assert_eq!(
            scans(&optimized(iterate)),
            [
                "TableScan table=t cols=[2]",
                "TableScan table=t cols=[0, 1]"
            ]
        );
        let cte = LogicalPlan::RecursiveCte {
            name: "iterate".into(),
            init: Box::new(project(scan(3), vec![col(0)])),
            step: Box::new(project(join(working(), scan(3), eq(0, 3)), vec![col(1)])),
            all: false,
            schema: scan(1).schema(),
        };
        assert_eq!(
            scans(&optimized(cte)),
            [
                "TableScan table=t cols=[0]",
                "TableScan table=t cols=[0, 2]"
            ]
        );
        // KMEANS((SELECT c1, c2 FROM t), (SELECT c0, c3 FROM t), 5)
        let kmeans = LogicalPlan::Operator {
            op: AnalyticsOp::KMeans {
                lambda: None,
                max_iterations: 5,
            },
            inputs: vec![
                project(scan(4), vec![col(1), col(2)]),
                project(scan(4), vec![col(0), col(3)]),
            ],
            schema: scan(4).schema(),
        };
        assert_eq!(
            scans(&optimized(kmeans)),
            [
                "TableScan table=t cols=[1, 2]",
                "TableScan table=t cols=[0, 3]"
            ]
        );
    }

    #[test]
    fn equal_sub_plans_stay_equal() {
        // The executor shares equal sub-plans (`reuse.rs`); narrowing is a
        // function of the sub-plan alone below a projection, so twins
        // under different parents come out as twins.
        let branch = || project(join(scan(3), scan(5), eq(0, 3)), vec![col(1), col(7)]);
        let union = LogicalPlan::Union {
            inputs: vec![branch(), project(branch(), vec![col(1), col(0)])],
            all: true,
            schema: scan(2).schema(),
        };
        let LogicalPlan::Union { inputs, .. } = Optimizer::new().optimize(union).unwrap() else {
            panic!()
        };
        let (LogicalPlan::Project { input: a, .. }, LogicalPlan::Project { input: b, .. }) =
            (&inputs[0], &inputs[1])
        else {
            panic!()
        };
        assert_eq!(a, b);
        assert_eq!(
            scans(&a.explain()),
            [
                "TableScan table=t cols=[0, 1]",
                "TableScan table=t cols=[0, 4]"
            ]
        );
    }

    #[test]
    fn optimize_reaches_fixpoint() {
        let plan = scan(1);
        let once = Optimizer::new().optimize(plan.clone()).unwrap();
        let twice = Optimizer::new().optimize(once.clone()).unwrap();
        assert_eq!(once, twice);
    }
}
