//! Hash aggregation and DISTINCT over typed keys.
//!
//! Aggregation is "group ids for the chunk, then one typed loop per
//! aggregate": the [`GroupIndex`] maps each row's key to a dense group
//! id, and every aggregate's [`Accumulator`] folds its argument column
//! into its state columns, indexed by those ids. Each chunk is folded in
//! row order; float sums go through per-chunk partials that are added in
//! chunk order. Results therefore do not depend on who folds which chunk
//! — the "local work, ordered merge" shape the paper's analytics
//! operators use, and the one a morsel scheduler needs to stay
//! deterministic.
//!
//! The statement's memory budget is charged for what the operator holds,
//! as it grows: each group once, for its index entry and every
//! aggregate's state (a float sum's partial included), however many
//! chunks touch it, and a groupjoin's group ids of every row it holds for
//! its second pass. The charge is released when the result is built, or
//! the statement fails.

use std::iter::repeat_n;
use std::sync::Arc;

use hylite_common::governor::Governor;
#[cfg(test)]
use hylite_common::Value;
use hylite_common::{Chunk, ColumnVector, DataType, Result};
use hylite_expr::{Accumulator, AggregateFunction, ScalarExpr};
use hylite_planner::logical::AggExpr;

use crate::keys::{GroupIndex, KeyLayout};
use crate::util::{conform, conform_col, eval_keys, eval_shared};

/// The operator's memory-budget charge, released when the operator
/// finishes (or aborts), so a failed statement leaves the budget clean.
struct BudgetGuard<'a> {
    governor: &'a Governor,
    bytes: u64,
}

impl BudgetGuard<'_> {
    /// Hold `bytes` in all: reserve what exceeds the charge so far.
    fn charge(&mut self, bytes: u64) -> Result<()> {
        if bytes > self.bytes {
            self.governor.reserve(bytes - self.bytes)?;
            self.bytes = bytes;
        }
        Ok(())
    }
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.governor.release(self.bytes);
    }
}

/// Rough footprint of a group's index entry: overhead plus the key values.
fn group_entry_bytes(num_keys: usize) -> u64 {
    48 + 32 * num_keys as u64
}

/// Execute a grouped aggregation, keying the groups under the layout
/// `layout` ([`KeyLayout::new`]) makes of the key columns' types. Output
/// columns: group keys in order, then one column per aggregate; one row
/// per group in first-seen order, each key as its first row had it (a
/// groupjoin's groups in the order the join it replaces meets them, at
/// their first row at the best). Only ORDER BY sorts. With no group keys
/// the result is a single row (aggregates over the whole input, even when
/// empty). The index comes back with the result: how many groups there
/// were, under which layout.
///
/// Every chunk's fold starts with a governor check and a charge of the
/// states' growth against the statement's memory budget. When the rows
/// come in runs of `runs` that share their keys (a broadcast cross
/// product's), each run's key is looked up once and its group repeated.
#[allow(clippy::too_many_arguments)]
pub fn aggregate(
    layout: fn(&[DataType]) -> KeyLayout,
    chunks: &[Chunk],
    runs: usize,
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    at_best: Option<&(AggregateFunction, ScalarExpr)>,
    output_types: &[DataType],
    governor: &Governor,
) -> Result<(Vec<Chunk>, GroupIndex)> {
    let mut guard = BudgetGuard { governor, bytes: 0 };
    let (key_types, agg_types) = output_types.split_at(group_exprs.len());
    let mut index = GroupIndex::for_grouping(layout(key_types));
    let arg_type = |a: &AggExpr| a.arg.as_ref().map_or(DataType::Null, ScalarExpr::data_type);
    let mut accumulators: Vec<Accumulator> = aggregates
        .iter()
        .map(|a| Accumulator::new(a.func, arg_type(a)))
        .collect();
    // A groupjoin's best value per group is its MIN's (MAX's) own state.
    let mut best = at_best.map(|(f, v)| Accumulator::new(*f, v.data_type()));
    let states = accumulators
        .iter()
        .chain(&best)
        .map(Accumulator::group_bytes);
    let group_bytes = group_entry_bytes(group_exprs.len()) + states.sum::<u64>();
    let grouped = !group_exprs.is_empty();
    let mut key_out: Vec<ColumnVector> =
        key_types.iter().map(|&t| ColumnVector::empty(t)).collect();
    // Fold `chunk`'s rows `rows` (all without), of groups `ids`.
    let mut fold = |chunk: &Chunk, rows: Option<&[usize]>, ids: &[u32], groups| {
        for (acc, agg) in accumulators.iter_mut().zip(aggregates) {
            let arg = agg.arg.as_ref().map(|e| eval_shared(e, chunk));
            let arg = match (arg.transpose()?, rows) {
                (Some(col), Some(rows)) => Some(Arc::new(col.take(rows))),
                (arg, _) => arg,
            };
            let len = rows.map_or(chunk.len(), <[usize]>::len);
            acc.fold(arg.as_deref(), len, grouped.then_some(ids), groups, None)?;
        }
        Result::Ok(())
    };
    // A groupjoin holds each chunk with its rows' groups and `v`s until
    // every group's best is known.
    let (mut ids, mut held, mut held_bytes) = (Vec::new(), Vec::new(), 0);
    for chunk in chunks {
        governor.check()?;
        let keyed = match runs {
            1 => chunk.clone(),
            _ => chunk.take(&(0..chunk.len()).step_by(runs).collect::<Vec<_>>()),
        };
        let key_cols = eval_keys(group_exprs, key_types, &keyed)?;
        // Without keys the whole chunk is one key-less row's group, and
        // the aggregates fold whole columns.
        let key_rows = if grouped { keyed.len() } else { 1 };
        let fresh = index.insert_chunk(&key_cols, key_rows, &mut ids)?;
        if runs > 1 {
            ids = ids.iter().flat_map(|&g| repeat_n(g, runs)).collect();
        }
        // A group's key is output as its first row had it.
        for (out, col) in key_out.iter_mut().zip(&key_cols) {
            out.append(&col.take(&fresh))?;
        }
        held_bytes += best.as_ref().map_or(0, |_| 4 * ids.len() as u64);
        guard.charge(index.len() as u64 * group_bytes + held_bytes)?;
        match (&mut best, at_best) {
            // First each group's best is lowered as its MIN (MAX) folds.
            (Some(best), Some((_, v))) => {
                let v = eval_shared(v, chunk)?;
                best.fold(Some(&v), chunk.len(), Some(&ids), index.len(), None)?;
                held.push((chunk, std::mem::take(&mut ids), v));
            }
            _ => fold(chunk, None, &ids, index.len())?,
        }
    }
    // Global aggregate over empty input still yields one row.
    if !grouped && index.is_empty() {
        index.insert_chunk(&[], 1, &mut ids)?;
    }
    // Groups come out in first-seen order: their ids' order.
    let mut order: Vec<usize> = (0..index.len()).collect();
    if let Some(mut best) = best {
        // Then only the rows at their group's best fold, in row order; the
        // join this replaces meets each group at the first of them.
        let (mut rows, mut reached, mut met) = (Vec::new(), vec![false; order.len()], Vec::new());
        for (chunk, ids, v) in held {
            best.fold(
                Some(&v),
                chunk.len(),
                Some(&ids),
                index.len(),
                Some(&mut rows),
            )?;
            let row_ids: Vec<u32> = rows.iter().map(|&i| ids[i]).collect();
            for &g in &row_ids {
                if !std::mem::replace(&mut reached[g as usize], true) {
                    met.push(g as usize);
                }
            }
            fold(chunk, Some(&rows), &row_ids, index.len())?;
        }
        // That join matched no group with a NULL key or without a best `=`
        // to itself.
        let best = best.finish(&order);
        let nan =
            |g: usize| matches!(&best, ColumnVector::Float64 { data, .. } if data[g].is_nan());
        met.retain(|&g| best.is_valid(g) && !nan(g) && key_out.iter().all(|k| k.is_valid(g)));
        order = met;
    }
    let mut cols: Vec<Arc<ColumnVector>> =
        key_out.iter().map(|c| Arc::new(c.take(&order))).collect();
    for (acc, &target) in accumulators.into_iter().zip(agg_types) {
        cols.push(conform_col(&Arc::new(acc.finish(&order)), target)?);
    }
    Ok((vec![Chunk::from_arc_columns(cols)], index))
}

/// The rows of `chunk` whose key (all columns, in `types`) `seen` did not
/// hold, in row order; their keys are in `seen` afterwards.
pub(crate) fn unseen_rows(
    seen: &mut GroupIndex,
    chunk: &Chunk,
    types: &[DataType],
    ids: &mut Vec<u32>,
) -> Result<Chunk> {
    let chunk = conform(chunk, types)?;
    let fresh = seen.insert_chunk(chunk.columns(), chunk.len(), ids)?;
    Ok(if fresh.len() == chunk.len() {
        chunk
    } else {
        chunk.take(&fresh)
    })
}

/// DISTINCT: keep the first occurrence of every row, keyed under the
/// layout `layout` makes of `types`; the index of the rows comes back with
/// them. Checks the governor once per input chunk and charges the index
/// against the statement's memory budget.
pub fn distinct(
    layout: fn(&[DataType]) -> KeyLayout,
    chunks: &[Chunk],
    types: &[DataType],
    governor: &Governor,
) -> Result<(Vec<Chunk>, GroupIndex)> {
    let mut seen = GroupIndex::for_grouping(layout(types));
    let mut guard = BudgetGuard { governor, bytes: 0 };
    let mut ids = Vec::new();
    let mut kept = Vec::new();
    for chunk in chunks {
        governor.check()?;
        let fresh = unseen_rows(&mut seen, chunk, types, &mut ids)?;
        guard.charge(seen.len() as u64 * group_entry_bytes(types.len()))?;
        if !fresh.is_empty() {
            kept.push(fresh);
        }
    }
    Ok((vec![Chunk::concat(types, &kept)?], seen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_expr::AggregateFunction;
    use hylite_planner::logical::SortKey;

    fn data() -> Vec<Chunk> {
        vec![Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 2, 1, 2, 1]),
            ColumnVector::from_f64(vec![10.0, 20.0, 30.0, 40.0, 50.0]),
        ])]
    }

    fn agg(func: AggregateFunction, arg: Option<ScalarExpr>) -> AggExpr {
        AggExpr {
            func,
            arg,
            name: func.name().into(),
        }
    }

    #[test]
    fn grouped_sum_and_count() {
        let out = aggregate(
            KeyLayout::new,
            &data(),
            1,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[
                agg(
                    AggregateFunction::Sum,
                    Some(ScalarExpr::column(1, DataType::Float64)),
                ),
                agg(AggregateFunction::CountStar, None),
            ],
            None,
            &[DataType::Int64, DataType::Float64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        let c = &out[0];
        assert_eq!(c.len(), 2);
        // First-seen order: group 1 then group 2.
        assert_eq!(c.column(0).as_i64().unwrap(), &[1, 2]);
        assert_eq!(c.column(1).as_f64().unwrap(), &[90.0, 60.0]);
        assert_eq!(c.column(2).as_i64().unwrap(), &[3, 2]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let out = aggregate(
            KeyLayout::new,
            &[],
            1,
            &[],
            &[
                agg(AggregateFunction::CountStar, None),
                agg(
                    AggregateFunction::Sum,
                    Some(ScalarExpr::column(0, DataType::Int64)),
                ),
            ],
            None,
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        let c = &out[0];
        assert_eq!(c.len(), 1);
        assert_eq!(c.column(0).value(0), Value::Int(0));
        assert!(c.column(1).value(0).is_null(), "SUM of nothing is NULL");
    }

    #[test]
    fn grouped_over_empty_input_is_empty() {
        let out = aggregate(
            KeyLayout::new,
            &[],
            1,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(AggregateFunction::CountStar, None)],
            None,
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        assert_eq!(out[0].len(), 0);
    }

    #[test]
    fn parallel_chunks_merge() {
        let big = data()[0].clone();
        let chunks: Vec<Chunk> = vec![big.slice(0, 2), big.slice(2, 2), big.slice(4, 1)];
        let whole = aggregate(
            KeyLayout::new,
            &data(),
            1,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(
                AggregateFunction::Avg,
                Some(ScalarExpr::column(1, DataType::Float64)),
            )],
            None,
            &[DataType::Int64, DataType::Float64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        let split = aggregate(
            KeyLayout::new,
            &chunks,
            1,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(
                AggregateFunction::Avg,
                Some(ScalarExpr::column(1, DataType::Float64)),
            )],
            None,
            &[DataType::Int64, DataType::Float64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        assert_eq!(whole, split);
    }

    #[test]
    fn null_keys_form_one_group() {
        let mut key = ColumnVector::from_i64(vec![1]);
        key.push_null();
        key.push_null();
        let chunk = Chunk::new(vec![key]);
        let out = aggregate(
            KeyLayout::new,
            &[chunk],
            1,
            &[ScalarExpr::column(0, DataType::Int64)],
            &[agg(AggregateFunction::CountStar, None)],
            None,
            &[DataType::Int64, DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap()
        .0;
        assert_eq!(out[0].len(), 2, "NULL group + value group");
        // First-seen order: the value group, then the NULL group.
        assert_eq!(out[0].column(0).value(0), Value::Int(1));
        assert!(out[0].column(0).value(1).is_null());
        assert_eq!(out[0].column(1).value(1), Value::Int(2));
        // ORDER BY the key puts NULL first.
        let by_key = [SortKey {
            expr: ScalarExpr::column(0, DataType::Int64),
            asc: true,
        }];
        let sorted = crate::sort::sort(&out, &by_key, &[DataType::Int64, DataType::Int64]).unwrap();
        assert!(sorted[0].column(0).value(0).is_null());
        assert_eq!(sorted[0].column(1).value(0), Value::Int(2));
    }

    #[test]
    fn distinct_dedups() {
        let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![1, 2, 1, 3, 2])]);
        let (out, seen) = distinct(
            KeyLayout::new,
            &[chunk],
            &[DataType::Int64],
            &Governor::unlimited(),
        )
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[1, 2, 3]);
    }
}
