//! Join execution: hash join for equi-conditions, nested-loop fallback.

use std::sync::Arc;

use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result};
use hylite_expr::{BinaryOp, ScalarExpr};
use hylite_planner::JoinKind;

use crate::keys::{GroupIndex, KeyLayout, NO_GROUP};
use crate::util::{eval_keys, eval_shared};

/// The build side of a join: the right input materialized once and, for
/// equi-joins, indexed on its key expressions. It depends on the right
/// input and the condition only, so the executor keeps it across the
/// iterations of a loop whose right input does not change.
///
/// `condition` is over the concatenated (left ++ right) schema. Equi
/// conjuncts (`left_col_expr = right_col_expr`) become hash-join keys,
/// each pair keyed in the type `=` compares it in; the rest is applied as
/// a residual predicate. Without any equi conjunct the join degrades to a
/// filtered cross product.
pub struct JoinBuild {
    right_all: Chunk,
    right_types: Vec<DataType>,
    left_keys: Vec<ScalarExpr>,
    /// The type each key pair is compared — so keyed — in.
    key_types: Vec<DataType>,
    residual: Option<ScalarExpr>,
    /// The right side's distinct keys (none for a join without equi
    /// keys). The right rows of key group `g` are the chain
    /// `heads[g]`, `next[heads[g]]`, … in ascending order, ended by
    /// [`NO_GROUP`].
    index: GroupIndex,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl JoinBuild {
    /// Materialize the right input and index it on its keys, under the
    /// layout `layout` ([`KeyLayout::new`]) makes of the key types.
    pub fn new(
        layout: fn(&[DataType]) -> KeyLayout,
        right: &[Chunk],
        condition: Option<&ScalarExpr>,
        left_width: usize,
        right_types: &[DataType],
    ) -> Result<JoinBuild> {
        let right_all = Chunk::concat(right_types, right)?;
        let (keys, residual) = match condition {
            None => (vec![], None),
            Some(c) => extract_equi_keys(c, left_width),
        };
        let (left_keys, right_keys): (Vec<ScalarExpr>, Vec<ScalarExpr>) = keys.into_iter().unzip();
        let types =
            |keys: &[ScalarExpr]| keys.iter().map(ScalarExpr::data_type).collect::<Vec<_>>();
        let key_types = KeyLayout::join_types(&types(&left_keys), &types(&right_keys))?;
        let mut index = GroupIndex::for_join(layout(&key_types));
        let rows = right_all.len();
        if rows >= NO_GROUP as usize {
            return Err(HyError::Execution(format!(
                "join build side of {rows} rows exceeds 2^32 - 2"
            )));
        }
        let mut ids = Vec::new();
        if !right_keys.is_empty() {
            let key_cols = eval_keys(&right_keys, &key_types, &right_all)?;
            index.insert_chunk(&key_cols, rows, &mut ids)?;
        }
        // Prepending in descending row order leaves every chain ascending.
        let mut heads = vec![NO_GROUP; index.len()];
        let mut next = vec![NO_GROUP; ids.len()];
        for (row, &g) in ids.iter().enumerate().rev() {
            if g != NO_GROUP {
                next[row] = std::mem::replace(&mut heads[g as usize], row as u32);
            }
        }
        Ok(JoinBuild {
            right_all,
            right_types: right_types.to_vec(),
            left_keys,
            key_types,
            residual,
            index,
            heads,
            next,
        })
    }

    /// Approximate heap footprint, for the memory budget: the
    /// materialized right side plus one index entry per distinct key and
    /// one chain link per right row.
    pub fn heap_bytes(&self) -> u64 {
        let entry = 48 + 32 * self.left_keys.len();
        (self.right_all.heap_bytes() + self.index.len() * entry + self.right_all.len() * 8) as u64
    }

    /// Rows on the build side.
    pub fn build_rows(&self) -> usize {
        self.right_all.len()
    }

    /// The index over the right side's keys; `None` for a join without
    /// equi keys.
    pub fn index(&self) -> Option<&GroupIndex> {
        (!self.left_keys.is_empty()).then_some(&self.index)
    }

    /// Join `left` against the built right side. Output follows left row
    /// order; one left row's matches follow right row order.
    pub fn probe(&self, left: &[Chunk], kind: JoinKind) -> Result<Vec<Chunk>> {
        let residual = self.residual.as_ref();
        if self.left_keys.is_empty() {
            return nested_loop(left, &self.right_all, kind, residual, &self.right_types);
        }
        // Probe left chunk by left chunk.
        let mut out = Vec::new();
        for chunk in left {
            let pairs = self.probe_chunk(chunk, kind)?.into_iter();
            out.extend(pairs.filter(|c| !c.is_empty()));
        }
        Ok(out)
    }

    /// Probe one left chunk against the build side.
    fn probe_chunk(&self, chunk: &Chunk, kind: JoinKind) -> Result<Vec<Chunk>> {
        let n = chunk.len();
        let key_cols = eval_keys(&self.left_keys, &self.key_types, chunk)?;
        let mut ids = Vec::new();
        self.index.lookup_chunk(&key_cols, n, &mut ids);
        let (mut l_idx, mut r_idx) = (Vec::new(), Vec::new());
        for (i, &g) in ids.iter().enumerate() {
            let mut row = self.heads.get(g as usize).copied().unwrap_or(NO_GROUP);
            while row != NO_GROUP {
                l_idx.push(i);
                r_idx.push(row as usize);
                row = self.next[row as usize];
            }
        }
        let mut matched = vec![false; n];
        let residual = self.residual.as_ref();
        let pairs = matches(
            chunk,
            &l_idx,
            &self.right_all,
            &r_idx,
            residual,
            &mut matched,
        )?;
        let mut out = vec![pairs];
        if kind == JoinKind::Left {
            out.extend(unmatched(chunk, &matched, &self.right_types));
        }
        Ok(out)
    }
}

/// `chunk`'s rows `l_idx` beside `right`'s rows `r_idx`: the pairs that
/// pass the residual, their left rows marked in `matched`.
fn matches(
    chunk: &Chunk,
    l_idx: &[usize],
    right: &Chunk,
    r_idx: &[usize],
    residual: Option<&ScalarExpr>,
    matched: &mut [bool],
) -> Result<Chunk> {
    let combined = combine(chunk, l_idx, right, r_idx);
    let Some(pred) = residual else {
        l_idx.iter().for_each(|&i| matched[i] = true);
        return Ok(combined);
    };
    let sel = pred.eval(&combined)?.to_selection()?;
    sel.iter_ones().for_each(|i| matched[l_idx[i]] = true);
    Ok(combined.filter(&sel))
}

/// A LEFT join's left rows that no pair matched, beside NULLs.
fn unmatched(chunk: &Chunk, matched: &[bool], right_types: &[DataType]) -> Option<Chunk> {
    let rows: Vec<usize> = (0..chunk.len()).filter(|&i| !matched[i]).collect();
    (!rows.is_empty()).then(|| {
        let mut cols = chunk.take(&rows).columns().to_vec();
        let nulls = null_chunk(right_types, rows.len());
        cols.extend(nulls.columns().iter().cloned());
        Chunk::from_arc_columns(cols)
    })
}

/// Left and right rows per output chunk of a cross product: `nested_loop`
/// and `broadcast` cut their output every `LBLOCK` left rows alike.
const LBLOCK: usize = 512;
pub(crate) const RBLOCK: usize = 1024;

/// Cross product with optional residual filter; supports LEFT semantics.
pub(crate) fn nested_loop(
    left: &[Chunk],
    right_all: &Chunk,
    kind: JoinKind,
    residual: Option<&ScalarExpr>,
    right_types: &[DataType],
) -> Result<Vec<Chunk>> {
    let m = right_all.len();
    let mut out = Vec::new();
    for chunk in left {
        let n = chunk.len();
        let mut matched = vec![false; n];
        // Process in left×right blocks to bound pair-chunk size.
        for lstart in (0..n).step_by(LBLOCK) {
            let llen = LBLOCK.min(n - lstart);
            for start in (0..m).step_by(RBLOCK) {
                let len = RBLOCK.min(m - start);
                let l_idx: Vec<usize> = (lstart..lstart + llen)
                    .flat_map(|i| std::iter::repeat_n(i, len))
                    .collect();
                let r_idx: Vec<usize> = (0..llen).flat_map(|_| start..start + len).collect();
                let pairs = matches(chunk, &l_idx, right_all, &r_idx, residual, &mut matched)?;
                if !pairs.is_empty() {
                    out.push(pairs);
                }
            }
        }
        if kind == JoinKind::Left {
            out.extend(unmatched(chunk, &matched, right_types));
        }
    }
    Ok(out)
}

/// `π_exprs(left × right)` (`right` at most [`RBLOCK`] rows, `exprs` at
/// least one), in the chunks a projection of `nested_loop`'s output has:
/// one per [`LBLOCK`] rows of a left chunk, each left row followed by its
/// pairs in right row order. The product is never built. An expression
/// that reads no right column is evaluated over the left chunk; one that
/// does, over the whole left chunk once per right row, with that row's
/// cells bound as scalars in their columns' types, and the results are
/// interleaved.
pub(crate) fn broadcast(
    left: &[Chunk],
    right: &Chunk,
    exprs: &[ScalarExpr],
    left_width: usize,
) -> Result<Vec<Chunk>> {
    let m = right.len();
    // The cast keeps a bound `2` from making `x ^ y` a square.
    let bind = |e: &ScalarExpr, r| {
        let mut e = e.clone();
        e.replace_columns(&|i| {
            let col = right.column(i.checked_sub(left_width)?);
            let input = Box::new(ScalarExpr::Literal(col.value(r)));
            let target = col.data_type();
            Some(ScalarExpr::Cast { input, target })
        });
        e
    };
    // One copy per right row of each expression that reads the right side.
    let bound: Vec<Vec<ScalarExpr>> = exprs
        .iter()
        .map(|e| {
            let mut refs = Vec::new();
            e.referenced_columns(&mut refs);
            let reads_right = refs.iter().any(|&i| i >= left_width);
            (0..m).filter(|_| reads_right).map(|r| bind(e, r)).collect()
        })
        .collect();
    let mut out = Vec::new();
    for chunk in left.iter().filter(|c| !c.is_empty()) {
        let n = chunk.len();
        // Pair (i, r) is row i of a left-only column, r * n + i of a bound one.
        let cells = exprs.iter().zip(&bound).map(|(e, bound)| match &bound[..] {
            [] => eval_shared(e, chunk),
            [first, rest @ ..] => {
                let mut col = first.eval(chunk)?;
                for e in rest {
                    col.append(&e.eval(chunk)?)?;
                }
                Ok(Arc::new(col))
            }
        });
        let cells = cells.collect::<Result<Vec<_>>>()?;
        for start in (0..n).step_by(LBLOCK) {
            let rows = start..n.min(start + LBLOCK);
            let pairs = rows.flat_map(|i| (0..m).map(move |r| (i, r * n + i)));
            let (at_left, at_bound): (Vec<usize>, Vec<usize>) = pairs.unzip();
            let at = |b: &Vec<_>| if b.is_empty() { &at_left } else { &at_bound };
            let cols = cells
                .iter()
                .zip(&bound)
                .map(|(c, b)| Arc::new(c.take(at(b))));
            out.push(Chunk::from_arc_columns(cols.collect()));
        }
    }
    Ok(out)
}

/// Glue `left.take(l_idx)` and `right.take(r_idx)` side by side.
pub(crate) fn combine(left: &Chunk, l_idx: &[usize], right: &Chunk, r_idx: &[usize]) -> Chunk {
    let l = left.take(l_idx);
    let r = right.take(r_idx);
    let mut cols = l.columns().to_vec();
    cols.extend(r.columns().iter().cloned());
    Chunk::from_arc_columns(cols)
}

/// An all-NULL chunk of the given types.
pub(crate) fn null_chunk(types: &[DataType], rows: usize) -> Chunk {
    let nulls = |&t: &DataType| {
        let mut c = ColumnVector::empty(t);
        (0..rows).for_each(|_| c.push_null());
        c
    };
    Chunk::new(types.iter().map(nulls).collect())
}

/// Split a join condition into hash keys and a residual predicate.
///
/// Returns `(pairs of (left_key_expr, right_key_expr), residual)`; the
/// right key expressions are remapped to right-local column indices.
pub(crate) fn extract_equi_keys(
    condition: &ScalarExpr,
    left_width: usize,
) -> (Vec<(ScalarExpr, ScalarExpr)>, Option<ScalarExpr>) {
    let mut conjuncts = Vec::new();
    collect_conjuncts(condition, &mut conjuncts);
    let mut keys = Vec::new();
    let mut residual: Vec<ScalarExpr> = Vec::new();
    for c in conjuncts {
        if let ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
            ..
        } = &c
        {
            let side = |e: &ScalarExpr| -> Option<bool> {
                // Some(true) = all-left, Some(false) = all-right.
                let mut refs = Vec::new();
                e.referenced_columns(&mut refs);
                if refs.is_empty() {
                    return None;
                }
                if refs.iter().all(|&i| i < left_width) {
                    Some(true)
                } else if refs.iter().all(|&i| i >= left_width) {
                    Some(false)
                } else {
                    None
                }
            };
            match (side(left), side(right)) {
                (Some(true), Some(false)) => {
                    let mut r = (**right).clone();
                    remap_to_right(&mut r, left_width);
                    keys.push(((**left).clone(), r));
                    continue;
                }
                (Some(false), Some(true)) => {
                    let mut l = (**left).clone();
                    remap_to_right(&mut l, left_width);
                    keys.push(((**right).clone(), l));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    let residual = residual
        .into_iter()
        .reduce(|a, b| ScalarExpr::binary(BinaryOp::And, a, b).expect("boolean conjunction"));
    (keys, residual)
}

fn collect_conjuncts(e: &ScalarExpr, out: &mut Vec<ScalarExpr>) {
    if let ScalarExpr::Binary {
        op: BinaryOp::And,
        left,
        right,
        ..
    } = e
    {
        collect_conjuncts(left, out);
        collect_conjuncts(right, out);
    } else {
        out.push(e.clone());
    }
}

fn remap_to_right(e: &mut ScalarExpr, left_width: usize) {
    // Indices ≥ left_width become right-local.
    let mut refs = Vec::new();
    e.referenced_columns(&mut refs);
    let max = refs.iter().max().copied().unwrap_or(0);
    let mapping: Vec<usize> = (0..=max).map(|i| i.saturating_sub(left_width)).collect();
    e.remap_columns(&mapping);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::Value;

    fn chunk_i64(vals: Vec<i64>) -> Chunk {
        Chunk::new(vec![ColumnVector::from_i64(vals)])
    }

    /// Build on `right`, probe with `left`.
    fn join(
        left: &[Chunk],
        right: &[Chunk],
        kind: JoinKind,
        condition: Option<&ScalarExpr>,
        left_types: &[DataType],
        right_types: &[DataType],
    ) -> Result<Vec<Chunk>> {
        JoinBuild::new(
            KeyLayout::new,
            right,
            condition,
            left_types.len(),
            right_types,
        )?
        .probe(left, kind)
    }

    fn two_col(ids: Vec<i64>, names: Vec<&str>) -> Chunk {
        Chunk::new(vec![
            ColumnVector::from_i64(ids),
            ColumnVector::from_str(names),
        ])
    }

    fn eq_cond(l: usize, r: usize) -> ScalarExpr {
        ScalarExpr::binary(
            BinaryOp::Eq,
            ScalarExpr::column(l, DataType::Int64),
            ScalarExpr::column(r, DataType::Int64),
        )
        .unwrap()
    }

    #[test]
    fn inner_hash_join() {
        let left = vec![two_col(vec![1, 2, 3], vec!["a", "b", "c"])];
        let right = vec![two_col(vec![2, 3, 4], vec!["x", "y", "z"])];
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&eq_cond(0, 2)),
            &[DataType::Int64, DataType::Varchar],
            &[DataType::Int64, DataType::Varchar],
        )
        .unwrap();
        let total = Chunk::concat(
            &[
                DataType::Int64,
                DataType::Varchar,
                DataType::Int64,
                DataType::Varchar,
            ],
            &out,
        )
        .unwrap();
        assert_eq!(total.len(), 2);
        let mut ids: Vec<i64> = total.column(0).as_i64().unwrap().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn duplicate_keys_multiply() {
        let left = vec![chunk_i64(vec![1, 1])];
        let right = vec![chunk_i64(vec![1, 1, 1])];
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&eq_cond(0, 1)),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 6);
    }

    #[test]
    fn null_keys_never_match() {
        let mut col = ColumnVector::from_i64(vec![1]);
        col.push_null();
        let left = vec![Chunk::new(vec![col.clone()])];
        let right = vec![Chunk::new(vec![col])];
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&eq_cond(0, 1)),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 1, "only 1=1 matches");
    }

    #[test]
    fn left_join_pads_nulls() {
        let left = vec![chunk_i64(vec![1, 2])];
        let right = vec![two_col(vec![2], vec!["hit"])];
        let out = join(
            &left,
            &right,
            JoinKind::Left,
            Some(&eq_cond(0, 1)),
            &[DataType::Int64],
            &[DataType::Int64, DataType::Varchar],
        )
        .unwrap();
        let total =
            Chunk::concat(&[DataType::Int64, DataType::Int64, DataType::Varchar], &out).unwrap();
        assert_eq!(total.len(), 2);
        // Find the row with id=1: right columns must be NULL.
        for i in 0..2 {
            let id = total.column(0).value(i).as_int().unwrap();
            if id == 1 {
                assert!(total.column(1).value(i).is_null());
                assert!(total.column(2).value(i).is_null());
            } else {
                assert_eq!(total.column(2).value(i), Value::from("hit"));
            }
        }
    }

    #[test]
    fn residual_predicate_applies() {
        // JOIN ON l.id = r.id AND r.id > 1
        let left = vec![chunk_i64(vec![1, 2])];
        let right = vec![chunk_i64(vec![1, 2])];
        let cond = ScalarExpr::binary(
            BinaryOp::And,
            eq_cond(0, 1),
            ScalarExpr::binary(
                BinaryOp::Gt,
                ScalarExpr::column(1, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap(),
        )
        .unwrap();
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&cond),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 1);
    }

    #[test]
    fn left_join_residual_counts_as_unmatched() {
        // LEFT JOIN ON l.id = r.id AND r.id > 1: row 1 equi-matches but
        // fails the residual → NULL-padded.
        let left = vec![chunk_i64(vec![1, 2])];
        let right = vec![chunk_i64(vec![1, 2])];
        let cond = ScalarExpr::binary(
            BinaryOp::And,
            eq_cond(0, 1),
            ScalarExpr::binary(
                BinaryOp::Gt,
                ScalarExpr::column(1, DataType::Int64),
                ScalarExpr::literal(1i64),
            )
            .unwrap(),
        )
        .unwrap();
        let out = join(
            &left,
            &right,
            JoinKind::Left,
            Some(&cond),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        let total = Chunk::concat(&[DataType::Int64, DataType::Int64], &out).unwrap();
        assert_eq!(total.len(), 2);
        for i in 0..2 {
            let id = total.column(0).value(i).as_int().unwrap();
            if id == 1 {
                assert!(total.column(1).value(i).is_null());
            }
        }
    }

    #[test]
    fn cross_join_without_condition() {
        let left = vec![chunk_i64(vec![1, 2, 3])];
        let right = vec![chunk_i64(vec![10, 20])];
        let out = join(
            &left,
            &right,
            JoinKind::Cross,
            None,
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 6);
    }

    #[test]
    fn non_equi_condition_falls_back() {
        // l.v < r.v — nested loop.
        let left = vec![chunk_i64(vec![1, 5])];
        let right = vec![chunk_i64(vec![3, 6])];
        let cond = ScalarExpr::binary(
            BinaryOp::Lt,
            ScalarExpr::column(0, DataType::Int64),
            ScalarExpr::column(1, DataType::Int64),
        )
        .unwrap();
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&cond),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        // (1,3), (1,6), (5,6)
        assert_eq!(crate::util::total_rows(&out), 3);
    }

    #[test]
    fn empty_sides() {
        let left: Vec<Chunk> = vec![];
        let right = vec![chunk_i64(vec![1])];
        let out = join(
            &left,
            &right,
            JoinKind::Inner,
            Some(&eq_cond(0, 1)),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 0);

        let left = vec![chunk_i64(vec![1])];
        let right: Vec<Chunk> = vec![];
        let out = join(
            &left,
            &right,
            JoinKind::Left,
            Some(&eq_cond(0, 1)),
            &[DataType::Int64],
            &[DataType::Int64],
        )
        .unwrap();
        assert_eq!(crate::util::total_rows(&out), 1, "left row NULL-padded");
    }
}
