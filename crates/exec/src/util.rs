//! Execution utilities: shared expression evaluation, predicate
//! application, size accounting.

use std::sync::Arc;

use hylite_common::{Chunk, ColumnVector, DataType, Result};
use hylite_expr::ScalarExpr;

/// Evaluate `expr` over a chunk; a plain column reference shares the
/// input column instead of copying it.
pub fn eval_shared(expr: &ScalarExpr, chunk: &Chunk) -> Result<Arc<ColumnVector>> {
    match expr {
        ScalarExpr::Column { index, .. } => Ok(chunk.column_arc(*index)),
        other => other.eval(chunk).map(Arc::new),
    }
}

/// The column in its declared type `t`. Evaluation can produce another
/// one (an untyped NULL literal is an all-NULL BIGINT column, a UNION
/// branch may be BIGINT where the result is DOUBLE): those are cast.
pub fn conform_col(col: &Arc<ColumnVector>, t: DataType) -> Result<Arc<ColumnVector>> {
    if t == DataType::Null || col.data_type() == t {
        Ok(Arc::clone(col))
    } else {
        col.cast_to(t).map(Arc::new)
    }
}

/// [`eval_shared`] of hash-key expressions, each in the type it is keyed in.
pub fn eval_keys(
    exprs: &[ScalarExpr],
    types: &[DataType],
    chunk: &Chunk,
) -> Result<Vec<Arc<ColumnVector>>> {
    let keys = exprs.iter().zip(types);
    keys.map(|(e, &t)| conform_col(&eval_shared(e, chunk)?, t))
        .collect()
}

/// The chunk with every column in its declared type, for operators that
/// output their input's rows.
pub fn conform(chunk: &Chunk, types: &[DataType]) -> Result<Chunk> {
    if types.is_empty() {
        return Ok(chunk.clone());
    }
    let cols = chunk.columns().iter().zip(types);
    let cols = cols.map(|(col, &t)| conform_col(col, t));
    Ok(Chunk::from_arc_columns(cols.collect::<Result<_>>()?))
}

/// One chunk of `exprs` per input chunk; a projection without columns
/// keeps the row count.
pub fn project(chunks: &[Chunk], exprs: &[ScalarExpr]) -> Result<Vec<Chunk>> {
    let project = |c: &Chunk| {
        let cols = exprs.iter().map(|e| eval_shared(e, c));
        let cols = cols.collect::<Result<Vec<_>>>()?;
        Ok(if cols.is_empty() {
            Chunk::zero_column(c.len())
        } else {
            Chunk::from_arc_columns(cols)
        })
    };
    chunks.iter().map(project).collect()
}

/// Apply a boolean predicate to a chunk, returning the surviving rows.
pub fn apply_predicate(chunk: &Chunk, predicate: &ScalarExpr) -> Result<Chunk> {
    let col = predicate.eval(chunk)?;
    let sel = col.to_selection()?;
    Ok(chunk.filter(&sel))
}

/// Total rows across chunks.
pub fn total_rows(chunks: &[Chunk]) -> usize {
    chunks.iter().map(Chunk::len).sum()
}

/// Total heap bytes across chunks — the memory-budget charge for a
/// materialized intermediate. Columns shared between chunks via `Arc`
/// (e.g. working-table clones) are counted per reference, so this is an
/// upper bound on the true live set.
pub fn heap_bytes(chunks: &[Chunk]) -> u64 {
    chunks.iter().map(Chunk::heap_bytes).sum::<usize>() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{ColumnVector, DataType};

    #[test]
    fn predicate_filters() {
        let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![1, 5, 3])]);
        let pred = ScalarExpr::binary(
            hylite_expr::BinaryOp::Gt,
            ScalarExpr::column(0, DataType::Int64),
            ScalarExpr::literal(2i64),
        )
        .unwrap();
        let out = apply_predicate(&chunk, &pred).unwrap();
        assert_eq!(out.column(0).as_i64().unwrap(), &[5, 3]);
    }
}
