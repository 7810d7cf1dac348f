//! Sorting and LIMIT/OFFSET.

use hylite_common::{Chunk, DataType, Result};
use hylite_planner::logical::SortKey;

/// Sort materialized chunks by the given keys (NULLs first, stable).
pub fn sort(chunks: &[Chunk], keys: &[SortKey], types: &[DataType]) -> Result<Vec<Chunk>> {
    let all = Chunk::concat(types, chunks)?;
    let n = all.len();
    if n <= 1 {
        return Ok(vec![all]);
    }
    let key_cols: Vec<std::sync::Arc<hylite_common::ColumnVector>> = keys
        .iter()
        .map(|k| crate::util::eval_shared(&k.expr, &all))
        .collect::<Result<_>>()?;
    let mut indices: Vec<usize> = (0..n).collect();
    indices.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&key_cols) {
            let ord = col.cmp_rows(a, b);
            let ord = if k.asc { ord } else { ord.reverse() };
            if !ord.is_eq() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(vec![all.take(&indices)])
}

/// Apply LIMIT/OFFSET to a chunk stream.
pub fn limit(chunks: Vec<Chunk>, limit: Option<usize>, offset: usize) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut skipped = 0usize;
    let mut taken = 0usize;
    for chunk in chunks {
        let mut start = 0usize;
        if skipped < offset {
            let skip_here = (offset - skipped).min(chunk.len());
            skipped += skip_here;
            start = skip_here;
        }
        if start >= chunk.len() {
            continue;
        }
        let available = chunk.len() - start;
        let want = match limit {
            Some(l) => {
                if taken >= l {
                    break;
                }
                available.min(l - taken)
            }
            None => available,
        };
        if want == 0 {
            continue;
        }
        taken += want;
        out.push(chunk.slice(start, want));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector;
    use hylite_expr::ScalarExpr;

    fn chunks() -> Vec<Chunk> {
        vec![
            Chunk::new(vec![
                ColumnVector::from_i64(vec![3, 1]),
                ColumnVector::from_str(vec!["c", "a"]),
            ]),
            Chunk::new(vec![
                ColumnVector::from_i64(vec![2]),
                ColumnVector::from_str(vec!["b"]),
            ]),
        ]
    }

    fn types() -> Vec<DataType> {
        vec![DataType::Int64, DataType::Varchar]
    }

    #[test]
    fn sorts_ascending_and_descending() {
        let keys = vec![SortKey {
            expr: ScalarExpr::column(0, DataType::Int64),
            asc: true,
        }];
        let out = sort(&chunks(), &keys, &types()).unwrap();
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[1, 2, 3]);
        let keys = vec![SortKey {
            expr: ScalarExpr::column(0, DataType::Int64),
            asc: false,
        }];
        let out = sort(&chunks(), &keys, &types()).unwrap();
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[3, 2, 1]);
    }

    #[test]
    fn multi_key_sort() {
        let c = Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 1, 0]),
            ColumnVector::from_str(vec!["b", "a", "z"]),
        ]);
        let keys = vec![
            SortKey {
                expr: ScalarExpr::column(0, DataType::Int64),
                asc: true,
            },
            SortKey {
                expr: ScalarExpr::column(1, DataType::Varchar),
                asc: true,
            },
        ];
        let out = sort(&[c], &keys, &types()).unwrap();
        assert_eq!(
            out[0].column(1).as_varchar().unwrap(),
            &["z".to_string(), "a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn nulls_sort_first() {
        let mut col = ColumnVector::from_i64(vec![5]);
        col.push_null();
        let c = Chunk::new(vec![col]);
        let keys = vec![SortKey {
            expr: ScalarExpr::column(0, DataType::Int64),
            asc: true,
        }];
        let out = sort(&[c], &keys, &[DataType::Int64]).unwrap();
        assert!(out[0].column(0).value(0).is_null());
    }

    #[test]
    fn limit_and_offset_across_chunks() {
        let cs = chunks(); // rows: [3,1],[2]
        let out = limit(cs.clone(), Some(2), 0);
        assert_eq!(crate::util::total_rows(&out), 2);
        let out = limit(cs.clone(), Some(10), 1);
        assert_eq!(crate::util::total_rows(&out), 2);
        let out = limit(cs.clone(), Some(1), 2);
        assert_eq!(crate::util::total_rows(&out), 1);
        assert_eq!(out[0].column(0).as_i64().unwrap(), &[2]);
        let out = limit(cs, None, 5);
        assert_eq!(crate::util::total_rows(&out), 0);
    }
}
