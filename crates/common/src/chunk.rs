//! [`Chunk`] — a batch of rows in columnar form, the unit of data flow
//! between physical operators.
//!
//! Columns are stored behind `Arc`s: cloning a chunk, projecting a column
//! subset, or re-scanning a working table is a reference-count bump, not
//! a data copy. Mutating operations (`append`) copy-on-write.

use std::sync::Arc;

use crate::{Bitmap, ColumnVector, DataType, HyError, Result, Row, Value};

/// A columnar batch of rows. All columns have the same length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    columns: Vec<Arc<ColumnVector>>,
    /// Cached row count. Kept explicitly so zero-column chunks (e.g. from
    /// `SELECT COUNT(*)` pipelines) still know their cardinality.
    len: usize,
}

impl Chunk {
    /// Chunk from owned columns; all must share one length.
    pub fn new(columns: Vec<ColumnVector>) -> Chunk {
        Chunk::from_arc_columns(columns.into_iter().map(Arc::new).collect())
    }

    /// Chunk from shared columns; all must share one length.
    pub fn from_arc_columns(columns: Vec<Arc<ColumnVector>>) -> Chunk {
        let len = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), len, "column {i} length mismatch in chunk");
        }
        Chunk { columns, len }
    }

    /// A chunk with zero columns but a known row count.
    pub fn zero_column(len: usize) -> Chunk {
        Chunk {
            columns: vec![],
            len,
        }
    }

    /// An empty chunk with one empty column per type.
    pub fn empty(types: &[DataType]) -> Chunk {
        Chunk {
            columns: types
                .iter()
                .map(|&t| Arc::new(ColumnVector::empty(t)))
                .collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The shared columns in order.
    pub fn columns(&self) -> &[Arc<ColumnVector>] {
        &self.columns
    }

    /// Approximate heap footprint of the chunk's columns in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &ColumnVector {
        &self.columns[i]
    }

    /// Shared handle to column `i` (no copy).
    pub fn column_arc(&self, i: usize) -> Arc<ColumnVector> {
        Arc::clone(&self.columns[i])
    }

    /// Cheap column-subset projection (Arc bumps, no data copy).
    pub fn project(&self, indices: &[usize]) -> Chunk {
        Chunk {
            columns: indices
                .iter()
                .map(|&i| Arc::clone(&self.columns[i]))
                .collect(),
            len: self.len,
        }
    }

    /// Materialize row `i` as a vector of values.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// All rows materialized (test/diagnostic helper, not a hot path).
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Keep only selected rows.
    pub fn filter(&self, selection: &Bitmap) -> Chunk {
        let count = selection.count_ones();
        if count == self.len {
            return self.clone();
        }
        Chunk {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.filter(selection)))
                .collect(),
            len: count,
        }
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Chunk {
        Chunk {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.take(indices)))
                .collect(),
            len: indices.len(),
        }
    }

    /// Contiguous window `[offset, offset+len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Chunk {
        assert!(offset + len <= self.len, "slice out of range");
        if offset == 0 && len == self.len {
            return self.clone();
        }
        Chunk {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.slice(offset, len)))
                .collect(),
            len,
        }
    }

    /// Append all rows of `other` (schemas must be type-compatible).
    /// Copy-on-write: shared columns are cloned before mutation.
    pub fn append(&mut self, other: &Chunk) -> Result<()> {
        if self.columns.len() != other.columns.len() {
            return Err(HyError::Internal(format!(
                "appending chunk with {} columns to chunk with {}",
                other.columns.len(),
                self.columns.len()
            )));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(a).append(b)?;
        }
        self.len += other.len;
        Ok(())
    }

    /// Concatenate many chunks into one (types taken from `types` so that
    /// an empty input list still yields a well-formed empty chunk).
    pub fn concat(types: &[DataType], chunks: &[Chunk]) -> Result<Chunk> {
        if types.is_empty() {
            return Ok(Chunk::zero_column(chunks.iter().map(Chunk::len).sum()));
        }
        // Single-chunk fast path: share, don't copy.
        if chunks.len() == 1 {
            return Ok(chunks[0].clone());
        }
        let mut out = Chunk::empty(types);
        for c in chunks {
            out.append(c)?;
        }
        Ok(out)
    }

    /// Build a single chunk from row values, with one declared type per
    /// column. Convenient for tests and small literals (`VALUES` lists).
    pub fn from_rows(types: &[DataType], rows: &[Vec<Value>]) -> Result<Chunk> {
        let mut cols: Vec<ColumnVector> = types.iter().map(|&t| ColumnVector::empty(t)).collect();
        for row in rows {
            if row.len() != types.len() {
                return Err(HyError::Internal(format!(
                    "row arity {} does not match {} columns",
                    row.len(),
                    types.len()
                )));
            }
            for (c, v) in cols.iter_mut().zip(row) {
                c.push_value(v)?;
            }
        }
        let mut chunk = Chunk::new(cols);
        chunk.len = rows.len();
        Ok(chunk)
    }

    /// Pretty-print as an ASCII table (diagnostics / examples).
    pub fn to_table_string(&self, headers: &[String]) -> String {
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = (0..self.len)
            .map(|i| {
                self.columns
                    .iter()
                    .enumerate()
                    .map(|(c, col)| {
                        let s = col.value(i).to_string();
                        if c < widths.len() {
                            widths[c] = widths[c].max(s.len());
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, cell) in cells.iter().enumerate() {
                let w = widths.get(c).copied().unwrap_or(cell.len());
                line.push_str(&format!(" {cell:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(headers, &widths));
        let sep: String = format!(
            "|{}\n",
            widths
                .iter()
                .map(|w| format!("{}|", "-".repeat(w + 2)))
                .collect::<String>()
        );
        out.push_str(&sep);
        for r in &rendered {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Chunk {
        Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 2, 3]),
            ColumnVector::from_str(vec!["a", "b", "c"]),
        ])
    }

    #[test]
    fn construction_checks_lengths() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_columns(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_columns_panic() {
        Chunk::new(vec![
            ColumnVector::from_i64(vec![1]),
            ColumnVector::from_i64(vec![1, 2]),
        ]);
    }

    #[test]
    fn row_materialization() {
        let c = sample();
        assert_eq!(c.row(1).values(), &[Value::Int(2), Value::from("b")]);
    }

    #[test]
    fn filter_take_slice() {
        let c = sample();
        let sel: Bitmap = [true, false, true].into_iter().collect();
        assert_eq!(c.filter(&sel).len(), 2);
        assert_eq!(c.take(&[2, 0]).row(0).values()[0], Value::Int(3));
        let s = c.slice(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0).values()[0], Value::Int(2));
    }

    #[test]
    fn project_shares_columns() {
        let c = sample();
        let p = c.project(&[1]);
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.len(), 3);
        assert!(Arc::ptr_eq(&c.columns()[1], &p.columns()[0]));
    }

    #[test]
    fn clone_is_shallow_append_is_cow() {
        let a = sample();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.columns()[0], &b.columns()[0]));
        b.append(&sample()).unwrap();
        assert_eq!(a.len(), 3, "original untouched by COW append");
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn append_and_concat() {
        let mut a = sample();
        let b = sample();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        let types = [DataType::Int64, DataType::Varchar];
        let all = Chunk::concat(&types, &[sample(), sample(), sample()]).unwrap();
        assert_eq!(all.len(), 9);
        let none = Chunk::concat(&types, &[]).unwrap();
        assert_eq!(none.len(), 0);
        assert_eq!(none.num_columns(), 2);
    }

    #[test]
    fn zero_column_chunks_track_len() {
        let mut z = Chunk::zero_column(5);
        assert_eq!(z.len(), 5);
        z.append(&Chunk::zero_column(2)).unwrap();
        assert_eq!(z.len(), 7);
        let cat = Chunk::concat(&[], &[Chunk::zero_column(3), Chunk::zero_column(4)]).unwrap();
        assert_eq!(cat.len(), 7);
    }

    #[test]
    fn from_rows_builds_typed_columns() {
        let c = Chunk::from_rows(
            &[DataType::Float64, DataType::Bool],
            &[
                vec![Value::Int(1), Value::Bool(true)],
                vec![Value::Null, Value::Bool(false)],
            ],
        )
        .unwrap();
        assert_eq!(c.column(0).data_type(), DataType::Float64);
        assert!(c.column(0).value(1).is_null());
    }

    #[test]
    fn from_rows_arity_mismatch() {
        assert!(Chunk::from_rows(&[DataType::Int64], &[vec![]]).is_err());
    }

    #[test]
    fn table_string_renders() {
        let c = sample();
        let s = c.to_table_string(&["id".into(), "name".into()]);
        assert!(s.contains("id"));
        assert!(s.contains("| 3"));
    }
}
