//! Typed columnar vectors — the unit of vectorized execution.

use std::cmp::Ordering;

use crate::value::sort_cmp_f64;
use crate::{Bitmap, DataType, HyError, Result, Value};

/// A typed column of values with an optional validity bitmap.
///
/// `validity == None` means "all rows valid" — the common fast path that
/// lets kernels skip NULL checks entirely. When a bitmap is present, bit
/// `i` set means row `i` is non-NULL; the corresponding data slot holds an
/// unspecified-but-initialized default.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVector {
    /// 64-bit integers.
    Int64 {
        /// Row values; slots for NULL rows are zero.
        data: Vec<i64>,
        /// Validity mask, `None` = all valid.
        validity: Option<Bitmap>,
    },
    /// 64-bit floats.
    Float64 {
        /// Row values; slots for NULL rows are zero.
        data: Vec<f64>,
        /// Validity mask, `None` = all valid.
        validity: Option<Bitmap>,
    },
    /// Booleans.
    Bool {
        /// Row values; slots for NULL rows are `false`.
        data: Vec<bool>,
        /// Validity mask, `None` = all valid.
        validity: Option<Bitmap>,
    },
    /// UTF-8 strings.
    Varchar {
        /// Row values; slots for NULL rows are empty strings.
        data: Vec<String>,
        /// Validity mask, `None` = all valid.
        validity: Option<Bitmap>,
    },
}

impl ColumnVector {
    /// An empty column of the given type (`Null` maps to Int64 storage,
    /// all-NULL).
    pub fn empty(dt: DataType) -> ColumnVector {
        match dt {
            DataType::Int64 | DataType::Null => ColumnVector::Int64 {
                data: Vec::new(),
                validity: None,
            },
            DataType::Float64 => ColumnVector::Float64 {
                data: Vec::new(),
                validity: None,
            },
            DataType::Bool => ColumnVector::Bool {
                data: Vec::new(),
                validity: None,
            },
            DataType::Varchar => ColumnVector::Varchar {
                data: Vec::new(),
                validity: None,
            },
        }
    }

    /// Column from plain `i64`s, all valid.
    pub fn from_i64(data: Vec<i64>) -> ColumnVector {
        ColumnVector::Int64 {
            data,
            validity: None,
        }
    }

    /// Column from plain `f64`s, all valid.
    pub fn from_f64(data: Vec<f64>) -> ColumnVector {
        ColumnVector::Float64 {
            data,
            validity: None,
        }
    }

    /// Column from plain `bool`s, all valid.
    pub fn from_bool(data: Vec<bool>) -> ColumnVector {
        ColumnVector::Bool {
            data,
            validity: None,
        }
    }

    /// Column from strings, all valid. (Deliberately named like the
    /// sibling constructors `from_i64`/`from_f64`, not the `FromStr`
    /// trait.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_str<S: Into<String>>(data: Vec<S>) -> ColumnVector {
        ColumnVector::Varchar {
            data: data.into_iter().map(Into::into).collect(),
            validity: None,
        }
    }

    /// Build a column of declared type `dt` from row [`Value`]s, coercing
    /// each value (so `Int` literals fill a `Float64` column, and NULLs
    /// are recorded in the validity mask).
    pub fn from_values(dt: DataType, values: &[Value]) -> Result<ColumnVector> {
        let mut col = ColumnVector::empty(dt);
        for v in values {
            col.push_value(v)?;
        }
        Ok(col)
    }

    /// Logical type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVector::Int64 { .. } => DataType::Int64,
            ColumnVector::Float64 { .. } => DataType::Float64,
            ColumnVector::Bool { .. } => DataType::Bool,
            ColumnVector::Varchar { .. } => DataType::Varchar,
        }
    }

    /// Approximate heap footprint of the column in bytes (data plus
    /// validity bitmap). Used by the profiler to attribute operator
    /// memory; string capacity is counted, not just length.
    pub fn heap_bytes(&self) -> usize {
        let validity_bytes = |v: &Option<Bitmap>| v.as_ref().map_or(0, |b| b.len().div_ceil(8));
        match self {
            ColumnVector::Int64 { data, validity } => data.len() * 8 + validity_bytes(validity),
            ColumnVector::Float64 { data, validity } => data.len() * 8 + validity_bytes(validity),
            ColumnVector::Bool { data, validity } => data.len() + validity_bytes(validity),
            ColumnVector::Varchar { data, validity } => {
                data.iter()
                    .map(|s| s.capacity() + std::mem::size_of::<String>())
                    .sum::<usize>()
                    + validity_bytes(validity)
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnVector::Int64 { data, .. } => data.len(),
            ColumnVector::Float64 { data, .. } => data.len(),
            ColumnVector::Bool { data, .. } => data.len(),
            ColumnVector::Varchar { data, .. } => data.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `i` is non-NULL.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match self.validity() {
            Some(v) => v.get(i),
            None => true,
        }
    }

    /// The validity bitmap if any rows may be NULL.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            ColumnVector::Int64 { validity, .. }
            | ColumnVector::Float64 { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Varchar { validity, .. } => validity.as_ref(),
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        match self.validity() {
            Some(v) => v.len() - v.count_ones(),
            None => 0,
        }
    }

    /// Materialize row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            ColumnVector::Int64 { data, .. } => Value::Int(data[i]),
            ColumnVector::Float64 { data, .. } => Value::Float(data[i]),
            ColumnVector::Bool { data, .. } => Value::Bool(data[i]),
            ColumnVector::Varchar { data, .. } => Value::Str(data[i].clone()),
        }
    }

    /// Order of rows `a` and `b`: [`Value::sort_cmp`] of the two values
    /// (NULL first, NaN last) without materializing them.
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match (self.is_valid(a), self.is_valid(b)) {
            (true, true) => match self {
                ColumnVector::Int64 { data, .. } => data[a].cmp(&data[b]),
                ColumnVector::Float64 { data, .. } => sort_cmp_f64(data[a], data[b]),
                ColumnVector::Bool { data, .. } => data[a].cmp(&data[b]),
                ColumnVector::Varchar { data, .. } => data[a].cmp(&data[b]),
            },
            (a_valid, b_valid) => a_valid.cmp(&b_valid),
        }
    }

    /// Append a [`Value`], coercing it to this column's type.
    pub fn push_value(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            self.push_null();
            return Ok(());
        }
        match self {
            ColumnVector::Int64 { data, validity } => {
                data.push(v.as_int()?);
                if let Some(bm) = validity {
                    bm.push(true);
                }
            }
            ColumnVector::Float64 { data, validity } => {
                data.push(v.as_float()?);
                if let Some(bm) = validity {
                    bm.push(true);
                }
            }
            ColumnVector::Bool { data, validity } => {
                data.push(v.as_bool()?);
                if let Some(bm) = validity {
                    bm.push(true);
                }
            }
            ColumnVector::Varchar { data, validity } => {
                data.push(v.as_str()?.to_owned());
                if let Some(bm) = validity {
                    bm.push(true);
                }
            }
        }
        Ok(())
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        let len = self.len();
        let ensure = |validity: &mut Option<Bitmap>| {
            let bm = validity.get_or_insert_with(|| Bitmap::filled(len, true));
            bm.push(false);
        };
        match self {
            ColumnVector::Int64 { data, validity } => {
                data.push(0);
                ensure(validity);
            }
            ColumnVector::Float64 { data, validity } => {
                data.push(0.0);
                ensure(validity);
            }
            ColumnVector::Bool { data, validity } => {
                data.push(false);
                ensure(validity);
            }
            ColumnVector::Varchar { data, validity } => {
                data.push(String::new());
                ensure(validity);
            }
        }
    }

    /// Keep only rows whose bit is set in `selection`.
    pub fn filter(&self, selection: &Bitmap) -> ColumnVector {
        assert_eq!(selection.len(), self.len(), "selection length mismatch");
        let indices: Vec<usize> = selection.iter_ones().collect();
        self.take(&indices)
    }

    /// Gather rows by index (indices may repeat and be unordered).
    pub fn take(&self, indices: &[usize]) -> ColumnVector {
        fn gather<T: Clone>(data: &[T], indices: &[usize]) -> Vec<T> {
            indices.iter().map(|&i| data[i].clone()).collect()
        }
        let validity = self
            .validity()
            .map(|bm| indices.iter().map(|&i| bm.get(i)).collect::<Bitmap>());
        match self {
            ColumnVector::Int64 { data, .. } => ColumnVector::Int64 {
                data: gather(data, indices),
                validity,
            },
            ColumnVector::Float64 { data, .. } => ColumnVector::Float64 {
                data: gather(data, indices),
                validity,
            },
            ColumnVector::Bool { data, .. } => ColumnVector::Bool {
                data: gather(data, indices),
                validity,
            },
            ColumnVector::Varchar { data, .. } => ColumnVector::Varchar {
                data: gather(data, indices),
                validity,
            },
        }
    }

    /// Contiguous sub-column `[offset, offset+len)`.
    pub fn slice(&self, offset: usize, len: usize) -> ColumnVector {
        let indices: Vec<usize> = (offset..offset + len).collect();
        self.take(&indices)
    }

    /// Append all rows of `other`, which must have the same type.
    pub fn append(&mut self, other: &ColumnVector) -> Result<()> {
        if self.data_type() != other.data_type() {
            return Err(HyError::Type(format!(
                "cannot append {} column to {} column",
                other.data_type(),
                self.data_type()
            )));
        }
        // Materialize a combined validity mask if either side has NULLs.
        if self.validity().is_some() || other.validity().is_some() {
            let mut bm = match self.validity() {
                Some(v) => v.clone(),
                None => Bitmap::filled(self.len(), true),
            };
            match other.validity() {
                Some(v) => bm.extend_from(v),
                None => {
                    for _ in 0..other.len() {
                        bm.push(true);
                    }
                }
            }
            self.set_validity(Some(bm));
        }
        match (self, other) {
            (ColumnVector::Int64 { data, .. }, ColumnVector::Int64 { data: o, .. }) => {
                data.extend_from_slice(o)
            }
            (ColumnVector::Float64 { data, .. }, ColumnVector::Float64 { data: o, .. }) => {
                data.extend_from_slice(o)
            }
            (ColumnVector::Bool { data, .. }, ColumnVector::Bool { data: o, .. }) => {
                data.extend_from_slice(o)
            }
            (ColumnVector::Varchar { data, .. }, ColumnVector::Varchar { data: o, .. }) => {
                data.extend_from_slice(o)
            }
            _ => unreachable!("type equality checked above"),
        }
        Ok(())
    }

    /// The column with `validity` as its mask (`None` = all valid); NULL
    /// rows' data slots are kept as they are.
    pub fn with_validity(mut self, validity: Option<Bitmap>) -> ColumnVector {
        self.set_validity(validity);
        self
    }

    fn set_validity(&mut self, v: Option<Bitmap>) {
        match self {
            ColumnVector::Int64 { validity, .. }
            | ColumnVector::Float64 { validity, .. }
            | ColumnVector::Bool { validity, .. }
            | ColumnVector::Varchar { validity, .. } => *validity = v,
        }
    }

    /// Cast every row to `target`, producing a new column.
    pub fn cast_to(&self, target: DataType) -> Result<ColumnVector> {
        if self.data_type() == target {
            return Ok(self.clone());
        }
        // Fast path for the only hot cast: Int64 -> Float64.
        if let (ColumnVector::Int64 { data, validity }, DataType::Float64) = (self, target) {
            return Ok(ColumnVector::Float64 {
                data: data.iter().map(|&v| v as f64).collect(),
                validity: validity.clone(),
            });
        }
        let mut out = ColumnVector::empty(target);
        for i in 0..self.len() {
            let v = self.value(i).cast_to(target)?;
            out.push_value(&v)?;
        }
        Ok(out)
    }

    /// Borrow the raw `i64` data (errors on other types).
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self {
            ColumnVector::Int64 { data, .. } => Ok(data),
            other => Err(HyError::Type(format!(
                "expected BIGINT column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Borrow the raw `f64` data (errors on other types).
    pub fn as_f64(&self) -> Result<&[f64]> {
        match self {
            ColumnVector::Float64 { data, .. } => Ok(data),
            other => Err(HyError::Type(format!(
                "expected DOUBLE column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Borrow the raw `bool` data (errors on other types).
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self {
            ColumnVector::Bool { data, .. } => Ok(data),
            other => Err(HyError::Type(format!(
                "expected BOOLEAN column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Borrow the raw string data (errors on other types).
    pub fn as_varchar(&self) -> Result<&[String]> {
        match self {
            ColumnVector::Varchar { data, .. } => Ok(data),
            other => Err(HyError::Type(format!(
                "expected VARCHAR column, got {}",
                other.data_type()
            ))),
        }
    }

    /// Interpret this column as a predicate result: row `i` passes iff it
    /// is valid (non-NULL) and `true`. This implements SQL's three-valued
    /// WHERE semantics where NULL filters the row out.
    pub fn to_selection(&self) -> Result<Bitmap> {
        let data = self.as_bool()?;
        let mut bm = Bitmap::filled(data.len(), false);
        match self.validity() {
            None => {
                for (i, &b) in data.iter().enumerate() {
                    if b {
                        bm.set(i, true);
                    }
                }
            }
            Some(v) => {
                for (i, &b) in data.iter().enumerate() {
                    if b && v.get(i) {
                        bm.set(i, true);
                    }
                }
            }
        }
        Ok(bm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_values_and_nulls() {
        let mut col = ColumnVector::empty(DataType::Float64);
        col.push_value(&Value::Int(1)).unwrap();
        col.push_null();
        col.push_value(&Value::Float(2.5)).unwrap();
        assert_eq!(col.len(), 3);
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.value(0), Value::Float(1.0));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Float(2.5));
    }

    #[test]
    fn from_values_coerces() {
        let col = ColumnVector::from_values(
            DataType::Float64,
            &[Value::Int(1), Value::Null, Value::Float(3.0)],
        )
        .unwrap();
        assert_eq!(col.data_type(), DataType::Float64);
        assert_eq!(col.value(0), Value::Float(1.0));
        assert!(col.value(1).is_null());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut col = ColumnVector::empty(DataType::Int64);
        assert!(col.push_value(&Value::from("x")).is_err());
    }

    #[test]
    fn filter_and_take() {
        let col = ColumnVector::from_i64(vec![10, 20, 30, 40]);
        let sel: Bitmap = [true, false, true, false].into_iter().collect();
        let filtered = col.filter(&sel);
        assert_eq!(filtered.as_i64().unwrap(), &[10, 30]);
        let taken = col.take(&[3, 3, 0]);
        assert_eq!(taken.as_i64().unwrap(), &[40, 40, 10]);
    }

    #[test]
    fn take_preserves_validity() {
        let mut col = ColumnVector::empty(DataType::Int64);
        col.push_value(&Value::Int(1)).unwrap();
        col.push_null();
        col.push_value(&Value::Int(3)).unwrap();
        let taken = col.take(&[1, 2]);
        assert!(taken.value(0).is_null());
        assert_eq!(taken.value(1), Value::Int(3));
    }

    #[test]
    fn append_merges_validity() {
        let mut a = ColumnVector::from_i64(vec![1, 2]);
        let mut b = ColumnVector::empty(DataType::Int64);
        b.push_null();
        b.push_value(&Value::Int(9)).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.null_count(), 1);
        assert!(a.value(2).is_null());
        assert_eq!(a.value(3), Value::Int(9));
    }

    #[test]
    fn append_type_mismatch() {
        let mut a = ColumnVector::from_i64(vec![1]);
        let b = ColumnVector::from_f64(vec![1.0]);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn cast_int_to_float_fast_path() {
        let col = ColumnVector::from_i64(vec![1, 2, 3]);
        let f = col.cast_to(DataType::Float64).unwrap();
        assert_eq!(f.as_f64().unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn selection_three_valued() {
        let mut col = ColumnVector::empty(DataType::Bool);
        col.push_value(&Value::Bool(true)).unwrap();
        col.push_value(&Value::Bool(false)).unwrap();
        col.push_null();
        let sel = col.to_selection().unwrap();
        assert!(sel.get(0));
        assert!(!sel.get(1));
        assert!(!sel.get(2), "NULL predicate must not select the row");
    }

    #[test]
    fn cmp_rows_is_sort_cmp_of_the_values() {
        let mut floats = ColumnVector::from_f64(vec![1.5, f64::NAN, -0.0, 0.0, f64::NAN, -7.0]);
        floats.push_null();
        let mut strs = ColumnVector::from_str(vec!["b", "a", "", "b"]);
        strs.push_null();
        let mut bools = ColumnVector::from_bool(vec![true, false]);
        bools.push_null();
        let mut ints = ColumnVector::from_i64(vec![i64::MIN, 0, i64::MAX, 0]);
        ints.push_null();
        for col in [floats, strs, bools, ints] {
            for a in 0..col.len() {
                for b in 0..col.len() {
                    let expect = col.value(a).sort_cmp(&col.value(b));
                    assert_eq!(col.cmp_rows(a, b), expect, "{col:?} rows {a}, {b}");
                }
            }
        }
    }

    #[test]
    fn slice_returns_window() {
        let col = ColumnVector::from_str(vec!["a", "b", "c", "d"]);
        let s = col.slice(1, 2);
        assert_eq!(s.as_varchar().unwrap(), &["b".to_string(), "c".to_string()]);
    }
}
