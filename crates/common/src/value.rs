//! Scalar values used at row-at-a-time boundaries (literals, model
//! parameters, result extraction). Hot paths never touch `Value`; they use
//! [`crate::ColumnVector`] instead.

use std::cmp::Ordering;
use std::fmt;

use crate::{DataType, HyError, Result};

/// A single dynamically-typed SQL scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The logical type of this value (`Null` for NULL).
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Int(_) => DataType::Int64,
            Value::Float(_) => DataType::Float64,
            Value::Bool(_) => DataType::Bool,
            Value::Str(_) => DataType::Varchar,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, coercing nothing. NULL and other types error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(HyError::Type(format!("expected BIGINT, got {other}"))),
        }
    }

    /// Extract an `f64`, accepting integer values (widening) too.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(HyError::Type(format!("expected DOUBLE, got {other}"))),
        }
    }

    /// Extract a `bool`.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(HyError::Type(format!("expected BOOLEAN, got {other}"))),
        }
    }

    /// Extract a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(HyError::Type(format!("expected VARCHAR, got {other}"))),
        }
    }

    /// Cast to the given type following SQL cast semantics.
    /// NULL casts to NULL of any type.
    pub fn cast_to(&self, target: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let fail = || {
            Err(HyError::Type(format!(
                "cannot cast {} to {target}",
                self.data_type()
            )))
        };
        match target {
            DataType::Int64 => match self {
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Float(v) => {
                    if v.is_finite() && *v >= i64::MIN as f64 && *v <= i64::MAX as f64 {
                        Ok(Value::Int(*v as i64))
                    } else {
                        Err(HyError::Execution(format!("float {v} out of BIGINT range")))
                    }
                }
                Value::Bool(v) => Ok(Value::Int(i64::from(*v))),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| HyError::Execution(format!("cannot parse '{s}' as BIGINT"))),
                Value::Null => unreachable!(),
            },
            DataType::Float64 => match self {
                Value::Int(v) => Ok(Value::Float(*v as f64)),
                Value::Float(v) => Ok(Value::Float(*v)),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| HyError::Execution(format!("cannot parse '{s}' as DOUBLE"))),
                _ => fail(),
            },
            DataType::Bool => match self {
                Value::Bool(v) => Ok(Value::Bool(*v)),
                Value::Int(v) => Ok(Value::Bool(*v != 0)),
                Value::Str(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "1" => Ok(Value::Bool(true)),
                    "false" | "f" | "0" => Ok(Value::Bool(false)),
                    _ => Err(HyError::Execution(format!("cannot parse '{s}' as BOOLEAN"))),
                },
                _ => fail(),
            },
            DataType::Varchar => Ok(Value::Str(self.to_string())),
            DataType::Null => fail(),
        }
    }

    /// SQL comparison with NULL ordering: NULL sorts first and compares
    /// equal to NULL. Used by ORDER BY and sort-based operators, where a
    /// total order is required (unlike `=`/`<` predicate semantics which
    /// are three-valued and handled in the expression layer).
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => sort_cmp_f64(*a, *b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Less),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Greater),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Heterogeneous comparisons should be prevented by the binder;
            // fall back to type order for determinism.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

/// The sort order of DOUBLEs: numeric, NaN last and equal to NaN. The one
/// definition behind ORDER BY, MIN/MAX and the order of grouped output.
pub fn sort_cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Bool(v) => f.write_str(if *v { "true" } else { "false" }),
            Value::Str(v) => f.write_str(v),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_values() {
        assert_eq!(Value::Null.data_type(), DataType::Null);
        assert_eq!(Value::Int(1).data_type(), DataType::Int64);
        assert_eq!(Value::Float(1.5).data_type(), DataType::Float64);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::from("x").data_type(), DataType::Varchar);
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::Int(3).cast_to(DataType::Float64).unwrap(),
            Value::Float(3.0)
        );
        assert_eq!(
            Value::Float(3.9).cast_to(DataType::Int64).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            Value::from("42").cast_to(DataType::Int64).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::from(" true ").cast_to(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Int(7).cast_to(DataType::Varchar).unwrap(),
            Value::from("7")
        );
        assert_eq!(Value::Null.cast_to(DataType::Int64).unwrap(), Value::Null);
        assert!(Value::from("abc").cast_to(DataType::Int64).is_err());
        assert!(Value::Float(f64::INFINITY)
            .cast_to(DataType::Int64)
            .is_err());
    }

    #[test]
    fn sort_order_nulls_first() {
        let mut vals = vec![Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(vals, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn mixed_numeric_compare() {
        assert_eq!(Value::Int(2).sort_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).sort_cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert!(Value::from("x").as_int().is_err());
        assert_eq!(Value::from("x").as_str().unwrap(), "x");
        assert!(Value::Null.as_bool().is_err());
    }
}
