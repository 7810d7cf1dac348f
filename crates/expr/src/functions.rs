//! Built-in scalar functions.

use std::borrow::{Borrow, Cow};

use hylite_common::{ColumnVector, DataType, HyError, Result, Value};

use crate::kernels::cast;
use crate::scalar::{eval_binary, BinaryOp};

/// The built-in scalar function set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `abs(x)` — absolute value, keeps the input's numeric type.
    Abs,
    /// `sqrt(x)` — square root, DOUBLE.
    Sqrt,
    /// `exp(x)` — eˣ, DOUBLE.
    Exp,
    /// `ln(x)` — natural log, DOUBLE.
    Ln,
    /// `pow(x, y)` — xʸ, DOUBLE.
    Pow,
    /// `floor(x)` — round toward −∞, DOUBLE.
    Floor,
    /// `ceil(x)` — round toward +∞, DOUBLE.
    Ceil,
    /// `round(x)` — round half away from zero, DOUBLE.
    Round,
    /// `least(a, b, ...)` — smallest non-NULL argument.
    Least,
    /// `greatest(a, b, ...)` — largest non-NULL argument.
    Greatest,
    /// `length(s)` — string length in characters, BIGINT.
    Length,
    /// `lower(s)` — lowercase, VARCHAR.
    Lower,
    /// `upper(s)` — uppercase, VARCHAR.
    Upper,
    /// `substr(s, start [, len])` — 1-based substring, VARCHAR.
    Substr,
    /// `coalesce(a, b, ...)` — first non-NULL argument.
    Coalesce,
    /// `sign(x)` — −1, 0 or 1 as DOUBLE.
    Sign,
}

impl ScalarFunc {
    /// Look up a function by (case-insensitive) SQL name.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "sqrt" => ScalarFunc::Sqrt,
            "exp" => ScalarFunc::Exp,
            "ln" | "log" => ScalarFunc::Ln,
            "pow" | "power" => ScalarFunc::Pow,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "round" => ScalarFunc::Round,
            "least" => ScalarFunc::Least,
            "greatest" => ScalarFunc::Greatest,
            "length" | "len" => ScalarFunc::Length,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "substr" | "substring" => ScalarFunc::Substr,
            "coalesce" => ScalarFunc::Coalesce,
            "sign" => ScalarFunc::Sign,
            _ => return None,
        })
    }

    /// SQL name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarFunc::Abs => "abs",
            ScalarFunc::Sqrt => "sqrt",
            ScalarFunc::Exp => "exp",
            ScalarFunc::Ln => "ln",
            ScalarFunc::Pow => "pow",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Round => "round",
            ScalarFunc::Least => "least",
            ScalarFunc::Greatest => "greatest",
            ScalarFunc::Length => "length",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Upper => "upper",
            ScalarFunc::Substr => "substr",
            ScalarFunc::Coalesce => "coalesce",
            ScalarFunc::Sign => "sign",
        }
    }

    /// Result type given argument types; validates arity and types.
    pub fn result_type(&self, args: &[DataType]) -> Result<DataType> {
        let expect_arity = |lo: usize, hi: usize| -> Result<()> {
            if args.len() < lo || args.len() > hi {
                return Err(HyError::Bind(format!(
                    "{}() expects {lo}..{hi} arguments, got {}",
                    self.name(),
                    args.len()
                )));
            }
            Ok(())
        };
        let numeric = |i: usize| -> Result<()> {
            if !args[i].is_numeric() && args[i] != DataType::Null {
                return Err(HyError::Type(format!(
                    "{}() argument {} must be numeric, got {}",
                    self.name(),
                    i + 1,
                    args[i]
                )));
            }
            Ok(())
        };
        match self {
            ScalarFunc::Abs => {
                expect_arity(1, 1)?;
                numeric(0)?;
                Ok(args[0])
            }
            ScalarFunc::Sqrt
            | ScalarFunc::Exp
            | ScalarFunc::Ln
            | ScalarFunc::Floor
            | ScalarFunc::Ceil
            | ScalarFunc::Round
            | ScalarFunc::Sign => {
                expect_arity(1, 1)?;
                numeric(0)?;
                Ok(DataType::Float64)
            }
            ScalarFunc::Pow => {
                expect_arity(2, 2)?;
                numeric(0)?;
                numeric(1)?;
                Ok(DataType::Float64)
            }
            ScalarFunc::Least | ScalarFunc::Greatest => {
                expect_arity(1, usize::MAX)?;
                let mut t = args[0];
                for &a in &args[1..] {
                    t = t.common_type(a)?;
                }
                Ok(t)
            }
            ScalarFunc::Length => {
                expect_arity(1, 1)?;
                Ok(DataType::Int64)
            }
            ScalarFunc::Lower | ScalarFunc::Upper => {
                expect_arity(1, 1)?;
                Ok(DataType::Varchar)
            }
            ScalarFunc::Substr => {
                expect_arity(2, 3)?;
                Ok(DataType::Varchar)
            }
            ScalarFunc::Coalesce => {
                expect_arity(1, usize::MAX)?;
                let mut t = args[0];
                for &a in &args[1..] {
                    t = t.common_type(a)?;
                }
                Ok(t)
            }
        }
    }

    /// Evaluate over already-evaluated argument columns (owned or not).
    pub fn eval<C: Borrow<ColumnVector>>(&self, args: &[C]) -> Result<ColumnVector> {
        let args: Vec<&ColumnVector> = args.iter().map(Borrow::borrow).collect();
        match self {
            ScalarFunc::Abs => match args[0] {
                ColumnVector::Int64 { data, validity } => Ok(ColumnVector::Int64 {
                    data: data.iter().map(|v| v.wrapping_abs()).collect(),
                    validity: validity.clone(),
                }),
                col => unary_f64(col, f64::abs),
            },
            ScalarFunc::Sqrt => unary_f64(args[0], f64::sqrt),
            ScalarFunc::Exp => unary_f64(args[0], f64::exp),
            ScalarFunc::Ln => unary_f64(args[0], f64::ln),
            ScalarFunc::Floor => unary_f64(args[0], f64::floor),
            ScalarFunc::Ceil => unary_f64(args[0], f64::ceil),
            ScalarFunc::Round => unary_f64(args[0], f64::round),
            ScalarFunc::Sign => unary_f64(args[0], |v| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }),
            ScalarFunc::Pow => eval_binary(BinaryOp::Pow, args[0], args[1]),
            ScalarFunc::Least => selective(&args, |a, b| a.sort_cmp(b).is_le()),
            ScalarFunc::Greatest => selective(&args, |a, b| a.sort_cmp(b).is_ge()),
            ScalarFunc::Length => {
                let s = args[0].as_varchar()?;
                Ok(ColumnVector::Int64 {
                    data: s.iter().map(|v| v.chars().count() as i64).collect(),
                    validity: args[0].validity().cloned(),
                })
            }
            ScalarFunc::Lower => map_str(args[0], |s| s.to_lowercase()),
            ScalarFunc::Upper => map_str(args[0], |s| s.to_uppercase()),
            ScalarFunc::Substr => {
                let s = args[0].as_varchar()?;
                let start = cast(Cow::Borrowed(args[1]), DataType::Int64)?;
                let start = start.as_i64()?;
                let len_col = if args.len() == 3 {
                    Some(cast(Cow::Borrowed(args[2]), DataType::Int64)?)
                } else {
                    None
                };
                let mut out = Vec::with_capacity(s.len());
                for i in 0..s.len() {
                    let chars: Vec<char> = s[i].chars().collect();
                    // SQL substr is 1-based; clamp out-of-range gracefully.
                    let from = (start[i].max(1) as usize - 1).min(chars.len());
                    let take = match &len_col {
                        Some(lc) => lc.as_i64()?[i].max(0) as usize,
                        None => chars.len() - from,
                    };
                    out.push(chars[from..(from + take).min(chars.len())].iter().collect());
                }
                Ok(ColumnVector::Varchar {
                    data: out,
                    validity: args[0].validity().cloned(),
                })
            }
            ScalarFunc::Coalesce => {
                let n = args[0].len();
                let target = {
                    let mut t = args[0].data_type();
                    for a in &args[1..] {
                        t = t.common_type(a.data_type())?;
                    }
                    t
                };
                let cols: Vec<Cow<ColumnVector>> = args
                    .iter()
                    .map(|a| cast(Cow::Borrowed(*a), target))
                    .collect::<Result<_>>()?;
                let mut out = ColumnVector::empty(target);
                for i in 0..n {
                    let v = cols
                        .iter()
                        .map(|c| c.value(i))
                        .find(|v| !v.is_null())
                        .unwrap_or(Value::Null);
                    out.push_value(&v)?;
                }
                Ok(out)
            }
        }
    }
}

fn unary_f64(col: &ColumnVector, f: impl Fn(f64) -> f64) -> Result<ColumnVector> {
    let c = cast(Cow::Borrowed(col), DataType::Float64)?;
    let data = c.as_f64()?;
    Ok(ColumnVector::Float64 {
        data: data.iter().map(|&v| f(v)).collect(),
        validity: c.validity().cloned(),
    })
}

fn map_str(col: &ColumnVector, f: impl Fn(&str) -> String) -> Result<ColumnVector> {
    let s = col.as_varchar()?;
    Ok(ColumnVector::Varchar {
        data: s.iter().map(|v| f(v)).collect(),
        validity: col.validity().cloned(),
    })
}

/// least/greatest: per-row pick among non-NULL arguments using `better`.
fn selective(
    args: &[&ColumnVector],
    better: impl Fn(&Value, &Value) -> bool,
) -> Result<ColumnVector> {
    let n = args[0].len();
    let target = {
        let mut t = args[0].data_type();
        for a in &args[1..] {
            t = t.common_type(a.data_type())?;
        }
        t
    };
    let cols: Vec<Cow<ColumnVector>> = args
        .iter()
        .map(|a| cast(Cow::Borrowed(*a), target))
        .collect::<Result<_>>()?;
    let mut out = ColumnVector::empty(target);
    for i in 0..n {
        let mut best = Value::Null;
        for c in &cols {
            let v = c.value(i);
            if v.is_null() {
                continue;
            }
            if best.is_null() || better(&v, &best) {
                best = v;
            }
        }
        out.push_value(&best)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector as CV;

    #[test]
    fn lookup_by_name() {
        assert_eq!(ScalarFunc::from_name("SQRT"), Some(ScalarFunc::Sqrt));
        assert_eq!(ScalarFunc::from_name("power"), Some(ScalarFunc::Pow));
        assert_eq!(ScalarFunc::from_name("nope"), None);
    }

    #[test]
    fn abs_keeps_int_type() {
        let c = ScalarFunc::Abs.eval(&[CV::from_i64(vec![-3, 4])]).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[3, 4]);
    }

    #[test]
    fn sqrt_casts_ints() {
        let c = ScalarFunc::Sqrt.eval(&[CV::from_i64(vec![4, 9])]).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[2.0, 3.0]);
    }

    #[test]
    fn pow_and_validity() {
        let mut a = CV::empty(DataType::Float64);
        a.push_value(&Value::Float(2.0)).unwrap();
        a.push_null();
        let b = CV::from_f64(vec![3.0, 3.0]);
        let c = ScalarFunc::Pow.eval(&[a, b]).unwrap();
        assert_eq!(c.value(0), Value::Float(8.0));
        assert!(c.value(1).is_null());
    }

    #[test]
    fn least_greatest_skip_nulls() {
        let mut a = CV::empty(DataType::Int64);
        a.push_null();
        a.push_value(&Value::Int(5)).unwrap();
        let b = CV::from_i64(vec![3, 2]);
        let l = ScalarFunc::Least.eval(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(l.value(0), Value::Int(3));
        assert_eq!(l.value(1), Value::Int(2));
        let g = ScalarFunc::Greatest.eval(&[a, b]).unwrap();
        assert_eq!(g.value(1), Value::Int(5));
    }

    #[test]
    fn string_functions() {
        let s = CV::from_str(vec!["Hello", "WORLD"]);
        assert_eq!(
            ScalarFunc::Lower
                .eval(std::slice::from_ref(&s))
                .unwrap()
                .as_varchar()
                .unwrap(),
            &["hello".to_string(), "world".to_string()]
        );
        assert_eq!(
            ScalarFunc::Length
                .eval(std::slice::from_ref(&s))
                .unwrap()
                .as_i64()
                .unwrap(),
            &[5, 5]
        );
        let sub = ScalarFunc::Substr
            .eval(&[s, CV::from_i64(vec![2, 1]), CV::from_i64(vec![3, 2])])
            .unwrap();
        assert_eq!(
            sub.as_varchar().unwrap(),
            &["ell".to_string(), "WO".to_string()]
        );
    }

    #[test]
    fn substr_out_of_range_clamps() {
        let s = CV::from_str(vec!["ab"]);
        let sub = ScalarFunc::Substr
            .eval(&[s, CV::from_i64(vec![5]), CV::from_i64(vec![3])])
            .unwrap();
        assert_eq!(sub.as_varchar().unwrap(), &["".to_string()]);
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let mut a = CV::empty(DataType::Int64);
        a.push_null();
        a.push_value(&Value::Int(1)).unwrap();
        let b = CV::from_i64(vec![9, 9]);
        let c = ScalarFunc::Coalesce.eval(&[a, b]).unwrap();
        assert_eq!(c.value(0), Value::Int(9));
        assert_eq!(c.value(1), Value::Int(1));
    }

    #[test]
    fn result_types() {
        assert_eq!(
            ScalarFunc::Abs.result_type(&[DataType::Int64]).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            ScalarFunc::Sqrt.result_type(&[DataType::Int64]).unwrap(),
            DataType::Float64
        );
        assert!(ScalarFunc::Sqrt.result_type(&[DataType::Varchar]).is_err());
        assert!(ScalarFunc::Pow.result_type(&[DataType::Float64]).is_err());
        assert_eq!(
            ScalarFunc::Least
                .result_type(&[DataType::Int64, DataType::Float64])
                .unwrap(),
            DataType::Float64
        );
    }
}
