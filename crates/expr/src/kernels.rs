//! Monomorphic vectorized kernels for binary/unary operations.
//!
//! A binary kernel takes each operand as a [`Side`] — a column's values or
//! one value standing for every row — plus the already merged validity
//! mask, and runs one generic loop per operator ([`map2`]). NULL handling
//! follows SQL: arithmetic and comparison propagate NULL; AND/OR use
//! three-valued logic.

use std::borrow::Cow;

use hylite_common::{Bitmap, ColumnVector, DataType, HyError, Result};

/// One operand of a binary kernel.
#[derive(Debug, Clone, Copy)]
pub enum Side<'a, T> {
    /// Row `i` is `values[i]`.
    Col(&'a [T]),
    /// Every row is this one value.
    One(&'a T),
}

impl<'a, T> Side<'a, T> {
    /// The first value of `values` for every row when `scalar`, else each.
    pub fn new(values: &'a [T], scalar: bool) -> Side<'a, T> {
        if scalar {
            Side::One(&values[0])
        } else {
            Side::Col(values)
        }
    }
}

/// Rows of a binary result: a column's length, or 1 for two scalars.
fn rows<A, B>(l: Side<'_, A>, r: Side<'_, B>) -> usize {
    match (l, r) {
        (Side::Col(a), _) => a.len(),
        (_, Side::Col(b)) => b.len(),
        _ => 1,
    }
}

/// `f` over the rows of `l` and `r`: the one loop every binary kernel
/// runs, monomorphised per operand shape.
pub fn map2<A, B, O>(l: Side<'_, A>, r: Side<'_, B>, f: impl Fn(&A, &B) -> O) -> Vec<O> {
    match (l, r) {
        (Side::Col(a), Side::Col(b)) => a.iter().zip(b).map(|(a, b)| f(a, b)).collect(),
        (Side::Col(a), Side::One(b)) => a.iter().map(|a| f(a, b)).collect(),
        (Side::One(a), Side::Col(b)) => b.iter().map(|b| f(a, b)).collect(),
        (Side::One(a), Side::One(b)) => vec![f(a, b)],
    }
}

/// `col` in type `target`; free when it already has it.
pub fn cast(col: Cow<'_, ColumnVector>, target: DataType) -> Result<Cow<'_, ColumnVector>> {
    if col.data_type() == target {
        Ok(col)
    } else {
        col.cast_to(target).map(Cow::Owned)
    }
}

/// Combine two optional validity masks by AND (NULL-propagating ops).
pub fn merge_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) => Some(x.clone()),
        (None, Some(y)) => Some(y.clone()),
        (Some(x), Some(y)) => {
            let mut m = x.clone();
            m.and_with(y);
            Some(m)
        }
    }
}

/// Fails with "`what` by zero" when a valid row's divisor is zero.
fn check_divisor<T: Default + PartialEq>(
    l: Side<'_, T>,
    r: Side<'_, T>,
    validity: Option<&Bitmap>,
    what: &str,
) -> Result<()> {
    let (zero, valid) = (T::default(), |i: usize| validity.is_none_or(|v| v.get(i)));
    let hit = match r {
        Side::Col(b) => b.iter().enumerate().any(|(i, b)| *b == zero && valid(i)),
        Side::One(b) => *b == zero && (0..rows(l, r)).any(valid),
    };
    if hit {
        return Err(HyError::Execution(format!("{what} by zero")));
    }
    Ok(())
}

/// Element-wise arithmetic over `i64`s.
pub fn arith_i64(
    op: &str,
    l: Side<'_, i64>,
    r: Side<'_, i64>,
    validity: Option<Bitmap>,
) -> Result<ColumnVector> {
    let data = match op {
        "+" => map2(l, r, |a, b| a.wrapping_add(*b)),
        "-" => map2(l, r, |a, b| a.wrapping_sub(*b)),
        "*" => map2(l, r, |a, b| a.wrapping_mul(*b)),
        "/" => {
            check_divisor(l, r, validity.as_ref(), "division")?;
            map2(l, r, |a, b| if *b == 0 { 0 } else { a.wrapping_div(*b) })
        }
        "%" => {
            check_divisor(l, r, validity.as_ref(), "modulo")?;
            map2(l, r, |a, b| if *b == 0 { 0 } else { a.wrapping_rem(*b) })
        }
        other => return Err(HyError::Internal(format!("unknown i64 arith op '{other}'"))),
    };
    Ok(ColumnVector::Int64 { data, validity })
}

/// Element-wise arithmetic over `f64`s. `^` is power.
pub fn arith_f64(
    op: &str,
    l: Side<'_, f64>,
    r: Side<'_, f64>,
    validity: Option<Bitmap>,
) -> Result<ColumnVector> {
    let data = match op {
        "+" => map2(l, r, |a, b| a + b),
        "-" => map2(l, r, |a, b| a - b),
        "*" => map2(l, r, |a, b| a * b),
        "/" => {
            check_divisor(l, r, validity.as_ref(), "division")?;
            map2(l, r, |a, b| if *b == 0.0 { 0.0 } else { a / b })
        }
        "%" => {
            check_divisor(l, r, validity.as_ref(), "modulo")?;
            map2(l, r, |a, b| if *b == 0.0 { 0.0 } else { a % b })
        }
        "^" => map2(l, r, |a, b| a.powf(*b)),
        other => return Err(HyError::Internal(format!("unknown f64 arith op '{other}'"))),
    };
    Ok(ColumnVector::Float64 { data, validity })
}

/// `v * v` per element as DOUBLE: what `v ^ 2` and `pow(v, 2)` mean, without
/// a `powf` call per element. Correctly rounded, so within 1 ulp of `powf`.
pub fn square(base: &ColumnVector) -> Result<ColumnVector> {
    let base = cast(Cow::Borrowed(base), DataType::Float64)?;
    Ok(ColumnVector::Float64 {
        data: base.as_f64()?.iter().map(|v| v * v).collect(),
        validity: base.validity().cloned(),
    })
}

/// Element-wise comparison producing a Bool column; generic over the
/// element type so one code path serves ints, floats, bools and strings.
pub fn compare<T: PartialOrd>(
    op: &str,
    l: Side<'_, T>,
    r: Side<'_, T>,
    validity: Option<Bitmap>,
) -> Result<ColumnVector> {
    let data = match op {
        "=" => map2(l, r, |a, b| a == b),
        "<>" => map2(l, r, |a, b| a != b),
        "<" => map2(l, r, |a, b| a < b),
        "<=" => map2(l, r, |a, b| a <= b),
        ">" => map2(l, r, |a, b| a > b),
        ">=" => map2(l, r, |a, b| a >= b),
        other => {
            return Err(HyError::Internal(format!(
                "unknown comparison op '{other}'"
            )))
        }
    };
    Ok(ColumnVector::Bool { data, validity })
}

/// Three-valued AND (`absorbing` false) or OR (`absorbing` true): a valid
/// `absorbing` operand decides the row, two valid others give their value,
/// anything else is NULL. F AND x = F, T AND T = T; T OR x = T, F OR F = F.
pub fn logic_3vl(
    absorbing: bool,
    l: &[bool],
    lv: Option<&Bitmap>,
    r: &[bool],
    rv: Option<&Bitmap>,
) -> ColumnVector {
    let n = l.len();
    let mut data = Vec::with_capacity(n);
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let a = lv.is_none_or(|v| v.get(i)).then_some(l[i]);
        let b = rv.is_none_or(|v| v.get(i)).then_some(r[i]);
        match (a, b) {
            (Some(x), _) | (_, Some(x)) if x == absorbing => data.push(absorbing),
            (Some(_), Some(_)) => data.push(!absorbing),
            _ => {
                data.push(false);
                validity.set(i, false);
                any_null = true;
            }
        }
    }
    ColumnVector::Bool {
        data,
        validity: any_null.then_some(validity),
    }
}

/// SQL LIKE pattern match: `%` matches any run, `_` matches one char.
pub fn like_match(s: &str, pattern: &str) -> bool {
    // Classic two-pointer algorithm with backtracking on the last `%`.
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star_p, mut star_s) = (usize::MAX, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star_p = pi;
            star_s = si;
            pi += 1;
        } else if star_p != usize::MAX {
            pi = star_p + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_arith() {
        let c = arith_i64("+", Side::Col(&[1, 2]), Side::Col(&[10, 20]), None).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[11, 22]);
        let c = arith_i64("%", Side::Col(&[7, 9]), Side::Col(&[4, 5]), None).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[3, 4]);
        assert!(arith_i64("/", Side::Col(&[1]), Side::Col(&[0]), None).is_err());
        let c = arith_i64("-", Side::One(&10), Side::Col(&[1, 2]), None).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[9, 8]);
    }

    #[test]
    fn i64_div_by_zero_in_null_slot_ok() {
        // Row is NULL: its zero divisor must not raise.
        let validity: Bitmap = [false].into_iter().collect();
        let c = arith_i64(
            "/",
            Side::Col(&[1]),
            Side::Col(&[0]),
            Some(validity.clone()),
        )
        .unwrap();
        assert!(c.value(0).is_null());
        // A zero scalar fails only when some row on the other side is valid.
        assert!(arith_i64("/", Side::Col(&[1]), Side::One(&0), Some(validity)).is_ok());
        assert!(arith_i64("%", Side::Col(&[1, 2]), Side::One(&0), None).is_err());
        assert!(arith_i64("/", Side::Col(&[]), Side::One(&0), None).is_ok());
    }

    #[test]
    fn f64_arith_and_power() {
        let c = arith_f64("^", Side::Col(&[2.0, 3.0]), Side::Col(&[3.0, 2.0]), None).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[8.0, 9.0]);
        assert!(arith_f64("/", Side::Col(&[1.0]), Side::Col(&[0.0]), None).is_err());
        assert!(arith_f64("%", Side::Col(&[5.0]), Side::One(&-0.0), None).is_err());
        let c = arith_f64("%", Side::One(&5.0), Side::Col(&[3.0]), None).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[2.0]);
    }

    #[test]
    fn comparisons() {
        let c = compare("<", Side::Col(&[1, 5]), Side::One(&3), None).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
        let c = compare("=", Side::Col(&["a", "b"]), Side::Col(&["a", "c"]), None).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
        let c = compare(">", Side::One(&2.0), Side::One(&1.0), None).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true]);
    }

    #[test]
    fn three_valued_and() {
        // rows: (T,T) (T,N) (F,N) (N,N)
        let l = [true, true, false, false];
        let lv: Bitmap = [true, true, true, false].into_iter().collect();
        let r = [true, false, false, false];
        let rv: Bitmap = [true, false, false, false].into_iter().collect();
        let c = logic_3vl(false, &l, Some(&lv), &r, Some(&rv));
        assert_eq!(c.value(0), hylite_common::Value::Bool(true));
        assert!(c.value(1).is_null(), "T AND N = N");
        assert_eq!(c.value(2), hylite_common::Value::Bool(false), "F AND N = F");
        assert!(c.value(3).is_null());
    }

    #[test]
    fn three_valued_or() {
        let l = [true, false, false, false];
        let lv: Bitmap = [true, true, false, true].into_iter().collect();
        let r = [false, false, true, true];
        let rv: Bitmap = [false, true, true, true].into_iter().collect();
        let c = logic_3vl(true, &l, Some(&lv), &r, Some(&rv));
        assert_eq!(c.value(0), hylite_common::Value::Bool(true), "T OR N = T");
        assert_eq!(c.value(1), hylite_common::Value::Bool(false));
        assert_eq!(c.value(2), hylite_common::Value::Bool(true), "N OR T = T");
        assert_eq!(c.value(3), hylite_common::Value::Bool(true), "F OR T = T");
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("hello", "h_lo"));
        assert!(!like_match("hello", "hello_"));
        assert!(like_match("a.b.c", "a%c"));
        assert!(like_match("abc", "%%c"));
    }

    #[test]
    fn validity_merge() {
        let a: Bitmap = [true, false].into_iter().collect();
        let b: Bitmap = [true, true].into_iter().collect();
        let m = merge_validity(Some(&a), Some(&b)).unwrap();
        assert!(m.get(0));
        assert!(!m.get(1));
        assert!(merge_validity(None, None).is_none());
    }
}
