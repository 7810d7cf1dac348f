//! Monomorphic vectorized kernels for binary/unary operations.
//!
//! Each kernel takes raw slices plus optional validity masks and produces
//! a full output column. NULL handling follows SQL: arithmetic and
//! comparison propagate NULL; AND/OR use three-valued logic.

use hylite_common::{Bitmap, ColumnVector, DataType, HyError, Result};

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

/// Element-wise arithmetic over `i64` slices.
pub fn arith_i64(op: &str, l: &[i64], r: &[i64], validity: Option<Bitmap>) -> Result<ColumnVector> {
    let n = l.len();
    let mut out = Vec::with_capacity(n);
    let valid_at = |i: usize| validity.as_ref().is_none_or(|v| v.get(i));
    match op {
        "+" => {
            for i in 0..n {
                out.push(l[i].wrapping_add(r[i]));
            }
        }
        "-" => {
            for i in 0..n {
                out.push(l[i].wrapping_sub(r[i]));
            }
        }
        "*" => {
            for i in 0..n {
                out.push(l[i].wrapping_mul(r[i]));
            }
        }
        "/" => {
            for i in 0..n {
                if r[i] == 0 && valid_at(i) {
                    return Err(HyError::Execution("division by zero".into()));
                }
                out.push(if r[i] == 0 {
                    0
                } else {
                    l[i].wrapping_div(r[i])
                });
            }
        }
        "%" => {
            for i in 0..n {
                if r[i] == 0 && valid_at(i) {
                    return Err(HyError::Execution("modulo by zero".into()));
                }
                out.push(if r[i] == 0 {
                    0
                } else {
                    l[i].wrapping_rem(r[i])
                });
            }
        }
        other => return Err(HyError::Internal(format!("unknown i64 arith op '{other}'"))),
    }
    Ok(ColumnVector::Int64 {
        data: out,
        validity,
    })
}

/// Element-wise arithmetic over `f64` slices. `^` is power.
pub fn arith_f64(op: &str, l: &[f64], r: &[f64], validity: Option<Bitmap>) -> Result<ColumnVector> {
    let n = l.len();
    let mut out = Vec::with_capacity(n);
    match op {
        "+" => out.extend((0..n).map(|i| l[i] + r[i])),
        "-" => out.extend((0..n).map(|i| l[i] - r[i])),
        "*" => out.extend((0..n).map(|i| l[i] * r[i])),
        "/" => {
            let valid_at = |i: usize| validity.as_ref().is_none_or(|v| v.get(i));
            for i in 0..n {
                if r[i] == 0.0 && valid_at(i) {
                    return Err(HyError::Execution("division by zero".into()));
                }
                out.push(if r[i] == 0.0 { 0.0 } else { l[i] / r[i] });
            }
        }
        "%" => out.extend((0..n).map(|i| l[i] % r[i])),
        "^" => out.extend((0..n).map(|i| l[i].powf(r[i]))),
        other => return Err(HyError::Internal(format!("unknown f64 arith op '{other}'"))),
    }
    Ok(ColumnVector::Float64 {
        data: out,
        validity,
    })
}

/// `v * v` per element as DOUBLE: what `v ^ 2` and `pow(v, 2)` mean, without
/// a `powf` call per element. Correctly rounded, so within 1 ulp of `powf`.
pub fn square(base: &ColumnVector) -> Result<ColumnVector> {
    let cast;
    let base = match base {
        ColumnVector::Float64 { .. } => base,
        other => {
            cast = other.cast_to(DataType::Float64)?;
            &cast
        }
    };
    Ok(ColumnVector::Float64 {
        data: base.as_f64()?.iter().map(|v| v * v).collect(),
        validity: base.validity().cloned(),
    })
}

/// Element-wise comparison producing a Bool column; generic over the
/// element type so one code path serves ints, floats, bools and strings.
pub fn compare<T: PartialOrd>(
    op: &str,
    l: &[T],
    r: &[T],
    validity: Option<Bitmap>,
) -> Result<ColumnVector> {
    let n = l.len();
    let mut out = Vec::with_capacity(n);
    macro_rules! cmp_loop {
        ($f:expr) => {
            for i in 0..n {
                out.push($f(&l[i], &r[i]));
            }
        };
    }
    match op {
        "=" => cmp_loop!(|a: &T, b: &T| a == b),
        "<>" => cmp_loop!(|a: &T, b: &T| a != b),
        "<" => cmp_loop!(|a: &T, b: &T| a < b),
        "<=" => cmp_loop!(|a: &T, b: &T| a <= b),
        ">" => cmp_loop!(|a: &T, b: &T| a > b),
        ">=" => cmp_loop!(|a: &T, b: &T| a >= b),
        other => {
            return Err(HyError::Internal(format!(
                "unknown comparison op '{other}'"
            )))
        }
    }
    Ok(ColumnVector::Bool {
        data: out,
        validity,
    })
}

/// Three-valued logical AND.
///
/// Truth table: F AND x = F; T AND T = T; otherwise NULL.
pub fn and_3vl(l: &[bool], lv: Option<&Bitmap>, r: &[bool], rv: Option<&Bitmap>) -> ColumnVector {
    let n = l.len();
    let mut data = Vec::with_capacity(n);
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let a = if lv.is_none_or(|v| v.get(i)) {
            Some(l[i])
        } else {
            None
        };
        let b = if rv.is_none_or(|v| v.get(i)) {
            Some(r[i])
        } else {
            None
        };
        match (a, b) {
            (Some(false), _) | (_, Some(false)) => data.push(false),
            (Some(true), Some(true)) => data.push(true),
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

/// Three-valued logical OR.
///
/// Truth table: T OR x = T; F OR F = F; otherwise NULL.
pub fn or_3vl(l: &[bool], lv: Option<&Bitmap>, r: &[bool], rv: Option<&Bitmap>) -> ColumnVector {
    let n = l.len();
    let mut data = Vec::with_capacity(n);
    let mut validity = Bitmap::filled(n, true);
    let mut any_null = false;
    for i in 0..n {
        let a = if lv.is_none_or(|v| v.get(i)) {
            Some(l[i])
        } else {
            None
        };
        let b = if rv.is_none_or(|v| v.get(i)) {
            Some(r[i])
        } else {
            None
        };
        match (a, b) {
            (Some(true), _) | (_, Some(true)) => data.push(true),
            (Some(false), Some(false)) => data.push(false),
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
        let c = arith_i64("+", &[1, 2], &[10, 20], None).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[11, 22]);
        let c = arith_i64("%", &[7, 9], &[4, 5], None).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[3, 4]);
        assert!(arith_i64("/", &[1], &[0], None).is_err());
    }

    #[test]
    fn i64_div_by_zero_in_null_slot_ok() {
        // Row is NULL: its zero divisor must not raise.
        let validity: Bitmap = [false].into_iter().collect();
        let c = arith_i64("/", &[1], &[0], Some(validity)).unwrap();
        assert!(c.value(0).is_null());
    }

    #[test]
    fn f64_arith_and_power() {
        let c = arith_f64("^", &[2.0, 3.0], &[3.0, 2.0], None).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[8.0, 9.0]);
        assert!(arith_f64("/", &[1.0], &[0.0], None).is_err());
    }

    #[test]
    fn comparisons() {
        let c = compare("<", &[1, 5], &[3, 3], None).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
        let c = compare("=", &["a", "b"], &["a", "c"], None).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[true, false]);
    }

    #[test]
    fn three_valued_and() {
        // rows: (T,T) (T,N) (F,N) (N,N)
        let l = [true, true, false, false];
        let lv: Bitmap = [true, true, true, false].into_iter().collect();
        let r = [true, false, false, false];
        let rv: Bitmap = [true, false, false, false].into_iter().collect();
        let c = and_3vl(&l, Some(&lv), &r, Some(&rv));
        assert_eq!(c.value(0), hylite_common::Value::Bool(true));
        assert!(c.value(1).is_null(), "T AND N = N");
        assert_eq!(c.value(2), hylite_common::Value::Bool(false), "F AND N = F");
        assert!(c.value(3).is_null());
    }

    #[test]
    fn three_valued_or() {
        let l = [true, false, false];
        let lv: Bitmap = [true, true, false].into_iter().collect();
        let r = [false, false, true];
        let rv: Bitmap = [false, true, true].into_iter().collect();
        let c = or_3vl(&l, Some(&lv), &r, Some(&rv));
        assert_eq!(c.value(0), hylite_common::Value::Bool(true), "T OR N = T");
        assert_eq!(c.value(1), hylite_common::Value::Bool(false));
        assert_eq!(c.value(2), hylite_common::Value::Bool(true), "N OR T = T");
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
