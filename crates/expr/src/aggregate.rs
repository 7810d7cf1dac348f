//! Aggregate functions with mergeable partial states.
//!
//! Aggregation follows the classic parallel pattern the paper's operators
//! use: each worker folds its morsels into a local [`AggregateState`],
//! states are merged, then finalized — so the same code serves both the
//! serial and the morsel-parallel aggregate operator.

use std::cmp::Ordering;

use hylite_common::value::sort_cmp_f64;
use hylite_common::{ColumnVector, DataType, HyError, Result, Value};

/// The built-in aggregate function set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateFunction {
    /// `COUNT(*)` — counts rows.
    CountStar,
    /// `COUNT(x)` — counts non-NULL values.
    Count,
    /// `SUM(x)`.
    Sum,
    /// `AVG(x)` — always DOUBLE.
    Avg,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
    /// `STDDEV(x)` — sample standard deviation, DOUBLE.
    Stddev,
    /// `VAR_SAMP(x)` — sample variance, DOUBLE.
    VarSamp,
}

impl AggregateFunction {
    /// Look up by (case-insensitive) SQL name. `COUNT(*)` is resolved by
    /// the binder into [`AggregateFunction::CountStar`].
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggregateFunction::Count,
            "sum" => AggregateFunction::Sum,
            "avg" | "mean" => AggregateFunction::Avg,
            "min" => AggregateFunction::Min,
            "max" => AggregateFunction::Max,
            "stddev" | "stddev_samp" => AggregateFunction::Stddev,
            "var_samp" | "variance" => AggregateFunction::VarSamp,
            _ => return None,
        })
    }

    /// SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::CountStar => "count(*)",
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Avg => "avg",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
            AggregateFunction::Stddev => "stddev",
            AggregateFunction::VarSamp => "var_samp",
        }
    }

    /// Result type given the input type.
    pub fn result_type(&self, input: DataType) -> Result<DataType> {
        match self {
            AggregateFunction::CountStar | AggregateFunction::Count => Ok(DataType::Int64),
            AggregateFunction::Sum => {
                if input.is_numeric() || input == DataType::Null {
                    Ok(if input == DataType::Int64 {
                        DataType::Int64
                    } else {
                        DataType::Float64
                    })
                } else {
                    Err(HyError::Type(format!(
                        "sum() requires numeric, got {input}"
                    )))
                }
            }
            AggregateFunction::Avg | AggregateFunction::Stddev | AggregateFunction::VarSamp => {
                if input.is_numeric() || input == DataType::Null {
                    Ok(DataType::Float64)
                } else {
                    Err(HyError::Type(format!(
                        "{}() requires numeric, got {input}",
                        self.name()
                    )))
                }
            }
            AggregateFunction::Min | AggregateFunction::Max => Ok(input),
        }
    }

    /// Create an empty accumulator.
    pub fn init(&self) -> AggregateState {
        match self {
            AggregateFunction::CountStar | AggregateFunction::Count => {
                AggregateState::Count { n: 0 }
            }
            AggregateFunction::Sum => AggregateState::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                n: 0,
            },
            AggregateFunction::Avg => AggregateState::Avg { sum: 0.0, n: 0 },
            AggregateFunction::Min => AggregateState::Extreme {
                best: Value::Null,
                is_min: true,
            },
            AggregateFunction::Max => AggregateState::Extreme {
                best: Value::Null,
                is_min: false,
            },
            AggregateFunction::Stddev => AggregateState::Moments {
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
                stddev: true,
            },
            AggregateFunction::VarSamp => AggregateState::Moments {
                n: 0,
                sum: 0.0,
                sum_sq: 0.0,
                stddev: false,
            },
        }
    }
}

/// How a value that replaces the best so far compares to it.
fn extreme_side(is_min: bool) -> Ordering {
    if is_min {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Mergeable accumulator for one aggregate over one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggregateState {
    /// COUNT / COUNT(*).
    Count {
        /// Rows (or non-NULL values) seen.
        n: i64,
    },
    /// SUM with integer/float duality: stays integer until a float is seen.
    Sum {
        /// Integer accumulator.
        int: i64,
        /// Float accumulator.
        float: f64,
        /// Whether any float value was consumed.
        saw_float: bool,
        /// Non-NULL values consumed (SUM of zero rows is NULL).
        n: i64,
    },
    /// AVG.
    Avg {
        /// Running sum.
        sum: f64,
        /// Non-NULL count.
        n: i64,
    },
    /// MIN/MAX.
    Extreme {
        /// Best value so far (NULL until any value is seen).
        best: Value,
        /// True for MIN.
        is_min: bool,
    },
    /// STDDEV / VAR_SAMP via (n, Σx, Σx²) — exactly the per-class
    /// statistics the paper's Naive Bayes training operator keeps.
    Moments {
        /// Non-NULL count.
        n: i64,
        /// Σx.
        sum: f64,
        /// Σx².
        sum_sq: f64,
        /// Finalize as stddev (true) or variance (false).
        stddev: bool,
    },
}

impl AggregateState {
    /// Fold one scalar into the state. For `CountStar` pass any value
    /// (including NULL); row counting is handled by `update_count_star`.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            AggregateState::Count { n } => {
                if !v.is_null() {
                    *n += 1;
                }
            }
            AggregateState::Sum {
                int,
                float,
                saw_float,
                n,
            } => match v {
                Value::Null => {}
                Value::Int(x) => {
                    *int = int.wrapping_add(*x);
                    *float += *x as f64;
                    *n += 1;
                }
                Value::Float(x) => {
                    *float += *x;
                    *saw_float = true;
                    *n += 1;
                }
                other => return Err(HyError::Type(format!("sum() over non-numeric {other}"))),
            },
            AggregateState::Avg { sum, n } => {
                if !v.is_null() {
                    *sum += v.as_float()?;
                    *n += 1;
                }
            }
            AggregateState::Extreme { best, is_min } => {
                let replaces = |best: &Value| v.sort_cmp(best) == extreme_side(*is_min);
                if !v.is_null() && (best.is_null() || replaces(best)) {
                    *best = v.clone();
                }
            }
            AggregateState::Moments { n, sum, sum_sq, .. } => {
                if !v.is_null() {
                    let x = v.as_float()?;
                    *n += 1;
                    *sum += x;
                    *sum_sq += x * x;
                }
            }
        }
        Ok(())
    }

    /// Fold `rows` rows into a COUNT(*) state.
    pub fn update_count_star(&mut self, rows: i64) {
        if let AggregateState::Count { n } = self {
            *n += rows;
        }
    }

    /// The column fold: row `i` of `col` goes into `states[group(i)]`,
    /// exactly as [`AggregateState::update`] of its value would, in row
    /// order — `|_| 0` for a global aggregate, the chunk's group ids for a
    /// grouped one. All `states` belong to one aggregate. BIGINT and
    /// DOUBLE arguments are folded without leaving their type.
    pub fn update_grouped(
        states: &mut [AggregateState],
        group: impl Fn(usize) -> usize,
        col: &ColumnVector,
    ) -> Result<()> {
        /// `f(row, state)` for every non-NULL row.
        fn each(
            states: &mut [AggregateState],
            group: impl Fn(usize) -> usize,
            col: &ColumnVector,
            mut f: impl FnMut(usize, &mut AggregateState),
        ) {
            match col.validity() {
                None => (0..col.len()).for_each(|i| f(i, &mut states[group(i)])),
                Some(v) => v.iter_ones().for_each(|i| f(i, &mut states[group(i)])),
            }
        }
        /// The folds that see their argument as a DOUBLE.
        fn each_f64(
            states: &mut [AggregateState],
            group: impl Fn(usize) -> usize,
            col: &ColumnVector,
            x: impl Fn(usize) -> f64,
        ) {
            each(states, group, col, |i, state| match state {
                AggregateState::Avg { sum, n } => {
                    *sum += x(i);
                    *n += 1;
                }
                AggregateState::Moments { n, sum, sum_sq, .. } => {
                    let x = x(i);
                    *n += 1;
                    *sum += x;
                    *sum_sq += x * x;
                }
                _ => unreachable!("one aggregate, one state shape"),
            });
        }
        match (states.first(), col) {
            (None, _) => {}
            (Some(AggregateState::Count { .. }), _) => {
                each(states, group, col, |_, state| state.update_count_star(1));
            }
            (Some(AggregateState::Sum { .. }), ColumnVector::Int64 { data, .. }) => {
                each(states, group, col, |i, state| {
                    if let AggregateState::Sum { int, float, n, .. } = state {
                        *int = int.wrapping_add(data[i]);
                        *float += data[i] as f64;
                        *n += 1;
                    }
                });
            }
            (Some(AggregateState::Sum { .. }), ColumnVector::Float64 { data, .. }) => {
                each(states, group, col, |i, state| {
                    if let AggregateState::Sum {
                        float,
                        saw_float,
                        n,
                        ..
                    } = state
                    {
                        *float += data[i];
                        *saw_float = true;
                        *n += 1;
                    }
                });
            }
            (
                Some(AggregateState::Avg { .. } | AggregateState::Moments { .. }),
                ColumnVector::Int64 { data, .. },
            ) => each_f64(states, group, col, |i| data[i] as f64),
            (
                Some(AggregateState::Avg { .. } | AggregateState::Moments { .. }),
                ColumnVector::Float64 { data, .. },
            ) => each_f64(states, group, col, |i| data[i]),
            (Some(AggregateState::Extreme { .. }), ColumnVector::Int64 { data, .. }) => {
                each(states, group, col, |i, state| {
                    let x = data[i];
                    match state {
                        AggregateState::Extreme {
                            best: Value::Int(best),
                            is_min,
                        } => {
                            if x.cmp(best) == extreme_side(*is_min) {
                                *best = x;
                            }
                        }
                        first => first
                            .update(&Value::Int(x))
                            .expect("MIN/MAX take any value"),
                    }
                });
            }
            (Some(AggregateState::Extreme { .. }), ColumnVector::Float64 { data, .. }) => {
                each(states, group, col, |i, state| {
                    let x = data[i];
                    match state {
                        AggregateState::Extreme {
                            best: Value::Float(best),
                            is_min,
                        } => {
                            if sort_cmp_f64(x, *best) == extreme_side(*is_min) {
                                *best = x;
                            }
                        }
                        first => first
                            .update(&Value::Float(x))
                            .expect("MIN/MAX take any value"),
                    }
                });
            }
            // BOOLEAN and VARCHAR arguments (MIN/MAX), and type errors.
            _ => {
                for i in 0..col.len() {
                    states[group(i)].update(&col.value(i))?;
                }
            }
        }
        Ok(())
    }

    /// Merge another state of the same shape into `self`.
    pub fn merge(&mut self, other: &AggregateState) -> Result<()> {
        match (&mut *self, other) {
            (AggregateState::Count { n }, AggregateState::Count { n: m }) => *n += m,
            (
                AggregateState::Sum {
                    int,
                    float,
                    saw_float,
                    n,
                },
                AggregateState::Sum {
                    int: i2,
                    float: f2,
                    saw_float: s2,
                    n: n2,
                },
            ) => {
                *int = int.wrapping_add(*i2);
                *float += f2;
                *saw_float |= s2;
                *n += n2;
            }
            (AggregateState::Avg { sum, n }, AggregateState::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            // The other side's best is one more value for this side.
            (AggregateState::Extreme { .. }, AggregateState::Extreme { best, .. }) => {
                self.update(best)?
            }
            (
                AggregateState::Moments { n, sum, sum_sq, .. },
                AggregateState::Moments {
                    n: n2,
                    sum: s2,
                    sum_sq: q2,
                    ..
                },
            ) => {
                *n += n2;
                *sum += s2;
                *sum_sq += q2;
            }
            (a, b) => {
                return Err(HyError::Internal(format!(
                    "cannot merge aggregate states {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finalize(&self) -> Value {
        match self {
            AggregateState::Count { n } => Value::Int(*n),
            AggregateState::Sum {
                int,
                float,
                saw_float,
                n,
            } => {
                if *n == 0 {
                    Value::Null
                } else if *saw_float {
                    Value::Float(*float)
                } else {
                    Value::Int(*int)
                }
            }
            AggregateState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
            AggregateState::Extreme { best, .. } => best.clone(),
            AggregateState::Moments {
                n,
                sum,
                sum_sq,
                stddev,
            } => {
                if *n < 2 {
                    return Value::Null;
                }
                let nf = *n as f64;
                let var = ((sum_sq - sum * sum / nf) / (nf - 1.0)).max(0.0);
                Value::Float(if *stddev { var.sqrt() } else { var })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::ColumnVector as CV;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run(f: AggregateFunction, vals: &[Value]) -> Value {
        let mut s = f.init();
        for v in vals {
            s.update(v).unwrap();
        }
        s.finalize()
    }

    #[test]
    fn count_ignores_nulls() {
        assert_eq!(
            run(
                AggregateFunction::Count,
                &[Value::Int(1), Value::Null, Value::Int(2)]
            ),
            Value::Int(2)
        );
    }

    #[test]
    fn count_star_counts_rows() {
        let mut s = AggregateFunction::CountStar.init();
        s.update_count_star(5);
        s.update_count_star(2);
        assert_eq!(s.finalize(), Value::Int(7));
    }

    #[test]
    fn sum_integer_stays_integer() {
        assert_eq!(
            run(AggregateFunction::Sum, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggregateFunction::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
        assert_eq!(run(AggregateFunction::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn avg_and_empty() {
        assert_eq!(
            run(
                AggregateFunction::Avg,
                &[Value::Int(1), Value::Int(2), Value::Null]
            ),
            Value::Float(1.5)
        );
        assert_eq!(run(AggregateFunction::Avg, &[]), Value::Null);
    }

    #[test]
    fn min_max() {
        let vals = [Value::Int(3), Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggregateFunction::Min, &vals), Value::Int(1));
        assert_eq!(run(AggregateFunction::Max, &vals), Value::Int(3));
        assert_eq!(run(AggregateFunction::Min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn stddev_matches_reference() {
        // stddev of 2,4,4,4,5,5,7,9 (sample) = sqrt(32/7)
        let vals: Vec<Value> = [2, 4, 4, 4, 5, 5, 7, 9]
            .iter()
            .map(|&v| Value::Int(v))
            .collect();
        let got = run(AggregateFunction::Stddev, &vals);
        let expect = (32.0f64 / 7.0).sqrt();
        assert!((got.as_float().unwrap() - expect).abs() < 1e-12);
        assert_eq!(
            run(AggregateFunction::Stddev, &[Value::Int(1)]),
            Value::Null,
            "sample stddev of one value is undefined"
        );
    }

    #[test]
    fn merge_equals_sequential() {
        let vals: Vec<Value> = (1..=10).map(Value::Int).collect();
        for f in [
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Stddev,
            AggregateFunction::VarSamp,
        ] {
            let mut whole = f.init();
            for v in &vals {
                whole.update(v).unwrap();
            }
            let (mut a, mut b) = (f.init(), f.init());
            for v in &vals[..4] {
                a.update(v).unwrap();
            }
            for v in &vals[4..] {
                b.update(v).unwrap();
            }
            a.merge(&b).unwrap();
            assert_eq!(a.finalize(), whole.finalize(), "{}", f.name());
        }
    }

    /// A column of `len` values of type `t` drawn from the edge cases —
    /// NULL, NaN, ±0.0, ±∞, the i64 extremes — and a few ordinary ones.
    fn edge_column(rng: &mut StdRng, t: DataType, len: usize) -> CV {
        let ints = [i64::MIN, i64::MAX, 0, -1, 1, 7, i64::MAX - 3];
        let floats = [0.0, -0.0, f64::NAN, f64::INFINITY, -1.5, 1e300, 0.25];
        let strs = ["", "a", "a\0", "b", "ab"];
        let mut col = CV::empty(t);
        for _ in 0..len {
            let v = match rng.gen_range(0..8usize) {
                0 => Value::Null,
                i => match t {
                    DataType::Int64 => Value::Int(ints[i % ints.len()]),
                    DataType::Float64 => Value::Float(floats[i % floats.len()]),
                    DataType::Bool => Value::Bool(i % 2 == 0),
                    _ => Value::Str(strs[i % strs.len()].into()),
                },
            };
            col.push_value(&v).unwrap();
        }
        col
    }

    /// Finalized values, floats by bits.
    fn finalized(states: &[AggregateState]) -> Vec<String> {
        let bits = |v: Value| match v {
            Value::Float(x) => format!("f{:#x}", x.to_bits()),
            v => format!("{v:?}"),
        };
        states.iter().map(|s| bits(s.finalize())).collect()
    }

    /// Folding a column — into one state, and into random groups — is
    /// `update` of each row's value in row order, for every aggregate over
    /// every argument type (or fails where `update` does).
    #[test]
    fn the_column_fold_is_update_per_row() {
        let mut rng = StdRng::seed_from_u64(26);
        let funcs = [
            AggregateFunction::CountStar,
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Stddev,
            AggregateFunction::VarSamp,
        ];
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Varchar,
        ];
        for case in 0..400 {
            let (f, t) = (funcs[case % 8], types[case / 8 % 4]);
            let len = rng.gen_range(0..40usize);
            let col = edge_column(&mut rng, t, len);
            let k = rng.gen_range(1..5usize);
            let groups: Vec<u32> = (0..col.len()).map(|_| rng.gen_range(0..k as u32)).collect();
            let one = |_: usize| 0;
            let random = |i: usize| groups[i] as usize;
            let maps: [(&str, &dyn Fn(usize) -> usize); 2] =
                [("one state", &one), ("groups", &random)];
            for (map, group) in maps {
                let case = format!("case {case} into {map}: {} over {col:?}", f.name());
                let mut states = vec![f.init(); k];
                let folded = AggregateState::update_grouped(&mut states, group, &col);
                let mut by_row = vec![f.init(); k];
                let want = (0..col.len()).try_for_each(|i| by_row[group(i)].update(&col.value(i)));
                assert_eq!(folded.is_ok(), want.is_ok(), "{case}");
                if want.is_ok() {
                    assert_eq!(finalized(&states), finalized(&by_row), "{case}");
                }
            }
        }
    }

    #[test]
    fn result_types() {
        assert_eq!(
            AggregateFunction::Sum.result_type(DataType::Int64).unwrap(),
            DataType::Int64
        );
        assert_eq!(
            AggregateFunction::Avg.result_type(DataType::Int64).unwrap(),
            DataType::Float64
        );
        assert_eq!(
            AggregateFunction::Min
                .result_type(DataType::Varchar)
                .unwrap(),
            DataType::Varchar
        );
        assert!(AggregateFunction::Sum
            .result_type(DataType::Varchar)
            .is_err());
    }

    #[test]
    fn from_name_lookup() {
        assert_eq!(
            AggregateFunction::from_name("STDDEV"),
            Some(AggregateFunction::Stddev)
        );
        assert_eq!(AggregateFunction::from_name("median"), None);
    }
}
