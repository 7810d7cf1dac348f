//! Aggregate functions: their definition, one value at a time, and the
//! typed state columns the hash aggregate folds into.
//!
//! [`AggregateState`] is an aggregate's definition for one group: `update`
//! folds one [`Value`], `merge` adds another partial state, `finalize`
//! gives the result. The executor's reference implementation, the oracle
//! of its differential tests, folds through it alone.
//!
//! [`Accumulator`] is the production form: one aggregate's states for
//! every group, as typed columns indexed by group id — counts and BIGINT
//! sums in `Vec<i64>`, float sums as `(n, Σx, Σx²)` columns, MIN/MAX as a
//! column of the argument's type beside a set bit — folded a chunk at a
//! time by typed loops, with no `Value` per row or per group. Counts,
//! BIGINT sums and MIN/MAX are exact and fold straight into the totals
//! (a MIN/MAX tie keeps the value seen first). Float sums fold each chunk
//! into partial columns, reused from chunk to chunk, and the partials of
//! the groups the chunk touched are then added to the totals: the
//! additions `update` per row and `merge` per chunk make, in their order,
//! so the same bits whoever folds which chunk.

use std::cmp::Ordering;

use hylite_common::value::sort_cmp_f64;
use hylite_common::{Bitmap, ColumnVector, DataType, HyError, Result, Value};

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
        use AggregateFunction::*;
        match self {
            CountStar | Count => Ok(DataType::Int64),
            Min | Max => Ok(input),
            _ if !input.is_numeric() && input != DataType::Null => Err(HyError::Type(format!(
                "{}() requires numeric, got {input}",
                self.name()
            ))),
            Sum if input == DataType::Int64 => Ok(DataType::Int64),
            _ => Ok(DataType::Float64),
        }
    }

    /// Create an empty accumulator.
    pub fn init(&self) -> AggregateState {
        AggregateState {
            func: *self,
            n: 0,
            int: 0,
            sum: 0.0,
            sum_sq: 0.0,
            saw_float: false,
            best: Value::Null,
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

/// Mergeable accumulator for one aggregate over one group: the
/// aggregate's definition. Each function reads the fields it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateState {
    func: AggregateFunction,
    /// Non-NULL values folded (rows, for COUNT(*)).
    n: i64,
    /// SUM's integer sum, wrapping.
    int: i64,
    /// Σx as DOUBLEs (SUM's, while no DOUBLE is seen, shadows `int`).
    sum: f64,
    /// Σx² — with `n` and `sum` exactly the per-class statistics the
    /// paper's Naive Bayes training operator keeps.
    sum_sq: f64,
    /// Whether SUM saw a DOUBLE: its result is then `sum`, else `int`.
    saw_float: bool,
    /// MIN/MAX: the best value so far (NULL until any value is seen).
    best: Value,
}

impl AggregateState {
    /// Fold one scalar into the state. For `CountStar` pass any value
    /// (including NULL); row counting is handled by `update_count_star`.
    pub fn update(&mut self, v: &Value) -> Result<()> {
        use AggregateFunction::*;
        if v.is_null() {
            return Ok(());
        }
        match (self.func, v) {
            (CountStar | Count, _) => {}
            (Min | Max, _) => {
                let side = extreme_side(self.func == Min);
                if self.best.is_null() || v.sort_cmp(&self.best) == side {
                    self.best = v.clone();
                }
            }
            (Sum, Value::Int(x)) => {
                self.int = self.int.wrapping_add(*x);
                self.sum += *x as f64;
            }
            (Sum, Value::Float(x)) => {
                self.sum += *x;
                self.saw_float = true;
            }
            (Sum, other) => return Err(HyError::Type(format!("sum() over non-numeric {other}"))),
            (Avg | Stddev | VarSamp, _) => {
                let x = v.as_float()?;
                self.sum += x;
                self.sum_sq += x * x;
            }
        }
        self.n += 1;
        Ok(())
    }

    /// Fold `rows` rows into a COUNT(*) state.
    pub fn update_count_star(&mut self, rows: i64) {
        self.n += rows;
    }

    /// Merge another state of the same aggregate into `self`.
    pub fn merge(&mut self, other: &AggregateState) -> Result<()> {
        if self.func != other.func {
            return Err(HyError::Internal(format!(
                "cannot merge aggregate states {self:?} and {other:?}"
            )));
        }
        if matches!(self.func, AggregateFunction::Min | AggregateFunction::Max) {
            // The other side's best is one more value for this side.
            return self.update(&other.best);
        }
        self.n += other.n;
        self.int = self.int.wrapping_add(other.int);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.saw_float |= other.saw_float;
        Ok(())
    }

    /// Produce the final aggregate value.
    pub fn finalize(&self) -> Value {
        use AggregateFunction::*;
        let float = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
        match self.func {
            CountStar | Count => Value::Int(self.n),
            Min | Max => self.best.clone(),
            Sum if self.n == 0 => Value::Null,
            Sum if self.saw_float => Value::Float(self.sum),
            Sum => Value::Int(self.int),
            Avg => float(mean(self.sum, self.n)),
            Stddev | VarSamp => float(spread(self.n, self.sum, self.sum_sq, self.func == Stddev)),
        }
    }
}

/// AVG of `n` values summing to `sum`: NULL (`None`) over none.
fn mean(sum: f64, n: i64) -> Option<f64> {
    (n > 0).then(|| sum / n as f64)
}

/// Sample STDDEV (`stddev`) or VAR_SAMP of `n` values with sum `sum` and
/// sum of squares `sum_sq`: NULL (`None`) below two values.
fn spread(n: i64, sum: f64, sum_sq: f64, stddev: bool) -> Option<f64> {
    (n >= 2).then(|| {
        let nf = n as f64;
        let var = ((sum_sq - sum * sum / nf) / (nf - 1.0)).max(0.0);
        if stddev {
            var.sqrt()
        } else {
            var
        }
    })
}

/// One aggregate's states for every group, as typed columns indexed by
/// group id: what an [`AggregateState`] is for one group.
#[derive(Debug)]
pub struct Accumulator {
    func: AggregateFunction,
    columns: Columns,
}

/// The state columns of each shape of aggregate.
#[derive(Debug)]
enum Columns {
    /// COUNT(*) and COUNT(x): rows, or non-NULL values.
    Count(Vec<i64>),
    /// SUM over BIGINT: the wrapping sum and the non-NULL values.
    IntSum(Vec<i64>, Vec<i64>),
    /// SUM over DOUBLE, AVG, STDDEV and VAR_SAMP: the totals, and the
    /// partials of the chunk being folded.
    Moments(Moments, Moments),
    /// MIN/MAX: the best value so far, in the argument's type, and
    /// whether the group has one.
    Extreme(ColumnVector, Vec<bool>),
}

/// `(n, Σx, Σx²)` columns; Σx² only with `squares` (STDDEV, VAR_SAMP).
#[derive(Debug, Default)]
struct Moments {
    n: Vec<i64>,
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    squares: bool,
}

impl Moments {
    fn resize(&mut self, len: usize) {
        self.n.resize(len, 0);
        self.sum.resize(len, 0.0);
        self.sum_sq.resize(if self.squares { len } else { 0 }, 0.0);
    }

    /// Every non-NULL row `i` of `col`, as `x(i)`, into entry `id(i)`, in
    /// row order.
    fn fold(&mut self, col: &ColumnVector, id: impl Fn(usize) -> usize, x: impl Fn(usize) -> f64) {
        moments(&mut self.n, &mut self.sum, &mut self.sum_sq, col, id, x);
    }

    /// Add the partials of the groups in `touched` to their totals, as
    /// `merge` adds, and empty them. A partial with no values is all
    /// zeros, and a total is never -0.0: adding it would change nothing,
    /// so `touched` may repeat a group or name one the chunk missed.
    fn flush(&mut self, partial: &mut Moments, touched: impl Iterator<Item = usize>) {
        for g in touched {
            if partial.n[g] > 0 {
                self.n[g] += std::mem::take(&mut partial.n[g]);
                self.sum[g] += std::mem::take(&mut partial.sum[g]);
                if self.squares {
                    self.sum_sq[g] += std::mem::take(&mut partial.sum_sq[g]);
                }
            }
        }
    }
}

// The fold kernels take their state columns as slices, which the
// compiler then knows apart from the argument's data: a global
// aggregate's state stays in registers.

/// Each of `rows` counted in entry `id(i)` of `n`.
fn count(n: &mut [i64], rows: impl Iterator<Item = usize>, id: impl Fn(usize) -> usize) {
    rows.for_each(|i| n[id(i)] += 1);
}

/// Every non-NULL row `i` of `col`, `data[i]`, into entry `id(i)` of `sum`
/// (wrapping) and `n`.
fn int_sum(
    n: &mut [i64],
    sum: &mut [i64],
    col: &ColumnVector,
    data: &[i64],
    id: impl Fn(usize) -> usize,
) {
    valid_rows(col).for_each(|i| {
        let g = id(i);
        sum[g] = sum[g].wrapping_add(data[i]);
        n[g] += 1;
    });
}

/// [`Moments::fold`]: Σx² only where `sum_sq` is not empty.
fn moments(
    n: &mut [i64],
    sum: &mut [f64],
    sum_sq: &mut [f64],
    col: &ColumnVector,
    id: impl Fn(usize) -> usize,
    x: impl Fn(usize) -> f64,
) {
    if sum_sq.is_empty() {
        valid_rows(col).for_each(|i| {
            let g = id(i);
            n[g] += 1;
            sum[g] += x(i);
        });
    } else {
        valid_rows(col).for_each(|i| {
            let (g, x) = (id(i), x(i));
            n[g] += 1;
            sum[g] += x;
            sum_sq[g] += x * x;
        });
    }
}

/// The non-NULL rows of `col`, in order.
fn valid_rows(col: &ColumnVector) -> impl Iterator<Item = usize> + '_ {
    let validity = col.validity();
    (0..col.len()).filter(move |&i| validity.is_none_or(|v| v.get(i)))
}

/// MIN/MAX: non-NULL row `i` becomes group `id(i)`'s best where it has
/// none yet or `replaces(row, best)`. A groupjoin's second pass (`at`)
/// changes no best: it lists the rows at their group's best.
fn extreme<T: Clone>(
    (best, set): (&mut [T], &mut [bool]),
    (col, data): (&ColumnVector, &[T]),
    (id, at): (impl Fn(usize) -> usize, Option<&mut Vec<usize>>),
    replaces: impl Fn(&T, &T) -> bool,
) {
    // No row beats its group's final best: one the best does not beat is
    // `=` to it (or a NaN beside a NaN best, a group no join matches).
    if let Some(rows) = at {
        rows.clear();
        rows.extend(valid_rows(col).filter(|&i| !replaces(&best[id(i)], &data[i])));
        return;
    }
    valid_rows(col).for_each(|i| {
        let g = id(i);
        if !set[g] || replaces(&data[i], &best[g]) {
            best[g] = data[i].clone();
            set[g] = true;
        }
    });
}

/// A column of `make`'s type whose row `j` is `value(order[j])`, NULL
/// (over a zero slot) where that is `None`.
fn output<T: Default>(
    order: &[usize],
    value: impl Fn(usize) -> Option<T>,
    make: fn(Vec<T>) -> ColumnVector,
) -> ColumnVector {
    let mut valid = Bitmap::filled(order.len(), true);
    let data = order.iter().enumerate().map(|(j, &g)| {
        value(g).unwrap_or_else(|| {
            valid.set(j, false);
            T::default()
        })
    });
    let col = make(data.collect());
    col.with_validity((!valid.all_set()).then_some(valid))
}

impl Accumulator {
    /// No groups yet, for `func` over an argument of type `arg`
    /// ([`DataType::Null`] for COUNT(*)).
    pub fn new(func: AggregateFunction, arg: DataType) -> Accumulator {
        use AggregateFunction::*;
        let moments = |squares| Moments {
            squares,
            ..Moments::default()
        };
        let columns = match func {
            CountStar | Count => Columns::Count(Vec::new()),
            Sum if arg == DataType::Int64 => Columns::IntSum(Vec::new(), Vec::new()),
            Sum | Avg => Columns::Moments(moments(false), moments(false)),
            Stddev | VarSamp => Columns::Moments(moments(true), moments(true)),
            Min | Max => Columns::Extreme(ColumnVector::empty(arg), Vec::new()),
        };
        Accumulator { func, columns }
    }

    /// Bytes a group's state takes (its partial's included).
    pub fn group_bytes(&self) -> u64 {
        match &self.columns {
            Columns::Count(_) => 8,
            Columns::IntSum(..) => 16,
            Columns::Moments(total, _) => 32 + 16 * total.squares as u64,
            Columns::Extreme(ColumnVector::Varchar { .. }, _) => 25,
            Columns::Extreme(..) => 9,
        }
    }

    fn resize(&mut self, len: usize) {
        match &mut self.columns {
            Columns::Count(n) => n.resize(len, 0),
            Columns::IntSum(sum, n) => {
                sum.resize(len, 0);
                n.resize(len, 0);
            }
            Columns::Moments(total, partial) => {
                total.resize(len);
                partial.resize(len);
            }
            Columns::Extreme(best, set) => {
                set.resize(len, false);
                match best {
                    ColumnVector::Int64 { data, .. } => data.resize(len, 0),
                    ColumnVector::Float64 { data, .. } => data.resize(len, 0.0),
                    ColumnVector::Bool { data, .. } => data.resize(len, false),
                    ColumnVector::Varchar { data, .. } => data.resize(len, String::new()),
                }
            }
        }
    }

    /// Fold one chunk of `rows` rows, row `i` of `arg` (`None` for
    /// COUNT(*)) into group `ids[i]` (group 0 without `ids`) of `groups`,
    /// as `update` of its value would. A MIN's or MAX's fold with `at` is
    /// a groupjoin's second pass, once every group's best is folded: it
    /// changes nothing, and `at` gets the rows at their group's best.
    pub fn fold(
        &mut self,
        arg: Option<&ColumnVector>,
        rows: usize,
        ids: Option<&[u32]>,
        groups: usize,
        at: Option<&mut Vec<usize>>,
    ) -> Result<()> {
        self.resize(groups);
        // The groups a float sum's partials are flushed for: the rows'
        // groups, or every group where there are fewer groups than rows.
        match ids {
            Some(ids) if ids.len() < groups => {
                let touched = ids.iter().map(|&g| g as usize);
                self.fold_by(arg, rows, (|i| ids[i] as usize, at), touched)
            }
            Some(ids) => self.fold_by(arg, rows, (|i| ids[i] as usize, at), 0..groups),
            None => self.fold_by(arg, rows, (|_| 0, at), 0..groups),
        }
    }

    /// [`Accumulator::fold`] with row `i`'s group at `id(i)`, every group
    /// the chunk touches in `touched`.
    fn fold_by(
        &mut self,
        arg: Option<&ColumnVector>,
        rows: usize,
        (id, at): (impl Fn(usize) -> usize, Option<&mut Vec<usize>>),
        touched: impl Iterator<Item = usize>,
    ) -> Result<()> {
        use ColumnVector::*;
        let func = self.func;
        let side = extreme_side(func == AggregateFunction::Min);
        match (&mut self.columns, arg) {
            (Columns::Count(n), None) => count(n, 0..rows, id),
            (Columns::Count(n), Some(col)) => count(n, valid_rows(col), id),
            (Columns::IntSum(sum, n), Some(col @ Int64 { data, .. })) => {
                int_sum(n, sum, col, data, id)
            }
            (Columns::Moments(total, partial), Some(col @ Int64 { data, .. })) => {
                partial.fold(col, id, |i| data[i] as f64);
                total.flush(partial, touched);
            }
            (Columns::Moments(total, partial), Some(col @ Float64 { data, .. })) => {
                partial.fold(col, id, |i| data[i]);
                total.flush(partial, touched);
            }
            (Columns::Extreme(Int64 { data: best, .. }, set), Some(col @ Int64 { data, .. })) => {
                extreme((best, set), (col, data), (id, at), |x, b| x.cmp(b) == side)
            }
            (Columns::Extreme(Float64 { data: b, .. }, set), Some(col @ Float64 { data, .. })) => {
                extreme((b, set), (col, data), (id, at), |x, b| {
                    sort_cmp_f64(*x, *b) == side
                })
            }
            (Columns::Extreme(Bool { data: best, .. }, set), Some(col @ Bool { data, .. })) => {
                extreme((best, set), (col, data), (id, at), |x, b| x.cmp(b) == side)
            }
            (Columns::Extreme(Varchar { data: b, .. }, set), Some(col @ Varchar { data, .. })) => {
                extreme((b, set), (col, data), (id, at), |x, b| x.cmp(b) == side)
            }
            (_, None) => {
                return Err(HyError::Internal(format!(
                    "{}() needs an argument",
                    func.name()
                )))
            }
            // No typed loop takes it: the error `update` gives its first
            // non-NULL value (a SUM over VARCHAR); all NULL, it folds nothing.
            (_, Some(col)) => {
                if let Some(i) = (0..col.len()).find(|&i| col.is_valid(i)) {
                    func.init().update(&col.value(i))?;
                    let t = col.data_type();
                    return Err(HyError::Internal(format!(
                        "no {}() state over {t}",
                        func.name()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The result column: row `j` is group `order[j]`'s result (groups no
    /// chunk reached are empty), typed as the function makes it of its
    /// argument — the caller casts where the bound type differs.
    pub fn finish(mut self, order: &[usize]) -> ColumnVector {
        use AggregateFunction::*;
        self.resize(order.iter().max().map_or(0, |&g| g + 1));
        let func = self.func;
        match self.columns {
            Columns::Count(n) => output(order, |g| Some(n[g]), ColumnVector::from_i64),
            Columns::IntSum(sum, n) => output(
                order,
                |g| (n[g] > 0).then_some(sum[g]),
                ColumnVector::from_i64,
            ),
            Columns::Moments(m, _) => {
                let result = |g: usize| match func {
                    Avg => mean(m.sum[g], m.n[g]),
                    Stddev | VarSamp => spread(m.n[g], m.sum[g], m.sum_sq[g], func == Stddev),
                    _ => (m.n[g] > 0).then_some(m.sum[g]),
                };
                output(order, result, ColumnVector::from_f64)
            }
            Columns::Extreme(best, set) => {
                let valid: Bitmap = order.iter().map(|&g| set[g]).collect();
                best.take(order)
                    .with_validity((!valid.all_set()).then_some(valid))
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
    /// DOUBLEs come first from values whose sums round, so a float fold's
    /// order shows in its bits; `finite` keeps to those and ±0.0.
    fn edge_column(rng: &mut StdRng, t: DataType, len: usize, finite: bool) -> CV {
        let ints = [i64::MIN, i64::MAX, 0, -1, 1, 7, i64::MAX - 3];
        let floats = [
            0.1,
            1.0 / 3.0,
            1e16,
            -1e16,
            -0.0,
            0.0,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            1e300,
            0.25,
        ];
        let floats = if finite { &floats[..6] } else { &floats[..] };
        let strs = ["", "a", "a\0", "b", "ab"];
        let mut col = CV::empty(t);
        for _ in 0..len {
            let i = rng.gen_range(0..12usize);
            let v = match t {
                _ if i == 0 => Value::Null,
                DataType::Null => Value::Null,
                DataType::Int64 => Value::Int(ints[i % ints.len()]),
                DataType::Float64 => Value::Float(floats[i % floats.len()]),
                DataType::Bool => Value::Bool(i % 2 == 0),
                _ => Value::Str(strs[i % strs.len()].into()),
            };
            col.push_value(&v).unwrap();
        }
        col
    }

    /// A column's cells as text: its validity, then every data slot
    /// (NULL rows' too), floats by bits.
    fn cells(col: &CV) -> (Option<Bitmap>, Vec<String>) {
        let slots: Vec<String> = match col {
            CV::Float64 { data, .. } => {
                data.iter().map(|x| format!("{:#x}", x.to_bits())).collect()
            }
            CV::Int64 { data, .. } => data.iter().map(i64::to_string).collect(),
            CV::Bool { data, .. } => data.iter().map(bool::to_string).collect(),
            CV::Varchar { data, .. } => data.clone(),
        };
        (col.validity().cloned(), slots)
    }

    const FUNCS: [AggregateFunction; 8] = [
        AggregateFunction::CountStar,
        AggregateFunction::Count,
        AggregateFunction::Sum,
        AggregateFunction::Avg,
        AggregateFunction::Min,
        AggregateFunction::Max,
        AggregateFunction::Stddev,
        AggregateFunction::VarSamp,
    ];

    /// An accumulator's fold over chunks, merge and output are the
    /// definition's — `update` per row into a fresh state per group and
    /// chunk, `merge` into the totals in chunk order, `finalize` pushed
    /// into a column — for every aggregate over every argument type,
    /// over random chunkings, keyed and global, floats by bits (or it
    /// fails where `update` does).
    #[test]
    fn the_accumulators_are_update_merge_finalize() {
        let mut rng = StdRng::seed_from_u64(26);
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Bool,
            DataType::Varchar,
            DataType::Null,
        ];
        for case in 0..500 {
            let (f, t) = (FUNCS[case % 8], types[case / 8 % 5]);
            // Every tenth column is longer than a key block (1,024 rows).
            let len = rng.gen_range(0..40usize) + if case % 10 == 9 { 1100 } else { 0 };
            let col = edge_column(&mut rng, t, len, case % 3 == 0);
            let labels: Vec<usize> = (0..len).map(|_| rng.gen_range(0..4usize)).collect();
            let mut cuts = vec![0, len];
            cuts.extend((0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..=len)));
            cuts.sort_unstable();
            for grouped in [false, true] {
                let case = format!("case {case} grouped {grouped}: {} over {col:?}", f.name());
                let arg = (f != AggregateFunction::CountStar).then_some(&col);
                // Group ids are dense, in first-appearance order.
                let (mut id_of, mut groups) = ([u32::MAX; 4], 0);
                let (mut totals, mut acc) = (Vec::new(), Accumulator::new(f, t));
                let mut folded = Ok(());
                let mut want = Ok(());
                for w in cuts.windows(2) {
                    let rows = w[0]..w[1];
                    let mut ids = Vec::new();
                    for i in rows.clone().filter(|_| grouped) {
                        if id_of[labels[i]] == u32::MAX {
                            id_of[labels[i]] = groups as u32;
                            groups += 1;
                        }
                        ids.push(id_of[labels[i]]);
                    }
                    // Without keys, even an empty chunk makes the group.
                    if !grouped {
                        groups = 1;
                    }
                    let piece = col.slice(rows.start, rows.len());
                    let (piece_arg, ids_arg) = (arg.map(|_| &piece), grouped.then_some(&ids[..]));
                    folded =
                        folded.and_then(|_| acc.fold(piece_arg, rows.len(), ids_arg, groups, None));
                    let mut partial = vec![f.init(); groups];
                    for (k, i) in rows.enumerate() {
                        let state = &mut partial[if grouped { ids[k] as usize } else { 0 }];
                        match arg {
                            Some(col) => want = want.and_then(|_| state.update(&col.value(i))),
                            None => state.update_count_star(1),
                        }
                    }
                    totals.resize(groups, f.init());
                    for (total, part) in totals.iter_mut().zip(&partial) {
                        total.merge(part).unwrap();
                    }
                }
                assert_eq!(folded.is_ok(), want.is_ok(), "{case}: {folded:?} {want:?}");
                if want.is_err() {
                    continue;
                }
                let order: Vec<usize> = (0..groups).rev().collect();
                let got = acc.finish(&order);
                let mut expect = CV::empty(got.data_type());
                for &g in &order {
                    expect.push_value(&totals[g].finalize()).unwrap();
                }
                assert_eq!(cells(&got), cells(&expect), "{case}");
            }
        }
    }

    /// A global aggregate over no input is one row of empty states.
    #[test]
    fn an_accumulator_no_chunk_reached_is_empty() {
        for f in FUNCS {
            let got = Accumulator::new(f, DataType::Float64).finish(&[0]);
            let want = f.init().finalize();
            assert_eq!(got.value(0), want, "{}", f.name());
            assert_eq!(got.len(), 1);
        }
        let count = Accumulator::new(AggregateFunction::CountStar, DataType::Null);
        assert_eq!(count.finish(&[0]).value(0), Value::Int(0));
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
