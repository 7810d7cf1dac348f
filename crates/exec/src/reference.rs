#![cfg(test)]
//! The keyed operators as they were before typed keys — `HashableRow`
//! keys in `std` hash maps, every aggregate folded one `Value` at a time
//! through `AggregateState::update`, grouped or not — kept as the oracle
//! of the differential tests below. Two things differ from
//! the code this replaced, both bugs the replacement fixed: NaN keys
//! equal each other when grouping, and a join never matches a NaN key.
//! Nothing outside `#[cfg(test)]` may use this module.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use hylite_common::governor::Governor;
use hylite_common::{Chunk, ColumnVector, DataType, Result, Value};
use hylite_expr::{AggregateFunction, AggregateState, BinaryOp, ScalarExpr};
use hylite_planner::logical::AggExpr;
use hylite_planner::JoinKind;

use crate::aggregate;
use crate::join::{combine, extract_equi_keys, null_chunk, JoinBuild};
use crate::keys::KeyLayout;

/// A row of values as a hash-table key. NULLs equal each other, `-0.0`
/// equals `0.0`, NaN equals NaN.
#[derive(Debug, Clone)]
struct HashableRow(Vec<Value>);

impl PartialEq for HashableRow {
    fn eq(&self, other: &HashableRow) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|pair| match pair {
                (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
                (a, b) => a == b,
            })
    }
}

impl Eq for HashableRow {}

impl Hash for HashableRow {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Null => 0u8.hash(state),
                Value::Int(x) => {
                    1u8.hash(state);
                    x.hash(state);
                }
                Value::Float(x) => {
                    2u8.hash(state);
                    let x = if *x == 0.0 { 0.0 } else { *x };
                    let x = if x.is_nan() { f64::NAN } else { x };
                    x.to_bits().hash(state);
                }
                Value::Bool(x) => {
                    3u8.hash(state);
                    x.hash(state);
                }
                Value::Str(x) => {
                    4u8.hash(state);
                    x.hash(state);
                }
            }
        }
    }
}

fn key_columns(exprs: &[ScalarExpr], chunk: &Chunk) -> Result<Vec<ColumnVector>> {
    exprs.iter().map(|e| e.eval(chunk)).collect()
}

fn key_at(cols: &[ColumnVector], i: usize) -> HashableRow {
    HashableRow(cols.iter().map(|c| c.value(i)).collect())
}

type GroupTable = HashMap<HashableRow, Vec<AggregateState>>;

/// Grouped aggregation: a table per chunk, merged in chunk order, groups
/// in first-seen order, each key as its first row had it.
fn aggregate(
    chunks: &[Chunk],
    group_exprs: &[ScalarExpr],
    aggregates: &[AggExpr],
    output_types: &[DataType],
) -> Result<Vec<Chunk>> {
    let init = || aggregates.iter().map(|a| a.func.init()).collect::<Vec<_>>();
    let mut merged = GroupTable::new();
    let mut first = Vec::new();
    for chunk in chunks {
        let mut table = GroupTable::new();
        let key_cols = key_columns(group_exprs, chunk)?;
        let arg_cols: Vec<Option<ColumnVector>> = aggregates
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval(chunk)).transpose())
            .collect::<Result<_>>()?;
        for i in 0..chunk.len() {
            let key = key_at(&key_cols, i);
            if !merged.contains_key(&key) && !table.contains_key(&key) {
                first.push(key.clone());
            }
            let states = table.entry(key).or_insert_with(init);
            for (state, arg) in states.iter_mut().zip(&arg_cols) {
                match arg {
                    Some(col) => state.update(&col.value(i))?,
                    None => state.update_count_star(1),
                }
            }
        }
        for (key, states) in table {
            match merged.get_mut(&key) {
                Some(existing) => {
                    for (a, b) in existing.iter_mut().zip(&states) {
                        a.merge(b)?;
                    }
                }
                None => {
                    merged.insert(key, states);
                }
            }
        }
    }
    if merged.is_empty() && group_exprs.is_empty() {
        merged.insert(HashableRow(vec![]), init());
        first.push(HashableRow(vec![]));
    }
    let mut cols: Vec<ColumnVector> = output_types
        .iter()
        .map(|&t| ColumnVector::empty(t))
        .collect();
    for key in first {
        let states = &merged[&key];
        for (c, v) in key.0.iter().enumerate() {
            cols[c].push_value(v)?;
        }
        for (a, state) in states.iter().enumerate() {
            let v = state.finalize();
            let target = output_types[group_exprs.len() + a];
            let v = if v.is_null() { v } else { v.cast_to(target)? };
            cols[group_exprs.len() + a].push_value(&v)?;
        }
    }
    Ok(vec![Chunk::new(cols)])
}

/// DISTINCT: the first occurrence of every row.
fn distinct(chunks: &[Chunk], types: &[DataType]) -> Result<Vec<Chunk>> {
    let mut seen = HashSet::new();
    let mut cols: Vec<ColumnVector> = types.iter().map(|&t| ColumnVector::empty(t)).collect();
    for chunk in chunks {
        for i in 0..chunk.len() {
            let row = HashableRow(chunk.row(i).into_values());
            if seen.insert(row.clone()) {
                for (c, v) in row.0.iter().enumerate() {
                    cols[c].push_value(v)?;
                }
            }
        }
    }
    Ok(vec![Chunk::new(cols)])
}

/// Hash join with a `Vec` of right rows per key.
fn join(
    left: &[Chunk],
    right: &[Chunk],
    kind: JoinKind,
    condition: &ScalarExpr,
    left_width: usize,
    right_types: &[DataType],
) -> Result<Vec<Chunk>> {
    let right_all = Chunk::concat(right_types, right)?;
    let (keys, residual) = extract_equi_keys(condition, left_width);
    let (left_keys, right_keys): (Vec<ScalarExpr>, Vec<ScalarExpr>) = keys.into_iter().unzip();
    let joins = |cols: &[ColumnVector], i: usize| {
        cols.iter().all(|c| {
            !matches!(c.value(i), Value::Null)
                && !matches!(c.value(i), Value::Float(x) if x.is_nan())
        })
    };
    let mut table: HashMap<HashableRow, Vec<usize>> = HashMap::new();
    let key_cols = key_columns(&right_keys, &right_all)?;
    for i in (0..right_all.len()).filter(|&i| joins(&key_cols, i)) {
        table.entry(key_at(&key_cols, i)).or_default().push(i);
    }
    let mut out = Vec::new();
    for chunk in left {
        let n = chunk.len();
        let key_cols = key_columns(&left_keys, chunk)?;
        let (mut l_idx, mut r_idx) = (Vec::new(), Vec::new());
        for i in (0..n).filter(|&i| joins(&key_cols, i)) {
            for &m in table.get(&key_at(&key_cols, i)).into_iter().flatten() {
                l_idx.push(i);
                r_idx.push(m);
            }
        }
        let mut combined = combine(chunk, &l_idx, &right_all, &r_idx);
        let mut matched_left = vec![false; n];
        if let Some(pred) = &residual {
            let sel = pred.eval(&combined)?.to_selection()?;
            for i in sel.iter_ones() {
                matched_left[l_idx[i]] = true;
            }
            combined = combined.filter(&sel);
        } else {
            for &i in &l_idx {
                matched_left[i] = true;
            }
        }
        let mut parts = vec![combined];
        let unmatched: Vec<usize> = (0..n).filter(|&i| !matched_left[i]).collect();
        if kind == JoinKind::Left && !unmatched.is_empty() {
            let mut cols = chunk.take(&unmatched).columns().to_vec();
            cols.extend(
                null_chunk(right_types, unmatched.len())
                    .columns()
                    .iter()
                    .cloned(),
            );
            parts.push(Chunk::from_arc_columns(cols));
        }
        out.extend(parts.into_iter().filter(|c| !c.is_empty()));
    }
    Ok(out)
}

// ---- the generator ---------------------------------------------------------

/// xorshift64*: the tests' only source of randomness, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())].clone()
    }
}

const TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Varchar,
];

/// A value of type `t` out of a pool of `domain` values with the edge
/// cases first; `None` is NULL.
fn value(rng: &mut Rng, t: DataType, domain: usize) -> Value {
    let i = rng.below(domain + 1);
    if i == domain {
        return Value::Null;
    }
    match t {
        DataType::Int64 => Value::Int(match i {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => 0,
            3 => -1,
            i => i as i64 * 7 - 40,
        }),
        DataType::Float64 => Value::Float(match i {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => -1.5,
            i => i as f64 * 0.25,
        }),
        DataType::Bool => Value::Bool(i.is_multiple_of(2)),
        _ => Value::Str(match i {
            0 => String::new(),
            1 => "a".into(),
            2 => "a\0".into(),
            3 => "ab".into(),
            i => format!("a rather longer string number {i}"),
        }),
    }
}

/// DOUBLEs whose sums round, so a float fold's order shows in its bits.
const ROUNDING: [f64; 5] = [0.1, 1.0 / 3.0, 1e16, -1e16, 2.5];

/// `rows` rows of the given column types cut into chunks of random
/// sizes out of `lens`, some of them empty. Column `distinct_col`, if
/// any, counts up from `i64::MIN / 2` instead (all-distinct keys); column
/// `rounding_col`, if any, draws from [`ROUNDING`] and NULL.
fn relation(
    rng: &mut Rng,
    types: &[DataType],
    (rows, domain, lens): (usize, usize, [usize; 5]),
    distinct_col: Option<usize>,
    rounding_col: Option<usize>,
) -> Vec<Chunk> {
    let mut chunks = Vec::new();
    let mut made = 0;
    while made < rows || chunks.is_empty() {
        let len = lens.map(|n: usize| n.min(rows - made))[rng.below(5)];
        let rows_of_chunk: Vec<Vec<Value>> = (made..made + len)
            .map(|r| {
                let cell = |(c, &t): (usize, &DataType)| match (distinct_col, rounding_col) {
                    (Some(d), _) if d == c => Value::Int(i64::MIN / 2 + r as i64),
                    (_, Some(f)) if f == c => match rng.below(ROUNDING.len() + 1) {
                        i if i == ROUNDING.len() => Value::Null,
                        i => Value::Float(ROUNDING[i]),
                    },
                    _ => value(rng, t, domain),
                };
                types.iter().enumerate().map(cell).collect()
            })
            .collect();
        chunks.push(Chunk::from_rows(types, &rows_of_chunk).unwrap());
        made += len;
        if rows == 0 && chunks.len() == 2 {
            break;
        }
    }
    chunks
}

/// Cell-by-cell equality of two chunk lists, chunk boundaries and row
/// order included, floats by bits.
fn assert_same(case: &str, got: &[Chunk], want: &[Chunk]) {
    let shape = |chunks: &[Chunk]| chunks.iter().map(Chunk::len).collect::<Vec<_>>();
    assert_eq!(shape(got), shape(want), "{case}: chunk sizes");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.num_columns(), w.num_columns(), "{case}: chunk {k} width");
        for c in 0..g.num_columns() {
            assert_eq!(
                g.column(c).data_type(),
                w.column(c).data_type(),
                "{case}: column {c}"
            );
            for i in 0..g.len() {
                let same = match (g.column(c).value(i), w.column(c).value(i)) {
                    (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == b,
                };
                assert!(
                    same,
                    "{case}: chunk {k} row {i} column {c}: {:?} against the reference's {:?}",
                    g.column(c).value(i),
                    w.column(c).value(i)
                );
            }
        }
    }
}

/// The shapes every operator is run on: (rows, value domain, all-distinct).
const SHAPES: [(usize, usize, bool); 6] = [
    (0, 4, false),
    (1, 4, false),
    (40, 2, false),
    (300, 6, false),
    (300, 40, false),
    (200, 6, true),
];

/// The chunk lengths a shape's rows are cut into.
const LENS: [usize; 5] = [0, 1, 3, 17, 64];

/// The aggregate's extra shape: chunks longer than a key block (1,024
/// rows), several of them hitting the same few groups.
const LONG: (usize, usize, [usize; 5]) = (2600, 6, [1030, 1500, 17, 0, 64]);

fn key_types(rng: &mut Rng) -> Vec<DataType> {
    (0..1 + rng.below(4)).map(|_| rng.pick(&TYPES)).collect()
}

type MakeLayout = fn(&[DataType]) -> KeyLayout;
const LAYOUTS: [(&str, MakeLayout); 2] = [("chosen", KeyLayout::new), ("bytes", KeyLayout::bytes)];

#[test]
fn aggregate_agrees_with_the_reference() {
    use AggregateFunction::*;
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let keys = key_types(&mut rng);
        let k = keys.len();
        // After the keys: a BIGINT, a DOUBLE, a VARCHAR and a BOOLEAN
        // argument, and a DOUBLE whose sums round.
        let mut types = keys.clone();
        types.extend(TYPES);
        types.push(DataType::Float64);
        let col = |c: usize| ScalarExpr::column(c, types[c]);
        let mut aggregates = vec![AggExpr {
            func: CountStar,
            arg: None,
            name: "count(*)".into(),
        }];
        for func in [Count, Sum, Avg, Min, Max, Stddev, VarSamp] {
            let args = if matches!(func, Count | Min | Max) {
                4
            } else {
                2
            };
            for arg in (k..k + args).chain([k + 4]) {
                aggregates.push(AggExpr {
                    func,
                    arg: Some(col(arg)),
                    name: format!("{}(#{arg})", func.name()),
                });
            }
        }
        let group_exprs: Vec<ScalarExpr> = (0..k).map(col).collect();
        let mut output_types = keys.clone();
        for a in &aggregates {
            let arg = a.arg.as_ref().map_or(DataType::Null, ScalarExpr::data_type);
            output_types.push(a.func.result_type(arg).unwrap());
        }
        let shapes = SHAPES.map(|(rows, domain, all_distinct)| (rows, domain, LENS, all_distinct));
        let long = (seed % 4 == 0).then_some((LONG.0, LONG.1, LONG.2, false));
        for (rows, domain, lens, all_distinct) in shapes.into_iter().chain(long) {
            let distinct_col = (all_distinct && keys[0] == DataType::Int64).then_some(0);
            let shape = (rows, domain, lens);
            let chunks = relation(&mut rng, &types, shape, distinct_col, Some(k + 4));
            // Grouped, and the same input as one global aggregate.
            for (group_exprs, output_types) in [
                (&group_exprs[..], &output_types[..]),
                (&[][..], &output_types[k..]),
            ] {
                let want = aggregate(&chunks, group_exprs, &aggregates, output_types).unwrap();
                for (name, layout) in LAYOUTS {
                    let key_types = &keys[..group_exprs.len()];
                    let (got, index) = aggregate::aggregate(
                        layout,
                        &chunks,
                        1,
                        group_exprs,
                        &aggregates,
                        None,
                        output_types,
                        &Governor::unlimited(),
                    )
                    .unwrap();
                    let case = format!(
                        "seed {seed} keys {key_types:?} rows {rows} domain {domain} layout {name}"
                    );
                    assert_same(&case, &got, &want);
                    assert_eq!(index.len(), want[0].len(), "{case}: group count");
                }
            }
        }
    }
}

#[test]
fn distinct_agrees_with_the_reference() {
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let types = key_types(&mut rng);
        for (rows, domain, all_distinct) in SHAPES {
            let distinct_col = (all_distinct && types[0] == DataType::Int64).then_some(0);
            let chunks = relation(&mut rng, &types, (rows, domain, LENS), distinct_col, None);
            let want = distinct(&chunks, &types).unwrap();
            for (name, layout) in LAYOUTS {
                let (got, _) =
                    aggregate::distinct(layout, &chunks, &types, &Governor::unlimited()).unwrap();
                let case = format!("seed {seed} types {types:?} rows {rows} layout {name}");
                assert_same(&case, &got, &want);
            }
        }
    }
}

#[test]
fn join_agrees_with_the_reference() {
    for seed in 1..=40u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let keys = key_types(&mut rng);
        let k = keys.len();
        // Both sides: the key columns, then a BIGINT payload.
        let mut types = keys.clone();
        types.push(DataType::Int64);
        let width = types.len();
        let equi = (0..k)
            .map(|c| {
                let (l, r) = (
                    ScalarExpr::column(c, keys[c]),
                    ScalarExpr::column(width + c, keys[c]),
                );
                // Either orientation is an equi key.
                let (l, r) = if c % 2 == 0 { (l, r) } else { (r, l) };
                ScalarExpr::binary(BinaryOp::Eq, l, r).unwrap()
            })
            .reduce(|a, b| ScalarExpr::binary(BinaryOp::And, a, b).unwrap())
            .unwrap();
        let payload_differs = ScalarExpr::binary(
            BinaryOp::Lt,
            ScalarExpr::column(k, DataType::Int64),
            ScalarExpr::column(width + k, DataType::Int64),
        )
        .unwrap();
        let with_residual =
            ScalarExpr::binary(BinaryOp::And, equi.clone(), payload_differs).unwrap();
        for (rows, domain, all_distinct) in SHAPES {
            let distinct_col = (all_distinct && keys[0] == DataType::Int64).then_some(0);
            let left = relation(&mut rng, &types, (rows, domain, LENS), distinct_col, None);
            let right = relation(
                &mut rng,
                &types,
                (rows.min(60), domain, LENS),
                distinct_col,
                None,
            );
            for condition in [&equi, &with_residual] {
                for kind in [JoinKind::Inner, JoinKind::Left] {
                    let want = join(&left, &right, kind, condition, width, &types).unwrap();
                    for (name, layout) in LAYOUTS {
                        let build =
                            JoinBuild::new(layout, &right, Some(condition), width, &types).unwrap();
                        let got = build.probe(&left, kind).unwrap();
                        let case = format!(
                            "seed {seed} keys {keys:?} rows {rows} {kind:?} residual {} layout {name}",
                            std::ptr::eq(condition, &with_residual)
                        );
                        assert_same(&case, &got, &want);
                    }
                }
            }
        }
    }
}
