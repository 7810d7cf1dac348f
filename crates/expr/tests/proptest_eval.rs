//! Properties of vectorized evaluation and of the tree accessors: chunk
//! evaluation must agree with row-at-a-time evaluation, the produced column
//! must match the expression's static type, and every walk written over
//! `children()` / `children_mut()` must see the same operands.
//!
//! Expressions and chunks are generated from a seeded RNG so every run
//! replays the same cases (the offline stand-in for proptest). Between
//! them the generators build every `ScalarExpr` variant.

use hylite_common::{Chunk, ColumnVector, DataType, Value};
use hylite_expr::{BinaryOp, ScalarExpr, ScalarFunc, UnaryOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The input schema's column types.
const TYPES: [DataType; 4] = [
    DataType::Int64,
    DataType::Float64,
    DataType::Bool,
    DataType::Varchar,
];

/// Input schema [`TYPES`]: #0 BIGINT, #1 DOUBLE, #2 BOOLEAN, #3 VARCHAR
/// (with NULLs sprinkled).
fn arb_chunk(rng: &mut StdRng) -> Chunk {
    let rows = rng.gen_range(1usize..40);
    let mut columns: Vec<ColumnVector> = TYPES.iter().map(|&t| ColumnVector::empty(t)).collect();
    for _ in 0..rows {
        let cells = [
            Value::Int(rng.gen_range(-20i64..20)),
            Value::Float(rng.gen_range(-50.0f64..50.0)),
            Value::Bool(rng.gen_bool(0.5)),
            Value::Str(arb_str(rng).into()),
        ];
        for (column, cell) in columns.iter_mut().zip(cells) {
            if rng.gen_bool(0.9) {
                column.push_value(&cell).unwrap();
            } else {
                column.push_null();
            }
        }
    }
    Chunk::new(columns)
}

/// Random well-typed numeric expressions over the schema.
fn arb_numeric_expr(rng: &mut StdRng, depth: usize) -> ScalarExpr {
    if depth == 0 {
        return match rng.gen_range(0u32..9) {
            0 | 1 => ScalarExpr::column(0, DataType::Int64),
            2 | 3 => ScalarExpr::column(1, DataType::Float64),
            4 | 5 => ScalarExpr::literal(rng.gen_range(-10i64..10)),
            6 | 7 => ScalarExpr::literal(rng.gen_range(-10i64..10) as f64 / 2.0),
            _ => ScalarExpr::literal(Value::Null),
        };
    }
    match rng.gen_range(0u32..7) {
        0 => arb_numeric_expr(rng, 0),
        1 => {
            let op = [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
                BinaryOp::Pow,
            ][rng.gen_range(0usize..6)];
            ScalarExpr::binary(
                op,
                arb_numeric_expr(rng, depth - 1),
                arb_numeric_expr(rng, depth - 1),
            )
            .expect("numeric")
        }
        2 => ScalarExpr::unary(UnaryOp::Neg, arb_numeric_expr(rng, depth - 1)).expect("numeric"),
        3 => ScalarExpr::func(ScalarFunc::Abs, vec![arb_numeric_expr(rng, depth - 1)])
            .expect("numeric"),
        4 => ScalarExpr::func(
            ScalarFunc::Least,
            vec![
                arb_numeric_expr(rng, depth - 1),
                arb_numeric_expr(rng, depth - 1),
            ],
        )
        .expect("numeric"),
        // CASE with one or two branches, with and without ELSE.
        5 => {
            let branches = (0..rng.gen_range(1usize..3))
                .map(|_| {
                    let when = arb_bool_expr(rng, depth - 1);
                    [when, arb_numeric_expr(rng, depth - 1)]
                })
                .collect();
            let else_expr = rng.gen_bool(0.5).then(|| arb_numeric_expr(rng, depth - 1));
            ScalarExpr::case(branches, else_expr).expect("numeric")
        }
        _ => ScalarExpr::Cast {
            input: Box::new(arb_numeric_expr(rng, depth - 1)),
            target: DataType::Float64,
        },
    }
}

/// Random well-typed boolean expressions.
fn arb_bool_expr(rng: &mut StdRng, depth: usize) -> ScalarExpr {
    if depth == 0 {
        let op = [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ][rng.gen_range(0usize..6)];
        return match rng.gen_range(0u32..4) {
            0 => ScalarExpr::column(2, DataType::Bool),
            // Numbers of either type, a literal on either side or both.
            1 | 2 => {
                let d = rng.gen_range(0usize..3);
                ScalarExpr::binary(op, arb_numeric_expr(rng, d), arb_numeric_expr(rng, d))
                    .expect("comparison")
            }
            _ => ScalarExpr::binary(op, arb_varchar(rng), arb_varchar(rng)).expect("comparison"),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => arb_bool_expr(rng, 0),
        1 => {
            let op = if rng.gen_bool(0.5) {
                BinaryOp::And
            } else {
                BinaryOp::Or
            };
            ScalarExpr::binary(
                op,
                arb_bool_expr(rng, depth - 1),
                arb_bool_expr(rng, depth - 1),
            )
            .expect("boolean")
        }
        2 => ScalarExpr::unary(UnaryOp::Not, arb_bool_expr(rng, depth - 1)).expect("boolean"),
        3 => ScalarExpr::IsNull {
            input: Box::new(arb_bool_expr(rng, depth - 1)),
            negated: rng.gen_bool(0.5),
        },
        // IN / NOT IN over candidates of the input's type, NULL among them
        // now and then.
        4 => {
            let input = if rng.gen_bool(0.2) {
                arb_varchar(rng)
            } else {
                arb_numeric_expr(rng, depth - 1)
            };
            let input_type = input.data_type();
            let list = (0..rng.gen_range(1usize..4))
                .map(|_| match (rng.gen_range(0u32..6), input_type) {
                    (0, _) => Value::Null,
                    (1, DataType::Float64) => Value::Float(f64::NAN),
                    (_, DataType::Float64) => Value::Float(rng.gen_range(-10i64..10) as f64 / 2.0),
                    (_, DataType::Varchar) => Value::Str(arb_str(rng).into()),
                    _ => Value::Int(rng.gen_range(-10i64..10)),
                })
                .collect();
            ScalarExpr::InList {
                input: Box::new(input),
                list,
                negated: rng.gen_bool(0.5),
            }
        }
        _ => ScalarExpr::Like {
            input: Box::new(ScalarExpr::column(3, DataType::Varchar)),
            pattern: ["a%", "%b", "_a%", "%", "abc"][rng.gen_range(0usize..5)].into(),
            negated: rng.gen_bool(0.5),
        },
    }
}

const STRINGS: [&str; 5] = ["ab", "abc", "b", "cab", ""];

fn arb_str(rng: &mut StdRng) -> &'static str {
    STRINGS[rng.gen_range(0usize..STRINGS.len())]
}

/// A VARCHAR operand: the column, a string literal or a NULL literal.
fn arb_varchar(rng: &mut StdRng) -> ScalarExpr {
    match rng.gen_range(0u32..5) {
        0 | 1 => ScalarExpr::column(3, DataType::Varchar),
        2 | 3 => ScalarExpr::literal(arb_str(rng)),
        _ => ScalarExpr::literal(Value::Null),
    }
}

/// Numeric and boolean expressions, alternately.
fn arb_expr(rng: &mut StdRng) -> ScalarExpr {
    let depth = rng.gen_range(0usize..=3);
    if rng.gen_bool(0.5) {
        arb_numeric_expr(rng, depth)
    } else {
        arb_bool_expr(rng, depth)
    }
}

fn check_chunk_vs_rows(e: &ScalarExpr, chunk: &Chunk) {
    let vectorized = e.eval(chunk);
    match vectorized {
        Ok(col) => {
            assert_eq!(col.len(), chunk.len());
            if !col.is_empty() && e.data_type() != DataType::Null {
                assert_eq!(col.data_type(), e.data_type(), "static type honored");
            }
            for i in 0..chunk.len() {
                let row_result = e
                    .eval_row(&chunk.row(i))
                    .expect("row eval agrees on success");
                let cell = col.value(i);
                // NaN-safe comparison.
                let equal = match (&cell, &row_result) {
                    (Value::Float(a), Value::Float(b)) => (a.is_nan() && b.is_nan()) || a == b,
                    (a, b) => a == b,
                };
                assert!(equal, "row {i}: chunk={cell} row={row_result} expr={e}");
            }
        }
        Err(_) => {
            // A vectorized error must be reproducible by at least one row.
            let any_row_errs = (0..chunk.len()).any(|i| e.eval_row(&chunk.row(i)).is_err());
            assert!(any_row_errs, "vectorized error with no failing row: {e}");
        }
    }
}

#[test]
fn numeric_chunk_eval_matches_row_eval() {
    let mut rng = StdRng::seed_from_u64(0x0E_4A_11);
    for _ in 0..96 {
        let depth = rng.gen_range(0usize..=3);
        let e = arb_numeric_expr(&mut rng, depth);
        let chunk = arb_chunk(&mut rng);
        check_chunk_vs_rows(&e, &chunk);
    }
}

#[test]
fn boolean_chunk_eval_matches_row_eval() {
    let mut rng = StdRng::seed_from_u64(0xB0_01);
    for _ in 0..96 {
        let depth = rng.gen_range(0usize..=3);
        let e = arb_bool_expr(&mut rng, depth);
        let chunk = arb_chunk(&mut rng);
        check_chunk_vs_rows(&e, &chunk);
    }
}

#[test]
fn filter_selection_subset() {
    let mut rng = StdRng::seed_from_u64(0xF1_17E5);
    for _ in 0..96 {
        let depth = rng.gen_range(0usize..=3);
        let e = arb_bool_expr(&mut rng, depth);
        let chunk = arb_chunk(&mut rng);
        if let Ok(col) = e.eval(&chunk) {
            let sel = col.to_selection().unwrap();
            assert_eq!(sel.len(), chunk.len());
            // Selected rows are exactly those evaluating to TRUE.
            for i in 0..chunk.len() {
                let expect = matches!(col.value(i), Value::Bool(true));
                assert_eq!(sel.get(i), expect);
            }
        }
    }
}

fn for_each_node(e: &ScalarExpr, visit: &mut dyn FnMut(&ScalarExpr)) {
    visit(e);
    for child in e.children() {
        for_each_node(child, visit);
    }
}

#[test]
fn shared_and_mutable_children_agree_on_every_node() {
    let mut rng = StdRng::seed_from_u64(0x0C_41_1D);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..200 {
        for_each_node(&arb_expr(&mut rng), &mut |node| {
            let debug = format!("{node:?}");
            let kind = debug.split([' ', '(']).next().unwrap_or_default();
            kinds.insert(kind.to_owned());
            let children: Vec<ScalarExpr> = node.children().cloned().collect();
            let mut copy = node.clone();
            let children_mut: Vec<ScalarExpr> = copy.children_mut().map(|c| c.clone()).collect();
            // By their Debug text: an IN list may hold a NaN.
            assert_eq!(
                format!("{children:?}"),
                format!("{children_mut:?}"),
                "{node}"
            );
            // A write through the mutable accessor reads back at its place.
            let marker = ScalarExpr::literal("marker");
            for i in 0..children.len() {
                let mut marked = node.clone();
                *marked.children_mut().nth(i).unwrap() = marker.clone();
                assert_eq!(marked.children().nth(i), Some(&marker), "{node}");
                assert_eq!(marked.children().count(), children.len(), "{node}");
            }
        });
    }
    let every_variant = [
        "Binary", "Case", "Cast", "Column", "Func", "InList", "IsNull", "Like", "Literal", "Unary",
    ];
    assert!(
        kinds.iter().map(String::as_str).eq(every_variant),
        "{kinds:?}"
    );
}

#[test]
fn column_walks_are_identities_and_agree() {
    let mut rng = StdRng::seed_from_u64(0x01_DE_47);
    for _ in 0..200 {
        let e = arb_expr(&mut rng);
        let mut remapped = e.clone();
        remapped.remap_columns(&[0, 1, 2, 3]);
        // By their Debug text: an IN list may hold a NaN.
        let text = format!("{e:?}");
        assert_eq!(format!("{remapped:?}"), text);
        let mut substituted = e.clone();
        substituted.replace_columns(&|i| Some(ScalarExpr::column(i, TYPES[i])));
        assert_eq!(format!("{substituted:?}"), text);
        let mut columns = Vec::new();
        e.referenced_columns(&mut columns);
        assert_eq!(e.is_constant(), columns.is_empty(), "{e}");
        // A literal that sits only in an IN list is found all the same.
        let only_listed = |v: &Value| *v == Value::Int(4242);
        assert!(!e.any_literal(&only_listed), "{e}");
        let listed = ScalarExpr::InList {
            input: Box::new(e),
            list: vec![Value::Null, Value::Int(4242)],
            negated: rng.gen_bool(0.5),
        };
        assert!(listed.any_literal(&only_listed), "{listed}");
    }
}

/// `e` with every literal replaced by a column of the chunk holding that
/// value in every row (appended after the chunk's own columns), and that
/// chunk. A literal `2` as the exponent of `^` / `pow` stays: `x ^ 2` is a
/// multiply, `x ^ y` a `powf`, and the two may differ in the last bit.
fn literal_twin(e: &ScalarExpr, chunk: &Chunk) -> (ScalarExpr, Chunk) {
    fn is_two(e: &ScalarExpr) -> bool {
        matches!(e, ScalarExpr::Literal(Value::Int(2)))
            || matches!(e, ScalarExpr::Literal(Value::Float(x)) if *x == 2.0)
    }
    fn walk(e: &mut ScalarExpr, first: usize, values: &mut Vec<Value>) {
        if let ScalarExpr::Literal(v) = e {
            let data_type = v.data_type();
            values.push(std::mem::replace(v, Value::Null));
            *e = ScalarExpr::column(first + values.len() - 1, data_type);
            return;
        }
        let squares = match e {
            ScalarExpr::Binary {
                op: BinaryOp::Pow,
                right,
                ..
            } => is_two(right),
            ScalarExpr::Func {
                func: ScalarFunc::Pow,
                args,
                ..
            } => is_two(&args[1]),
            _ => false,
        };
        let operands = e.children_mut().count();
        for child in e
            .children_mut()
            .take(if squares { operands - 1 } else { operands })
        {
            walk(child, first, values);
        }
    }
    let mut twin = e.clone();
    let mut values = Vec::new();
    walk(&mut twin, chunk.num_columns(), &mut values);
    let mut columns: Vec<ColumnVector> = chunk.columns().iter().map(|c| (**c).clone()).collect();
    for v in values {
        let cells = vec![v.clone(); chunk.len()];
        columns.push(ColumnVector::from_values(v.data_type(), &cells).unwrap());
    }
    (twin, Chunk::new(columns))
}

/// Same cells (floats by bits) and the same column type, or the same error.
fn assert_same_outcome(
    e: &ScalarExpr,
    got: hylite_common::Result<ColumnVector>,
    want: hylite_common::Result<ColumnVector>,
) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.len(), want.len(), "{e}");
            assert_eq!(got.data_type(), want.data_type(), "{e}");
            for i in 0..got.len() {
                let same = match (got.value(i), want.value(i)) {
                    (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == b,
                };
                assert!(
                    same,
                    "row {i}: {} vs {} in {e}",
                    got.value(i),
                    want.value(i)
                );
            }
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{e}"),
        (got, want) => panic!("{e}: {got:?} vs its twin's {want:?}"),
    }
}

#[test]
fn literals_evaluate_like_columns_holding_them() {
    let mut rng = StdRng::seed_from_u64(0x7_1175);
    let mut literals = 0;
    for _ in 0..600 {
        let e = arb_expr(&mut rng);
        let chunk = arb_chunk(&mut rng);
        let (twin, twin_chunk) = literal_twin(&e, &chunk);
        literals += twin_chunk.num_columns() - chunk.num_columns();
        assert_same_outcome(&e, e.eval(&chunk), twin.eval(&twin_chunk));
    }
    assert!(literals > 600, "{literals} literals");
}
