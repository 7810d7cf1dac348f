//! Bound scalar expressions and their vectorized evaluation.

use std::borrow::Cow;
use std::fmt;

use hylite_common::{Bitmap, Chunk, ColumnVector, DataType, HyError, Result, Value};

use crate::functions::ScalarFunc;
use crate::kernels::{self, merge_validity, Side};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^` — power, always DOUBLE.
    Pow,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND` (three-valued)
    And,
    /// `OR` (three-valued)
    Or,
}

impl BinaryOp {
    /// Whether this is `+ - * / % ^`.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Mod
                | BinaryOp::Pow
        )
    }

    /// Whether this is a comparison.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Pow => "^",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT (three-valued: NOT NULL = NULL).
    Not,
}

/// A bound, typed scalar expression. Column references are indices into
/// the input chunk. Constructors perform type checking so that a built
/// tree is always well-typed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Input column by index.
    Column {
        /// Index into the input chunk.
        index: usize,
        /// The column's type.
        data_type: DataType,
    },
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
        /// Pre-computed result type.
        data_type: DataType,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        input: Box<ScalarExpr>,
    },
    /// Built-in scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<ScalarExpr>,
        /// Pre-computed result type.
        data_type: DataType,
    },
    /// Searched CASE: first branch whose condition is true wins.
    Case {
        /// `[condition, result]` pairs.
        branches: Vec<[ScalarExpr; 2]>,
        /// `ELSE` result (NULL if absent).
        else_expr: Option<Box<ScalarExpr>>,
        /// Pre-computed result type.
        data_type: DataType,
    },
    /// Explicit cast.
    Cast {
        /// Operand.
        input: Box<ScalarExpr>,
        /// Target type.
        target: DataType,
    },
    /// `IS NULL` / `IS NOT NULL`.
    IsNull {
        /// Operand.
        input: Box<ScalarExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr IN (v1, v2, ...)` over literal values.
    InList {
        /// Tested expression.
        input: Box<ScalarExpr>,
        /// Candidate literals (pre-cast to the input type).
        list: Vec<Value>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr LIKE pattern`.
    Like {
        /// Tested string expression.
        input: Box<ScalarExpr>,
        /// LIKE pattern with `%`/`_` wildcards.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl ScalarExpr {
    /// Column reference.
    pub fn column(index: usize, data_type: DataType) -> ScalarExpr {
        ScalarExpr::Column { index, data_type }
    }

    /// Literal value.
    pub fn literal(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// Type-checked binary expression.
    pub fn binary(op: BinaryOp, left: ScalarExpr, right: ScalarExpr) -> Result<ScalarExpr> {
        let (lt, rt) = (left.data_type(), right.data_type());
        let data_type = if op.is_arithmetic() {
            let common = lt.common_type(rt)?;
            if !common.is_numeric() && common != DataType::Null {
                return Err(HyError::Type(format!(
                    "operator {} requires numeric operands, got {lt} and {rt}",
                    op.symbol()
                )));
            }
            if op == BinaryOp::Pow {
                DataType::Float64
            } else {
                common
            }
        } else if op.is_comparison() {
            // Validates comparability.
            lt.common_type(rt)?;
            DataType::Bool
        } else {
            // AND / OR
            for t in [lt, rt] {
                if t != DataType::Bool && t != DataType::Null {
                    return Err(HyError::Type(format!(
                        "operator {} requires boolean operands, got {t}",
                        op.symbol()
                    )));
                }
            }
            DataType::Bool
        };
        Ok(ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
            data_type,
        })
    }

    /// Type-checked unary expression.
    pub fn unary(op: UnaryOp, input: ScalarExpr) -> Result<ScalarExpr> {
        let t = input.data_type();
        match op {
            UnaryOp::Neg if !t.is_numeric() && t != DataType::Null => {
                return Err(HyError::Type(format!("cannot negate {t}")))
            }
            UnaryOp::Not if t != DataType::Bool && t != DataType::Null => {
                return Err(HyError::Type(format!("NOT requires boolean, got {t}")))
            }
            _ => {}
        }
        Ok(ScalarExpr::Unary {
            op,
            input: Box::new(input),
        })
    }

    /// Type-checked function call.
    pub fn func(func: ScalarFunc, args: Vec<ScalarExpr>) -> Result<ScalarExpr> {
        let arg_types: Vec<DataType> = args.iter().map(ScalarExpr::data_type).collect();
        let data_type = func.result_type(&arg_types)?;
        Ok(ScalarExpr::Func {
            func,
            args,
            data_type,
        })
    }

    /// Type-checked searched CASE.
    pub fn case(
        branches: Vec<[ScalarExpr; 2]>,
        else_expr: Option<ScalarExpr>,
    ) -> Result<ScalarExpr> {
        if branches.is_empty() {
            return Err(HyError::Bind("CASE requires at least one WHEN".into()));
        }
        let mut data_type = DataType::Null;
        for [cond, result] in &branches {
            let ct = cond.data_type();
            if ct != DataType::Bool && ct != DataType::Null {
                return Err(HyError::Type(format!(
                    "CASE condition must be boolean, got {ct}"
                )));
            }
            data_type = data_type.common_type(result.data_type())?;
        }
        if let Some(e) = &else_expr {
            data_type = data_type.common_type(e.data_type())?;
        }
        if data_type == DataType::Null {
            data_type = DataType::Int64;
        }
        Ok(ScalarExpr::Case {
            branches,
            else_expr: else_expr.map(Box::new),
            data_type,
        })
    }

    /// The expression's result type.
    pub fn data_type(&self) -> DataType {
        match self {
            ScalarExpr::Column { data_type, .. } => *data_type,
            ScalarExpr::Literal(v) => v.data_type(),
            ScalarExpr::Binary { data_type, .. } => *data_type,
            ScalarExpr::Unary { op, input } => match op {
                UnaryOp::Neg => input.data_type(),
                UnaryOp::Not => DataType::Bool,
            },
            ScalarExpr::Func { data_type, .. } => *data_type,
            ScalarExpr::Case { data_type, .. } => *data_type,
            ScalarExpr::Cast { target, .. } => *target,
            ScalarExpr::IsNull { .. } | ScalarExpr::InList { .. } | ScalarExpr::Like { .. } => {
                DataType::Bool
            }
        }
    }

    // Where a node keeps its operands is written down in the two accessors
    // below and, outside the node's own meaning (constructors, `data_type`,
    // `operand`, `Display`), nowhere else: every walk, here and in the
    // optimizer and the lambdas, goes through them. No wildcard arm, so a
    // new variant does not compile until it is listed; one chain over a
    // node's parts — its first boxed operand, its operand list (a CASE's
    // branches, flattened), its last boxed operand — so nothing is
    // allocated per node.

    /// Direct operands, in order (a CASE: each condition before its result,
    /// then `ELSE`).
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = &ScalarExpr> {
        type Parts<'a> = (
            Option<&'a ScalarExpr>,
            &'a [ScalarExpr],
            Option<&'a ScalarExpr>,
        );
        let (first, listed, last): Parts<'_> = match self {
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) => (None, &[], None),
            ScalarExpr::Binary { left, right, .. } => (Some(left), &[], Some(right)),
            ScalarExpr::Unary { input, .. }
            | ScalarExpr::Cast { input, .. }
            | ScalarExpr::IsNull { input, .. }
            | ScalarExpr::InList { input, .. }
            | ScalarExpr::Like { input, .. } => (Some(input), &[], None),
            ScalarExpr::Func { args, .. } => (None, args, None),
            ScalarExpr::Case {
                branches,
                else_expr,
                ..
            } => (None, branches.as_flattened(), else_expr.as_deref()),
        };
        first.into_iter().chain(listed).chain(last)
    }

    /// Direct operands, in the order of [`ScalarExpr::children`].
    #[inline]
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut ScalarExpr> {
        type Parts<'a> = (
            Option<&'a mut ScalarExpr>,
            &'a mut [ScalarExpr],
            Option<&'a mut ScalarExpr>,
        );
        let (first, listed, last): Parts<'_> = match self {
            ScalarExpr::Column { .. } | ScalarExpr::Literal(_) => (None, &mut [], None),
            ScalarExpr::Binary { left, right, .. } => (Some(left), &mut [], Some(right)),
            ScalarExpr::Unary { input, .. }
            | ScalarExpr::Cast { input, .. }
            | ScalarExpr::IsNull { input, .. }
            | ScalarExpr::InList { input, .. }
            | ScalarExpr::Like { input, .. } => (Some(input), &mut [], None),
            ScalarExpr::Func { args, .. } => (None, args, None),
            ScalarExpr::Case {
                branches,
                else_expr,
                ..
            } => (None, branches.as_flattened_mut(), else_expr.as_deref_mut()),
        };
        first.into_iter().chain(listed).chain(last)
    }

    /// Indices of all referenced input columns (for projection pruning).
    pub fn referenced_columns(&self, out: &mut Vec<usize>) {
        match self {
            ScalarExpr::Column { index, .. } => out.push(*index),
            _ => self.children().for_each(|c| c.referenced_columns(out)),
        }
    }

    /// Widen `types` to every column the expression reads, and give a
    /// column whose slot has no type (a NULL cell) its declared one.
    fn type_columns(&self, types: &mut Vec<DataType>) {
        match self {
            ScalarExpr::Column { index, data_type } => {
                if *index >= types.len() {
                    types.resize(index + 1, DataType::Null);
                }
                if types[*index] == DataType::Null {
                    types[*index] = *data_type;
                }
            }
            _ => self.children().for_each(|c| c.type_columns(types)),
        }
    }

    /// Whether `pred` holds for any literal value in the expression, an
    /// `IN` list's candidates included.
    pub fn any_literal(&self, pred: &dyn Fn(&Value) -> bool) -> bool {
        match self {
            ScalarExpr::Literal(v) => pred(v),
            ScalarExpr::InList { list, .. } if list.iter().any(pred) => true,
            _ => self.children().any(|c| c.any_literal(pred)),
        }
    }

    /// Rewrite all column indices through `mapping` (old index → new index).
    /// Used by the optimizer when columns are pruned or reordered.
    pub fn remap_columns(&mut self, mapping: &[usize]) {
        match self {
            ScalarExpr::Column { index, .. } => *index = mapping[*index],
            _ => self.children_mut().for_each(|c| c.remap_columns(mapping)),
        }
    }

    /// Replace every column reference that `f` maps to an expression (the
    /// optimizer substituting a projection's expressions, a lambda its
    /// second parameter's values).
    pub fn replace_columns(&mut self, f: &dyn Fn(usize) -> Option<ScalarExpr>) {
        match self {
            ScalarExpr::Column { index, .. } => {
                if let Some(e) = f(*index) {
                    *self = e;
                }
            }
            _ => self.children_mut().for_each(|c| c.replace_columns(f)),
        }
    }

    /// Vectorized evaluation over a chunk, producing one column with
    /// `chunk.len()` rows.
    pub fn eval(&self, chunk: &Chunk) -> Result<ColumnVector> {
        Ok(self.operand(chunk)?.rows(chunk.len()).into_owned())
    }

    /// Evaluation as an operand: a column reference borrows the chunk's
    /// column, a literal is one row, and a node whose operands are all such
    /// scalars computes one row too.
    fn operand<'a>(&'a self, chunk: &'a Chunk) -> Result<Operand<'a>> {
        let n = chunk.len();
        Ok(match self {
            ScalarExpr::Column { index, .. } => Operand::borrowed(chunk.column(*index), false),
            // An empty chunk has no row to stand for, so no scalar.
            ScalarExpr::Literal(v) => Operand::owned(broadcast(v, n.min(1)), n > 0),
            ScalarExpr::Binary {
                op, left, right, ..
            } => binary(*op, left, right, chunk)?,
            ScalarExpr::Func {
                func: ScalarFunc::Pow,
                args,
                ..
            } => binary(BinaryOp::Pow, &args[0], &args[1], chunk)?,
            ScalarExpr::Unary { op, input } => input.operand(chunk)?.map(|c| match op {
                UnaryOp::Neg => match c {
                    ColumnVector::Int64 { data, validity } => Ok(ColumnVector::Int64 {
                        data: data.iter().map(|v| v.wrapping_neg()).collect(),
                        validity: validity.clone(),
                    }),
                    ColumnVector::Float64 { data, validity } => Ok(ColumnVector::Float64 {
                        data: data.iter().map(|v| -v).collect(),
                        validity: validity.clone(),
                    }),
                    other => Err(HyError::Type(format!(
                        "cannot negate {}",
                        other.data_type()
                    ))),
                },
                UnaryOp::Not => not(c),
            })?,
            ScalarExpr::Func { func, args, .. } => {
                let args: Vec<Operand> = args
                    .iter()
                    .map(|a| a.operand(chunk))
                    .collect::<Result<_>>()?;
                let scalar = args.iter().all(|a| a.scalar);
                let rows = if scalar { 1 } else { n };
                let cols: Vec<Cow<ColumnVector>> = args.into_iter().map(|a| a.rows(rows)).collect();
                Operand::owned(func.eval(&cols)?, scalar)
            }
            ScalarExpr::Case {
                branches,
                else_expr,
                data_type,
            } => {
                // Evaluate all branches over the chunk, then select
                // row-wise: the cost model is fine because CASE inputs in
                // analytical queries are cheap scalar columns.
                let conds: Vec<ColumnVector> = branches
                    .iter()
                    .map(|[c, _]| c.eval(chunk))
                    .collect::<Result<_>>()?;
                let results: Vec<ColumnVector> = branches
                    .iter()
                    .map(|[_, r]| r.eval(chunk)?.cast_to(*data_type))
                    .collect::<Result<_>>()?;
                let else_col = match else_expr {
                    Some(e) => Some(e.eval(chunk)?.cast_to(*data_type)?),
                    None => None,
                };
                let mut out = ColumnVector::empty(*data_type);
                for i in 0..n {
                    let mut v = Value::Null;
                    let mut matched = false;
                    for (b, cond) in conds.iter().enumerate() {
                        if cond.is_valid(i) && cond.as_bool()?[i] {
                            v = results[b].value(i);
                            matched = true;
                            break;
                        }
                    }
                    if !matched {
                        if let Some(e) = &else_col {
                            v = e.value(i);
                        }
                    }
                    out.push_value(&v)?;
                }
                Operand::owned(out, false)
            }
            ScalarExpr::Cast { input, target } => {
                let input = input.operand(chunk)?;
                Operand::new(kernels::cast(input.col, *target)?, input.scalar)
            }
            ScalarExpr::IsNull { input, negated } => input.operand(chunk)?.map(|c| {
                let hits = (0..c.len()).map(|i| c.is_valid(i) == *negated);
                Ok(ColumnVector::from_bool(hits.collect()))
            })?,
            ScalarExpr::InList {
                input,
                list,
                negated,
            } => in_list(input, list, *negated, chunk)?,
            ScalarExpr::Like {
                input,
                pattern,
                negated,
            } => input.operand(chunk)?.map(|c| {
                let s = c.as_varchar()?;
                Ok(ColumnVector::Bool {
                    data: s
                        .iter()
                        .map(|v| kernels::like_match(v, pattern) != *negated)
                        .collect(),
                    validity: c.validity().cloned(),
                })
            })?,
        })
    }

    /// Evaluate on a single materialized row (used by the UDF baseline and
    /// for constant folding: fold by evaluating over an empty-row chunk).
    pub fn eval_row(&self, row: &hylite_common::Row) -> Result<Value> {
        // Build a one-row chunk lazily; row-at-a-time evaluation is only
        // used off the hot path. Column types come from the expression's
        // own column references, which may also reach past the row (those
        // cells are NULL): the expression's static type wins over an
        // untyped NULL cell; a genuine value/type mismatch will surface in
        // push_value.
        let mut col_types: Vec<DataType> = row.values().iter().map(Value::data_type).collect();
        self.type_columns(&mut col_types);
        let mut padded: Vec<Value> = row.values().to_vec();
        padded.resize(col_types.len(), Value::Null);
        let chunk = Chunk::from_rows(&col_types, &[padded])?;
        let col = self.eval(&chunk)?;
        Ok(col.value(0))
    }

    /// The literal `2` or `2.0`.
    fn is_literal_two(&self) -> bool {
        match self {
            ScalarExpr::Literal(Value::Int(2)) => true,
            ScalarExpr::Literal(Value::Float(x)) => *x == 2.0,
            _ => false,
        }
    }

    /// True when the expression references no columns (a constant).
    pub fn is_constant(&self) -> bool {
        !matches!(self, ScalarExpr::Column { .. }) && self.children().all(ScalarExpr::is_constant)
    }
}

/// An evaluated operand: a column of the chunk's rows — borrowed when the
/// expression is a column reference — or, when `scalar`, one row standing
/// for every row.
struct Operand<'a> {
    col: Cow<'a, ColumnVector>,
    scalar: bool,
}

impl<'a> Operand<'a> {
    fn new(col: Cow<'a, ColumnVector>, scalar: bool) -> Operand<'a> {
        Operand { col, scalar }
    }

    fn owned(col: ColumnVector, scalar: bool) -> Operand<'a> {
        Operand::new(Cow::Owned(col), scalar)
    }

    fn borrowed(col: &'a ColumnVector, scalar: bool) -> Operand<'a> {
        Operand::new(Cow::Borrowed(col), scalar)
    }

    /// `f` over the operand's rows; a scalar stays a scalar.
    fn map(self, f: impl FnOnce(&ColumnVector) -> Result<ColumnVector>) -> Result<Operand<'a>> {
        Ok(Operand::owned(f(&self.col)?, self.scalar))
    }

    /// The operand as a column of `n` rows: a scalar is repeated (the one
    /// place a literal becomes a column), a column kept as it is.
    fn rows(self, n: usize) -> Cow<'a, ColumnVector> {
        if !self.scalar || self.col.len() == n {
            return self.col;
        }
        Cow::Owned(match self.col.value(0) {
            Value::Null => nulls(self.col.data_type(), n),
            v => broadcast(&v, n),
        })
    }

    /// The validity of a column's rows; none for a scalar (a NULL one is
    /// the caller's case).
    fn mask(&self) -> Option<&Bitmap> {
        (!self.scalar).then(|| self.col.validity()).flatten()
    }
}

/// Evaluate a binary operator over two columns of one length.
pub fn eval_binary(op: BinaryOp, l: &ColumnVector, r: &ColumnVector) -> Result<ColumnVector> {
    let (l, r) = (Operand::borrowed(l, false), Operand::borrowed(r, false));
    Ok(binary_operands(op, l, r)?.col.into_owned())
}

/// `left op right` over a chunk; `x ^ 2` is a multiply, not a `powf`.
fn binary<'a>(
    op: BinaryOp,
    left: &'a ScalarExpr,
    right: &'a ScalarExpr,
    chunk: &'a Chunk,
) -> Result<Operand<'a>> {
    let l = left.operand(chunk)?;
    if op == BinaryOp::Pow && right.is_literal_two() {
        return l.map(kernels::square);
    }
    binary_operands(op, l, right.operand(chunk)?)
}

fn binary_operands<'a>(op: BinaryOp, l: Operand<'_>, r: Operand<'_>) -> Result<Operand<'a>> {
    let scalar = l.scalar && r.scalar;
    let n = if l.scalar { r.col.len() } else { l.col.len() };
    let col = match op {
        BinaryOp::And | BinaryOp::Or => {
            let (l, r) = (l.rows(n), r.rows(n));
            let (lv, rv) = (l.validity(), r.validity());
            kernels::logic_3vl(op == BinaryOp::Or, l.as_bool()?, lv, r.as_bool()?, rv)
        }
        _ => {
            let common = l.col.data_type().common_type(r.col.data_type())?;
            let common = if op == BinaryOp::Pow {
                DataType::Float64
            } else {
                common
            };
            // A NULL scalar makes every row NULL.
            let validity = if [&l, &r].iter().any(|o| o.scalar && !o.col.is_valid(0)) {
                Some(Bitmap::filled(n, false))
            } else {
                merge_validity(l.mask(), r.mask())
            };
            let (ls, rs) = (l.scalar, r.scalar);
            let (lc, rc) = (kernels::cast(l.col, common)?, kernels::cast(r.col, common)?);
            let sym = op.symbol();
            // `$kernel` over both sides as `$slice`s.
            macro_rules! kernel {
                ($kernel:ident, $slice:ident) => {{
                    let (l, r) = (Side::new(lc.$slice()?, ls), Side::new(rc.$slice()?, rs));
                    kernels::$kernel(sym, l, r, validity)
                }};
            }
            match (op.is_comparison(), common) {
                (true, DataType::Int64) => kernel!(compare, as_i64),
                (true, DataType::Float64) => kernel!(compare, as_f64),
                (true, DataType::Bool) => kernel!(compare, as_bool),
                (true, DataType::Varchar) => kernel!(compare, as_varchar),
                (true, DataType::Null) => Ok(nulls(DataType::Bool, n)),
                (false, DataType::Int64) => kernel!(arith_i64, as_i64),
                (false, DataType::Float64) => kernel!(arith_f64, as_f64),
                (false, DataType::Null) => Ok(nulls(DataType::Int64, n)),
                (false, other) => Err(HyError::Type(format!(
                    "operator {sym} not defined for {other}"
                ))),
            }?
        }
    };
    Ok(Operand::owned(col, scalar))
}

/// `input IN (list)`: the OR of `input = item`, each in the `=` kernel's
/// common type, so a NULL item or NULL input makes a non-match NULL and
/// NaN matches nothing; `NOT IN` is its negation.
fn in_list<'a>(
    input: &'a ScalarExpr,
    list: &[Value],
    negated: bool,
    chunk: &'a Chunk,
) -> Result<Operand<'a>> {
    let untyped = input.data_type() == DataType::Null;
    let input = input.operand(chunk)?;
    let n = if input.scalar { 1 } else { input.col.len() };
    // An untyped NULL input (BIGINT storage) is NULL against any item.
    if untyped {
        return Ok(Operand::owned(nulls(DataType::Bool, n), input.scalar));
    }
    let mut common = input.col.data_type();
    for item in list.iter().filter(|v| !v.is_null()) {
        common = common.common_type(item.data_type())?;
    }
    let (scalar, values) = (input.scalar, kernels::cast(input.col, common)?);
    let mut any = Operand::owned(ColumnVector::from_bool(vec![false; n]), scalar);
    for item in list {
        let hit = if item.is_null() {
            Operand::owned(nulls(DataType::Bool, n), scalar)
        } else {
            let item = Operand::owned(broadcast(item, 1), true);
            binary_operands(BinaryOp::Eq, Operand::borrowed(&values, scalar), item)?
        };
        any = binary_operands(BinaryOp::Or, any, hit)?;
    }
    if negated {
        any = any.map(not)?;
    }
    Ok(any)
}

/// Three-valued NOT: NOT NULL is NULL.
fn not(c: &ColumnVector) -> Result<ColumnVector> {
    Ok(ColumnVector::Bool {
        data: c.as_bool()?.iter().map(|v| !v).collect(),
        validity: c.validity().cloned(),
    })
}

/// An all-NULL column of type `t` (`Null` is BIGINT storage).
fn nulls(t: DataType, n: usize) -> ColumnVector {
    let mut c = ColumnVector::empty(t);
    (0..n).for_each(|_| c.push_null());
    c
}

/// Broadcast a scalar into an `n`-row column (a NULL is BIGINT).
pub fn broadcast(v: &Value, n: usize) -> ColumnVector {
    match v {
        Value::Null => nulls(DataType::Int64, n),
        Value::Int(x) => ColumnVector::from_i64(vec![*x; n]),
        Value::Float(x) => ColumnVector::from_f64(vec![*x; n]),
        Value::Bool(x) => ColumnVector::from_bool(vec![*x; n]),
        Value::Str(x) => ColumnVector::from_str(vec![x.clone(); n]),
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Column { index, .. } => write!(f, "#{index}"),
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Binary {
                op, left, right, ..
            } => write!(f, "({left} {} {right})", op.symbol()),
            ScalarExpr::Unary { op, input } => match op {
                UnaryOp::Neg => write!(f, "(-{input})"),
                UnaryOp::Not => write!(f, "(NOT {input})"),
            },
            ScalarExpr::Func { func, args, .. } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Case {
                branches,
                else_expr,
                ..
            } => {
                write!(f, "CASE")?;
                for [c, r] in branches {
                    write!(f, " WHEN {c} THEN {r}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            ScalarExpr::Cast { input, target } => write!(f, "CAST({input} AS {target})"),
            ScalarExpr::IsNull { input, negated } => {
                write!(f, "({input} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            ScalarExpr::InList {
                input,
                list,
                negated,
            } => {
                write!(f, "({input} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "))")
            }
            ScalarExpr::Like {
                input,
                pattern,
                negated,
            } => write!(
                f,
                "({input} {}LIKE '{pattern}')",
                if *negated { "NOT " } else { "" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> Chunk {
        Chunk::new(vec![
            ColumnVector::from_i64(vec![1, 2, 3]),
            ColumnVector::from_f64(vec![0.5, 1.5, 2.5]),
            ColumnVector::from_str(vec!["apple", "banana", "avocado"]),
        ])
    }

    fn col(i: usize, t: DataType) -> ScalarExpr {
        ScalarExpr::column(i, t)
    }

    #[test]
    fn arithmetic_promotes() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            col(0, DataType::Int64),
            col(1, DataType::Float64),
        )
        .unwrap();
        assert_eq!(e.data_type(), DataType::Float64);
        let c = e.eval(&chunk()).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[1.5, 3.5, 5.5]);
    }

    #[test]
    fn squaring_matches_powf_to_one_ulp() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::MIN_POSITIVE / 1024.0,
            f64::from_bits(1), // smallest subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            1.0e-160,
        ];
        // Any bit pattern, and the magnitudes distance computations see.
        values.extend((0..2000).map(|_| f64::from_bits(rng.gen::<u64>())));
        values.extend((0..2000).map(|_| rng.gen_range(-1000.0..1000.0)));
        let n = values.len();
        let null_slots = [3usize, 5, 7, n - 1];
        let chunk = Chunk::new(vec![ColumnVector::Float64 {
            data: values.clone(),
            validity: Some((0..n).map(|i| !null_slots.contains(&i)).collect()),
        }]);
        // Off by at most one in the ordered-integer view of the bits.
        let ulps = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs();
        let base = || col(0, DataType::Float64);
        let squares = [
            ScalarExpr::binary(BinaryOp::Pow, base(), ScalarExpr::literal(2i64)).unwrap(),
            ScalarExpr::binary(BinaryOp::Pow, base(), ScalarExpr::literal(2.0f64)).unwrap(),
            ScalarExpr::func(ScalarFunc::Pow, vec![base(), ScalarExpr::literal(2i64)]).unwrap(),
        ];
        for e in &squares {
            let out = e.eval(&chunk).unwrap();
            assert_eq!(out.data_type(), DataType::Float64);
            let got = out.as_f64().unwrap();
            for (i, v) in values.iter().enumerate() {
                if null_slots.contains(&i) {
                    assert!(!out.is_valid(i), "{e}: row {i} must stay NULL");
                    continue;
                }
                assert!(out.is_valid(i));
                let want = v.powf(2.0);
                assert!(
                    (want.is_nan() && got[i].is_nan()) || ulps(got[i], want) <= 1,
                    "{e}: {v:e}: got {:e}, powf gives {want:e}",
                    got[i]
                );
            }
        }
        // Other exponents still go through powf.
        let cube = ScalarExpr::binary(BinaryOp::Pow, base(), ScalarExpr::literal(3i64)).unwrap();
        let got = cube.eval(&chunk).unwrap();
        assert_eq!(got.as_f64().unwrap()[n - 2], values[n - 2].powf(3.0));
    }

    #[test]
    fn power_is_float() {
        let e = ScalarExpr::binary(
            BinaryOp::Pow,
            col(0, DataType::Int64),
            ScalarExpr::literal(2i64),
        )
        .unwrap();
        assert_eq!(e.data_type(), DataType::Float64);
        let c = e.eval(&chunk()).unwrap();
        assert_eq!(c.as_f64().unwrap(), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn comparison_and_logic() {
        let gt = ScalarExpr::binary(
            BinaryOp::Gt,
            col(0, DataType::Int64),
            ScalarExpr::literal(1i64),
        )
        .unwrap();
        let lt = ScalarExpr::binary(
            BinaryOp::Lt,
            col(1, DataType::Float64),
            ScalarExpr::literal(2.0f64),
        )
        .unwrap();
        let and = ScalarExpr::binary(BinaryOp::And, gt, lt).unwrap();
        let c = and.eval(&chunk()).unwrap();
        assert_eq!(c.as_bool().unwrap(), &[false, true, false]);
    }

    #[test]
    fn type_errors_at_construction() {
        assert!(ScalarExpr::binary(
            BinaryOp::Add,
            col(2, DataType::Varchar),
            ScalarExpr::literal(1i64)
        )
        .is_err());
        assert!(ScalarExpr::binary(
            BinaryOp::And,
            col(0, DataType::Int64),
            ScalarExpr::literal(true)
        )
        .is_err());
        assert!(ScalarExpr::unary(UnaryOp::Not, col(0, DataType::Int64)).is_err());
    }

    #[test]
    fn case_expression() {
        let e = ScalarExpr::case(
            vec![
                [
                    ScalarExpr::binary(
                        BinaryOp::Eq,
                        col(0, DataType::Int64),
                        ScalarExpr::literal(1i64),
                    )
                    .unwrap(),
                    ScalarExpr::literal("one"),
                ],
                [
                    ScalarExpr::binary(
                        BinaryOp::Eq,
                        col(0, DataType::Int64),
                        ScalarExpr::literal(2i64),
                    )
                    .unwrap(),
                    ScalarExpr::literal("two"),
                ],
            ],
            Some(ScalarExpr::literal("many")),
        )
        .unwrap();
        let c = e.eval(&chunk()).unwrap();
        assert_eq!(
            c.as_varchar().unwrap(),
            &["one".to_string(), "two".to_string(), "many".to_string()]
        );
    }

    #[test]
    fn case_without_else_yields_null() {
        let e = ScalarExpr::case(
            vec![[
                ScalarExpr::binary(
                    BinaryOp::Eq,
                    col(0, DataType::Int64),
                    ScalarExpr::literal(1i64),
                )
                .unwrap(),
                ScalarExpr::literal(10i64),
            ]],
            None,
        )
        .unwrap();
        let c = e.eval(&chunk()).unwrap();
        assert_eq!(c.value(0), Value::Int(10));
        assert!(c.value(1).is_null());
    }

    #[test]
    fn in_list_and_like() {
        let e = ScalarExpr::InList {
            input: Box::new(col(0, DataType::Int64)),
            list: vec![Value::Int(1), Value::Int(3)],
            negated: false,
        };
        assert_eq!(
            e.eval(&chunk()).unwrap().as_bool().unwrap(),
            &[true, false, true]
        );
        let e = ScalarExpr::Like {
            input: Box::new(col(2, DataType::Varchar)),
            pattern: "a%".into(),
            negated: false,
        };
        assert_eq!(
            e.eval(&chunk()).unwrap().as_bool().unwrap(),
            &[true, false, true]
        );
    }

    #[test]
    fn is_null_and_not() {
        let mut c0 = ColumnVector::empty(DataType::Int64);
        c0.push_value(&Value::Int(1)).unwrap();
        c0.push_null();
        let ch = Chunk::new(vec![c0]);
        let e = ScalarExpr::IsNull {
            input: Box::new(col(0, DataType::Int64)),
            negated: false,
        };
        assert_eq!(e.eval(&ch).unwrap().as_bool().unwrap(), &[false, true]);
        let e = ScalarExpr::IsNull {
            input: Box::new(col(0, DataType::Int64)),
            negated: true,
        };
        assert_eq!(e.eval(&ch).unwrap().as_bool().unwrap(), &[true, false]);
    }

    #[test]
    fn referenced_and_remap() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            col(0, DataType::Int64),
            col(2, DataType::Int64),
        )
        .unwrap();
        let mut refs = Vec::new();
        e.referenced_columns(&mut refs);
        assert_eq!(refs, vec![0, 2]);
        let mut e2 = e;
        e2.remap_columns(&[5, 9, 7]);
        let mut refs = Vec::new();
        e2.referenced_columns(&mut refs);
        assert_eq!(refs, vec![5, 7]);
    }

    #[test]
    fn row_eval_matches_chunk_eval() {
        let e = ScalarExpr::binary(
            BinaryOp::Mul,
            col(0, DataType::Int64),
            ScalarExpr::literal(3i64),
        )
        .unwrap();
        let ch = chunk();
        let c = e.eval(&ch).unwrap();
        for i in 0..ch.len() {
            assert_eq!(e.eval_row(&ch.row(i)).unwrap(), c.value(i));
        }
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = ScalarExpr::binary(
            BinaryOp::Add,
            col(0, DataType::Int64),
            ScalarExpr::literal(1i64),
        )
        .unwrap();
        assert_eq!(e.to_string(), "(#0 + 1)");
    }

    #[test]
    fn constant_detection() {
        assert!(ScalarExpr::literal(1i64).is_constant());
        assert!(!col(0, DataType::Int64).is_constant());
    }
}
