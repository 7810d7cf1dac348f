//! Bound SQL lambda expressions (the paper's §7).
//!
//! A lambda `λ(a, b) (a.x-b.x)^2 + (a.y-b.y)^2` is bound by the planner
//! into a [`BoundLambda`]: the body is an ordinary [`ScalarExpr`] whose
//! column indices `0..left_width` refer to the first tuple variable's
//! attributes and `left_width..left_width+right_width` to the second's.
//!
//! Analytics operators evaluate lambdas *vectorized*: for a fixed right
//! tuple (e.g. one cluster center) the right-hand attributes are
//! substituted as constants ([`BoundLambda::bind_right`]) and the
//! resulting unary expression is evaluated over whole data chunks. All
//! dispatch happens per chunk, not per row — the vectorized equivalent of
//! the paper's "all code is compiled together, no virtual function calls".

use hylite_common::{Chunk, ColumnVector, DataType, HyError, Result, Value};

use crate::scalar::ScalarExpr;

/// A type-checked lambda with two tuple parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundLambda {
    /// Number of attributes of the first parameter (`a`).
    left_width: usize,
    /// Number of attributes of the second parameter (`b`).
    right_width: usize,
    /// Body over the concatenated attribute space.
    body: ScalarExpr,
}

impl BoundLambda {
    /// Wrap a bound body. Validates that referenced columns are in range.
    pub fn new(left_width: usize, right_width: usize, body: ScalarExpr) -> Result<BoundLambda> {
        let mut refs = Vec::new();
        body.referenced_columns(&mut refs);
        if let Some(&max) = refs.iter().max() {
            if max >= left_width + right_width {
                return Err(HyError::Bind(format!(
                    "lambda body references column {max} but parameters provide {} attributes",
                    left_width + right_width
                )));
            }
        }
        Ok(BoundLambda {
            left_width,
            right_width,
            body,
        })
    }

    /// Number of attributes of the first parameter.
    pub fn left_width(&self) -> usize {
        self.left_width
    }

    /// Number of attributes of the second parameter.
    pub fn right_width(&self) -> usize {
        self.right_width
    }

    /// The lambda body.
    pub fn body(&self) -> &ScalarExpr {
        &self.body
    }

    /// The body, for rewrites that keep its columns and its type (constant
    /// folding): the range check of [`BoundLambda::new`] is not repeated.
    pub fn body_mut(&mut self) -> &mut ScalarExpr {
        &mut self.body
    }

    /// The body's result type.
    pub fn result_type(&self) -> DataType {
        self.body.data_type()
    }

    /// Substitute concrete values for the second parameter's attributes,
    /// yielding an expression over the first parameter's attributes only.
    ///
    /// This is how operators evaluate a lambda against one model tuple
    /// (cluster center, class centroid, ...) for a whole data chunk at a
    /// time without materializing pair chunks.
    pub fn bind_right(&self, values: &[Value]) -> Result<ScalarExpr> {
        if values.len() != self.right_width {
            return Err(HyError::Internal(format!(
                "lambda bind_right: expected {} values, got {}",
                self.right_width,
                values.len()
            )));
        }
        let mut expr = self.body.clone();
        let from = self.left_width;
        expr.replace_columns(&|i| {
            (i >= from).then(|| ScalarExpr::Literal(values[i - from].clone()))
        });
        Ok(expr)
    }

    /// Evaluate the lambda over a pair chunk whose columns are the first
    /// parameter's attributes followed by the second's (generic path,
    /// used when both sides vary per row).
    pub fn eval_pairs(&self, pair_chunk: &Chunk) -> Result<ColumnVector> {
        if pair_chunk.num_columns() != self.left_width + self.right_width {
            return Err(HyError::Internal(format!(
                "lambda pair chunk has {} columns, expected {}",
                pair_chunk.num_columns(),
                self.left_width + self.right_width
            )));
        }
        self.body.eval(pair_chunk)
    }

    /// Convenience: evaluate against a fixed right tuple over a data
    /// chunk holding the first parameter's attributes.
    pub fn eval_broadcast(&self, data: &Chunk, right: &[Value]) -> Result<ColumnVector> {
        let bound = self.bind_right(right)?;
        bound.eval(data)
    }

    /// The default k-Means distance: squared Euclidean over `dims`
    /// attributes — `Σ (a.i - b.i)^2`. This is the "default lambda" the
    /// paper supplies when the user specifies none.
    pub fn default_squared_l2(dims: usize) -> Result<BoundLambda> {
        let mut body: Option<ScalarExpr> = None;
        for i in 0..dims {
            let a = ScalarExpr::column(i, DataType::Float64);
            let b = ScalarExpr::column(dims + i, DataType::Float64);
            let diff = ScalarExpr::binary(crate::BinaryOp::Sub, a, b)?;
            let sq = ScalarExpr::binary(crate::BinaryOp::Mul, diff.clone(), diff)?;
            body = Some(match body {
                Some(acc) => ScalarExpr::binary(crate::BinaryOp::Add, acc, sq)?,
                None => sq,
            });
        }
        let body = body.ok_or_else(|| HyError::Analytics("lambda over zero attributes".into()))?;
        BoundLambda::new(dims, dims, body)
    }

    /// The Manhattan (L1) distance lambda — `Σ |a.i - b.i|` — the
    /// k-Medians variant from the paper's §7 discussion.
    pub fn manhattan_l1(dims: usize) -> Result<BoundLambda> {
        let mut body: Option<ScalarExpr> = None;
        for i in 0..dims {
            let a = ScalarExpr::column(i, DataType::Float64);
            let b = ScalarExpr::column(dims + i, DataType::Float64);
            let diff = ScalarExpr::binary(crate::BinaryOp::Sub, a, b)?;
            let abs = ScalarExpr::func(crate::ScalarFunc::Abs, vec![diff])?;
            body = Some(match body {
                Some(acc) => ScalarExpr::binary(crate::BinaryOp::Add, acc, abs)?,
                None => abs,
            });
        }
        let body = body.ok_or_else(|| HyError::Analytics("lambda over zero attributes".into()))?;
        BoundLambda::new(dims, dims, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryOp;

    fn data_chunk() -> Chunk {
        Chunk::new(vec![
            ColumnVector::from_f64(vec![0.0, 1.0, 2.0]),
            ColumnVector::from_f64(vec![0.0, 1.0, 2.0]),
        ])
    }

    #[test]
    fn default_l2_distances() {
        let l = BoundLambda::default_squared_l2(2).unwrap();
        let d = l
            .eval_broadcast(&data_chunk(), &[Value::Float(1.0), Value::Float(1.0)])
            .unwrap();
        assert_eq!(d.as_f64().unwrap(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn manhattan_distances() {
        let l = BoundLambda::manhattan_l1(2).unwrap();
        let d = l
            .eval_broadcast(&data_chunk(), &[Value::Float(1.0), Value::Float(1.0)])
            .unwrap();
        assert_eq!(d.as_f64().unwrap(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn custom_body_and_pair_eval() {
        // λ(a, b) a.x * b.w  — a has 1 attr, b has 1 attr
        let body = ScalarExpr::binary(
            BinaryOp::Mul,
            ScalarExpr::column(0, DataType::Float64),
            ScalarExpr::column(1, DataType::Float64),
        )
        .unwrap();
        let l = BoundLambda::new(1, 1, body).unwrap();
        let pair = Chunk::new(vec![
            ColumnVector::from_f64(vec![2.0, 3.0]),
            ColumnVector::from_f64(vec![10.0, 100.0]),
        ]);
        let out = l.eval_pairs(&pair).unwrap();
        assert_eq!(out.as_f64().unwrap(), &[20.0, 300.0]);
    }

    #[test]
    fn out_of_range_reference_rejected() {
        let body = ScalarExpr::column(5, DataType::Float64);
        assert!(BoundLambda::new(2, 2, body).is_err());
    }

    #[test]
    fn bind_right_arity_checked() {
        let l = BoundLambda::default_squared_l2(2).unwrap();
        assert!(l.bind_right(&[Value::Float(1.0)]).is_err());
    }

    #[test]
    fn bound_expression_is_unary_in_left() {
        let l = BoundLambda::default_squared_l2(2).unwrap();
        let bound = l
            .bind_right(&[Value::Float(0.5), Value::Float(0.5)])
            .unwrap();
        let mut refs = Vec::new();
        bound.referenced_columns(&mut refs);
        assert!(refs.iter().all(|&c| c < 2));
    }

    #[test]
    fn broadcast_equals_pairwise() {
        let l = BoundLambda::default_squared_l2(2).unwrap();
        let data = data_chunk();
        let center = [Value::Float(0.25), Value::Float(0.75)];
        let fast = l.eval_broadcast(&data, &center).unwrap();
        // Build explicit pair chunk and compare.
        let n = data.len();
        let pair = Chunk::new(vec![
            data.column(0).clone(),
            data.column(1).clone(),
            ColumnVector::from_f64(vec![0.25; n]),
            ColumnVector::from_f64(vec![0.75; n]),
        ]);
        let slow = l.eval_pairs(&pair).unwrap();
        assert_eq!(fast, slow);
    }
}
