//! Query planning: binder, logical plans and the rule-based optimizer.
//!
//! The pipeline mirrors Figure 3 of the paper: the parsed AST is *bound*
//! (names resolved, types inferred, lambdas attached to their operators)
//! into a [`LogicalPlan`] in which relational and analytical operators are
//! first-class peers, then optimized by rewrite rules that understand both
//! kinds of operators — in particular, selections are *not* pushed through
//! analytical operators (§5.2: their results depend on the whole input).

pub mod binder;
mod expr_binder;
pub mod logical;
pub mod optimizer;
pub mod stats;

pub use binder::Binder;
pub use logical::{AggExpr, AnalyticsOp, JoinKind, LogicalPlan, SortKey};
pub use optimizer::{Optimizer, Rules};
