//! Morsel-driven vectorized execution engine.
//!
//! The [`Executor`] interprets a bound, optimized
//! [`LogicalPlan`](hylite_planner::LogicalPlan) against the storage
//! catalog. Leaf scans split table snapshots into morsels with scan-local
//! filters and projections fused in (the vectorized stand-in for HyPer's
//! data-centric pipelines); pipeline breakers (joins, aggregates, sorts,
//! the analytics operators) fold each chunk into a partial state and
//! merge the partial states once, in chunk order. One thread runs the
//! morsels today, in order; the partial states are what a morsel
//! scheduler will hand to several.
//!
//! Iteration constructs live in [`iterate`]: the SQL:1999 appending
//! recursive CTE and the paper's non-appending ITERATE operator (§5.1),
//! which keeps at most two generations of the working table alive.

pub mod aggregate;
pub mod context;
pub mod executor;
pub mod iterate;
pub mod join;
pub mod keys;
pub mod operators;
#[cfg(test)]
mod reference;
mod reuse;
pub mod scan;
pub mod sort;
pub mod util;

pub use context::{ExecContext, ExecStats};
pub use executor::Executor;
