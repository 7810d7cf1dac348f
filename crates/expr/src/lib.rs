//! Vectorized scalar and aggregate expression evaluation.
//!
//! Expressions arrive here already *bound*: column references are plain
//! indices into the input [`Chunk`](hylite_common::Chunk), and every node
//! knows its result [`DataType`](hylite_common::DataType). Binding happens
//! in `hylite-planner`; this crate is the runtime.
//!
//! The evaluation model substitutes for HyPer's LLVM code generation (see
//! DESIGN.md): each node dispatches once per *chunk* into a monomorphic
//! kernel that loops over plain slices, so the per-row cost is a tight
//! scalar loop with no dynamic dispatch — the property the paper's
//! data-centric compilation is after.
//!
//! [`lambda`] implements the paper's §7: user-defined lambda expressions
//! that analytics operators evaluate vectorized, broadcasting one side
//! (e.g. a cluster center) as constants over a whole data chunk.

pub mod aggregate;
pub mod functions;
pub mod kernels;
pub mod lambda;
pub mod scalar;

pub use aggregate::{Accumulator, AggregateFunction, AggregateState};
pub use functions::ScalarFunc;
pub use lambda::BoundLambda;
pub use scalar::{BinaryOp, ScalarExpr, UnaryOp};
