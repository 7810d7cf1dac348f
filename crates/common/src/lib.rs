//! Shared vocabulary of the HyLite engine.
//!
//! This crate defines the typed columnar value system every other crate
//! speaks: [`DataType`] and [`Value`] for scalars, [`Bitmap`] for validity,
//! [`ColumnVector`] for typed columns, [`Chunk`] for vectorized batches of
//! rows, [`Schema`]/[`Field`] for relation shapes, and [`HyError`] for
//! error reporting across the whole engine. It also hosts the
//! cross-cutting runtime services: [`telemetry`] (metrics and per-query
//! profiles), [`governor`] (per-query cancellation, deadlines,
//! memory budgets, and the thread cap), [`morsel`] (the one scheduler that
//! puts work on more than one core), [`codec`] (the one binary codec of
//! every record HyLite writes) and [`wire`] (the binary frame protocol
//! spoken between `hylite-server` and `hylite-client`).

#![warn(missing_docs)]

pub mod bitmap;
pub mod chunk;
pub mod codec;
pub mod column;
pub mod crc32;
pub mod error;
pub mod faultfs;
pub mod faultnet;
pub mod governor;
pub mod hash;
pub mod morsel;
pub mod row;
pub mod schema;
pub mod sysview;
pub mod telemetry;
pub mod types;
pub mod value;
pub mod wire;

pub use bitmap::Bitmap;
pub use chunk::Chunk;
pub use column::ColumnVector;
pub use crc32::crc32;
pub use error::{HyError, Result};
pub use faultfs::{CrashSpec, FaultVfs, KeepUnsynced, StdVfs, Vfs, VfsFile};
pub use faultnet::{FaultNet, NetHandle, NetStream, NetVfs, StdNet};
pub use governor::{CancelToken, Governor, MemoryBudget, Reservation};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use sysview::{
    SlowQueryEntry, SlowQueryLog, SystemView, SystemViewHub, SystemViewProvider, SYSTEM_SCHEMA,
};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, OpSpan, ProfileBuilder, QueryProfile};
pub use types::DataType;
pub use value::Value;
pub use wire::{ErrorCode, Frame};

/// Number of rows an execution-time [`Chunk`] aims for. Chosen so that a
/// handful of `f64` columns stay comfortably inside L1/L2 while amortizing
/// per-chunk dispatch, mirroring vectorized engines.
pub const CHUNK_ROWS: usize = 2048;
