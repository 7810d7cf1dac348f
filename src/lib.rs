//! # HyLite
//!
//! A relational main-memory database with SQL- and operator-centric data
//! analytics — a from-scratch Rust reproduction of *"SQL- and
//! Operator-centric Data Analytics in Relational Main-Memory Databases"*
//! (EDBT 2017, HyPer group).
//!
//! This root crate is the public facade: it re-exports the engine API
//! ([`Database`], [`QueryResult`]) plus the building-block crates for users
//! who want to embed individual subsystems (storage, planner, analytics
//! operators, graph substrate, data generators, baseline simulations).
//!
//! ## Quickstart
//!
//! ```
//! use hylite::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
//! db.execute("INSERT INTO pts VALUES (0.0, 0.0), (0.1, 0.2), (9.0, 9.1), (9.2, 8.9)")
//!     .unwrap();
//! let centers = db
//!     .execute(
//!         "SELECT * FROM KMEANS((SELECT x, y FROM pts), \
//!          (SELECT x, y FROM pts LIMIT 2), \
//!          LAMBDA(a, b) (a.x-b.x)^2 + (a.y-b.y)^2, 10)",
//!     )
//!     .unwrap();
//! assert_eq!(centers.row_count(), 2);
//! ```

pub use hylite_core::{Database, QueryResult, Rules, Session, SessionSettings};

/// Physical analytics operators: k-Means, Naive Bayes, PageRank.
pub use hylite_analytics as analytics;
/// Comparator system simulations (single-threaded, UDF, dataflow).
pub use hylite_baselines as baselines;
/// Blocking wire-protocol client and the `hylite-cli` REPL.
pub use hylite_client as client;
/// Shared type system: values, chunks, schemas, errors.
pub use hylite_common as common;
/// Synthetic dataset generators for the evaluation grid.
pub use hylite_datagen as datagen;
/// Physical relational operators, recursive CTE and ITERATE.
pub use hylite_exec as exec;
/// Vectorized expressions and SQL lambda expressions.
pub use hylite_expr as expr;
/// CSR graphs and LDBC-like graph generation.
pub use hylite_graph as graph;
/// Binder, logical plans and optimizer.
pub use hylite_planner as planner;
/// TCP server exposing the engine over the binary frame protocol.
pub use hylite_server as server;
/// SQL tokenizer/parser with ITERATE and analytics extensions.
pub use hylite_sql as sql;
/// Main-memory column store with snapshot versioning.
pub use hylite_storage as storage;

pub use hylite_common::{CancelToken, Governor, MemoryBudget};
pub use hylite_common::{
    Chunk, ColumnVector, DataType, Field, HyError, Result, Row, Schema, Value,
};
pub use hylite_common::{MetricsRegistry, MetricsSnapshot, QueryProfile};

pub use hylite_client::{CancelHandle, HyliteClient, RemoteResult};
pub use hylite_common::wire::{ErrorCode, Frame, PROTOCOL_VERSION};
pub use hylite_server::{Server, ServerConfig, ServerHandle};
