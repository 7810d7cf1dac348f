//! Main-memory column-store storage engine.
//!
//! Tables are append-only sequences of immutable columnar *segments*
//! (shared via `Arc`) plus a delete bitmap, which makes snapshotting a
//! long-running analytical query O(#segments): the snapshot bumps the
//! segment `Arc`s and copies the (bit-packed) delete mask, after which
//! concurrent OLTP inserts/deletes never disturb the reader — the paper's
//! "analytics in a fully transactional environment" property, reproduced
//! as snapshot isolation for readers with single-writer transactions.
//!
//! * [`Table`] — schema + segments + delete bitmap + commit watermarks.
//! * [`TableSnapshot`] — a stable view; splits into morsels for parallel
//!   scans.
//! * [`Catalog`] — name → table map.
//! * [`Transaction`] — undo-based rollback over the touched tables.

pub mod archive;
pub mod backup;
pub mod catalog;
pub mod checkpoint;
pub mod durability;
pub mod files;
pub mod pool;
pub mod recovery;
pub mod repl;
pub mod segment;
pub mod snapshot;
pub mod table;
pub mod transaction;
pub mod wal;
pub mod writer;

pub use archive::WalArchive;
pub use backup::{restore_backup, BackupMeta, BackupSummary, RestoreSummary};
pub use catalog::Catalog;
pub use checkpoint::{CheckpointImage, CheckpointStats};
pub use durability::{Durability, DurabilityOptions, ReplTail, CRASH_POINTS};
pub use pool::{BufferPool, PoolStats};
pub use recovery::RecoveryReport;
pub use repl::{ReplRole, ReplState};
pub use segment::{DiskSegment, SegmentStore, ZoneRange, BLOCK_ROWS, SEGMENT_DIR};
pub use snapshot::{Morsel, ScanPruning, SegmentHandle, TableSnapshot};
pub use table::{Table, TableRef, SEGMENT_ROWS};
pub use transaction::Transaction;
pub use wal::{RawFrame, RedoOp, SyncMode, WalWriter};
pub use writer::{WriterGate, WriterGuard};
