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

#[cfg(test)]
mod tests {
    //! The record layouts the docs show are the `records!` declarations.

    use crate::backup::BackupMeta;
    use crate::segment::{BlockMeta, Header};
    use crate::RedoOp;

    /// The rows of the first markdown table after `heading` in `doc`.
    fn doc_table(doc: &str, heading: &str) -> Vec<Vec<String>> {
        let section = doc.split(heading).nth(1).expect(heading);
        let lines = section.lines().skip_while(|l| !l.starts_with('|'));
        lines
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                l.trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().to_owned())
                    .collect()
            })
            .collect()
    }

    /// `name: Type` fields as `| name | Type |` rows.
    fn field_rows(fields: &[&str]) -> Vec<Vec<String>> {
        let row = |f: &&str| {
            let (name, ty) = f.split_once(": ").expect("name: Type");
            vec![format!("`{name}`"), format!("`{ty}`")]
        };
        fields.iter().map(row).collect()
    }

    #[test]
    fn the_docs_list_every_record_as_declared() {
        let durability = include_str!("../../../docs/DURABILITY.md");
        let ops: Vec<Vec<String>> = RedoOp::TABLE
            .iter()
            .map(|(tag, name, _, fields)| {
                let fields: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
                vec![tag.to_string(), name.to_string(), fields.join(", ")]
            })
            .collect();
        assert_eq!(doc_table(durability, "### Redo ops"), ops);
        let storage = include_str!("../../../docs/STORAGE.md");
        let header = doc_table(storage, "### Segment header");
        assert_eq!(header, field_rows(Header::FIELDS));
        let entry = doc_table(storage, "### Block directory entry");
        assert_eq!(entry, field_rows(BlockMeta::FIELDS));
        let backup = include_str!("../../../docs/BACKUP.md");
        let meta = doc_table(backup, "#### backup.hylite");
        assert_eq!(meta, field_rows(BackupMeta::FIELDS));
    }
}
