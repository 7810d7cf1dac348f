//! Crash recovery: checkpoint load + WAL replay on database open.
//!
//! Procedure (see `docs/DURABILITY.md` for the full walkthrough):
//!
//! 1. Delete any leftover `checkpoint.tmp` — it is scratch from an
//!    interrupted checkpoint; the previous checkpoint is still intact.
//! 2. Load `checkpoint.hylite` if present. A corrupt checkpoint is a
//!    *hard error*: silently starting empty would be data loss.
//! 3. Scan the WAL, replaying valid commit frames in order. Frames with
//!    `lsn < base_lsn` are already inside the checkpoint (the crash
//!    happened between checkpoint publish and WAL truncation) and are
//!    skipped. The first torn or CRC-invalid frame ends the replay; the
//!    tail past it is discarded and the file truncated back to the valid
//!    prefix.
//!
//! Replay is tolerant of redo ops referencing missing tables: DDL is
//! logged at execution time while DML is logged at commit, so a
//! transaction that inserts into a table and then drops it produces an
//! `Insert` frame *after* the `DropTable` frame. Such orphaned ops are
//! counted as skipped, not errors.

use std::path::Path;
use std::sync::Arc;

use hylite_common::faultfs::Vfs;
use hylite_common::{MetricsRegistry, Result};

use crate::catalog::Catalog;
use crate::checkpoint::{install_manifest, CheckpointImage, CHECKPOINT_FILE, CHECKPOINT_TMP_FILE};
use crate::files::open_framed;
use crate::segment::SegmentStore;
use crate::wal::{contiguous_run, scan_wal, RedoOp, WAL_FILE, WAL_HEADER_LEN};

/// What recovery found and did; surfaced by `Database::open` and printed
/// by the server before it accepts connections.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Whether a checkpoint file was loaded.
    pub checkpoint_loaded: bool,
    /// The loaded checkpoint's base LSN (0 without a checkpoint).
    pub base_lsn: u64,
    /// Physical rows restored from the checkpoint.
    pub checkpoint_rows: u64,
    /// WAL commit frames replayed (frames below `base_lsn` not counted).
    pub replayed_records: u64,
    /// Individual redo ops applied during replay.
    pub replayed_ops: u64,
    /// Redo ops skipped (e.g. referencing a table dropped later in the
    /// same WAL).
    pub skipped_ops: u64,
    /// Bytes of torn/corrupt WAL tail discarded.
    pub discarded_bytes: u64,
    /// Segment files deleted because no manifest references them (debris
    /// of a checkpoint or bootstrap interrupted by a crash).
    pub orphan_segments_removed: u64,
    /// Set when a CRC-valid frame did not continue the replay LSN
    /// sequence (`(expected, found)`); the WAL was truncated at the last
    /// contiguous frame. Replication reuses this check: a gap means the
    /// log forked, and replaying past it would silently diverge.
    pub lsn_gap: Option<(u64, u64)>,
    /// CRC-valid commit records dropped by the LSN-gap truncation.
    pub gap_dropped_records: u64,
    /// Highest LSN whose effects are visible after recovery.
    pub recovered_lsn: u64,
    /// The LSN the next commit will receive.
    pub next_lsn: u64,
}

impl RecoveryReport {
    /// One-line human-readable summary (the server logs this).
    pub fn summary(&self) -> String {
        let gap = match self.lsn_gap {
            Some((expected, found)) => format!(
                ", lsn gap at {found} (expected {expected}): {} records dropped",
                self.gap_dropped_records
            ),
            None => String::new(),
        };
        format!(
            "recovered to lsn {} ({} checkpoint rows, {} wal records replayed, {} ops skipped, {} torn bytes discarded{gap})",
            self.recovered_lsn,
            self.checkpoint_rows,
            self.replayed_records,
            self.skipped_ops,
            self.discarded_bytes,
        )
    }
}

/// Apply one redo op; returns `false` if it had to be skipped. The
/// replication apply path reuses this so replicated frames go through
/// exactly the redo machinery recovery uses.
pub(crate) fn apply_op(catalog: &Catalog, op: RedoOp) -> bool {
    match op {
        RedoOp::CreateTable { name, schema } => catalog.create_table(&name, schema).is_ok(),
        RedoOp::DropTable { name } => catalog.drop_table(&name, true).is_ok(),
        RedoOp::Insert { table, rows } => match catalog.get_table(&table) {
            Ok(t) => {
                let mut g = t.write();
                let ok = g.insert_chunk(rows).is_ok();
                if ok {
                    g.commit();
                }
                ok
            }
            Err(_) => false,
        },
        RedoOp::Delete { table, row_ids } => match catalog.get_table(&table) {
            Ok(t) => {
                let mut g = t.write();
                let total = g.total_rows() as u64;
                let ids: Vec<usize> = row_ids
                    .iter()
                    .filter(|&&id| id < total)
                    .map(|&id| id as usize)
                    .collect();
                let complete = ids.len() == row_ids.len();
                if g.delete_rows(&ids).is_ok() {
                    g.commit();
                    complete
                } else {
                    false
                }
            }
            Err(_) => false,
        },
    }
}

/// Run recovery against a data directory: returns the rebuilt catalog
/// and a report. The WAL file is left repaired (truncated to its valid
/// prefix) and ready for appending. Segment files the manifest does not
/// reference (half-written checkpoints, aborted bootstraps) are deleted;
/// the id allocator resumes past every surviving file.
pub fn recover(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    store: &Arc<SegmentStore>,
    metrics: &MetricsRegistry,
) -> Result<(Catalog, RecoveryReport)> {
    vfs.create_dir_all(dir)?;
    let mut report = RecoveryReport::default();
    let catalog = Catalog::new();

    let tmp = dir.join(CHECKPOINT_TMP_FILE);
    if vfs.exists(&tmp) {
        let _ = vfs.remove(&tmp);
    }

    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let mut referenced = std::collections::BTreeSet::new();
    if vfs.exists(&ckpt_path) {
        let bytes = vfs.read(&ckpt_path)?;
        let image: CheckpointImage = open_framed(&bytes)?;
        report.base_lsn = image.base_lsn;
        referenced = image.referenced_segments();
        report.checkpoint_rows = install_manifest(image, &catalog, store)?;
        report.checkpoint_loaded = true;
    }
    // Orphan collection: a crash between segment writes and the manifest
    // rename leaves files no manifest references. Safe to delete — the
    // published manifest is the only root.
    let orphans = store.gc(&referenced)?;
    report.orphan_segments_removed = orphans.len() as u64;
    store.refresh_next_id()?;

    let wal_path = dir.join(WAL_FILE);
    let mut scan = scan_wal(vfs.as_ref(), &wal_path)?;
    if scan.discarded_bytes > 0 {
        vfs.truncate(&wal_path, scan.valid_len)?;
        report.discarded_bytes = scan.discarded_bytes;
        metrics.counter("recovery.torn_frames").inc();
    }
    // LSN-gap check: the frames recovery will replay (lsn >= base_lsn)
    // must form a contiguous sequence starting at the checkpoint's base
    // LSN. CRC catches torn and bit-flipped frames but not a *missing*
    // frame (e.g. a hole left by mixing WAL files from different
    // histories); replaying past a hole would silently produce a state
    // no primary ever had, so the log is cut at the last contiguous
    // frame instead. Frames below base_lsn are inside the checkpoint and
    // never replayed.
    let replayed: Vec<usize> = (0..scan.commits.len())
        .filter(|&i| scan.commits[i].0 >= report.base_lsn)
        .collect();
    let start = report.base_lsn.max(1);
    let run = contiguous_run(start, replayed.iter().map(|&i| scan.commits[i].0));
    if let Some(&i) = replayed.get(run) {
        let keep_len = match i {
            0 => WAL_HEADER_LEN,
            _ => scan.frame_ends[i - 1],
        };
        report.lsn_gap = Some((start + run as u64, scan.commits[i].0));
        report.gap_dropped_records = (scan.commits.len() - i) as u64;
        report.discarded_bytes += scan.valid_len - keep_len;
        vfs.truncate(&wal_path, keep_len)?;
        scan.commits.truncate(i);
    }
    let mut last_lsn = 0u64;
    for (lsn, ops) in scan.commits {
        last_lsn = last_lsn.max(lsn);
        if lsn < report.base_lsn {
            continue; // already inside the checkpoint
        }
        for op in ops {
            if apply_op(&catalog, op) {
                report.replayed_ops += 1;
            } else {
                report.skipped_ops += 1;
            }
        }
        report.replayed_records += 1;
        report.recovered_lsn = lsn;
    }
    report.recovered_lsn = report.recovered_lsn.max(report.base_lsn.saturating_sub(1));
    report.next_lsn = (last_lsn + 1).max(report.base_lsn).max(1);
    metrics
        .counter("recovery.replayed_records")
        .add(report.replayed_records);
    metrics
        .counter("recovery.discarded_bytes")
        .add(report.discarded_bytes);
    Ok((catalog, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::take_checkpoint;
    use crate::pool::BufferPool;
    use crate::wal::{SyncMode, WalWriter};
    use hylite_common::{Chunk, ColumnVector, DataType, FaultVfs, Field, Schema, Value};
    use std::path::PathBuf;

    fn setup() -> (Arc<dyn Vfs>, FaultVfs, PathBuf, Arc<SegmentStore>) {
        let fault = FaultVfs::new();
        let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
        let dir = PathBuf::from("data");
        let store = SegmentStore::open(
            Arc::clone(&vfs),
            &dir,
            std::sync::Arc::new(BufferPool::new(1 << 24, &MetricsRegistry::new())),
        )
        .unwrap();
        (vfs, fault, dir, store)
    }

    /// Seal `catalog` into `store` and publish a manifest at `base_lsn`:
    /// a checkpoint without the WAL side.
    fn publish_manifest(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        store: &Arc<SegmentStore>,
        catalog: &Catalog,
        base_lsn: u64,
    ) {
        let metrics = MetricsRegistry::new();
        take_checkpoint(vfs.as_ref(), dir, store, catalog, base_lsn, &metrics).unwrap();
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int64)])
    }

    fn wal(vfs: &Arc<dyn Vfs>, dir: &Path, next_lsn: u64) -> WalWriter {
        WalWriter::open(
            Arc::clone(vfs),
            dir.join(WAL_FILE),
            SyncMode::Commit,
            1024,
            next_lsn,
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap()
    }

    fn insert(table: &str, v: i64) -> RedoOp {
        RedoOp::Insert {
            table: table.into(),
            rows: Chunk::new(vec![ColumnVector::from_i64(vec![v])]),
        }
    }

    #[test]
    fn empty_dir_recovers_empty() {
        let (vfs, _, dir, store) = setup();
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert!(catalog.table_names().is_empty());
        assert!(!report.checkpoint_loaded);
        assert_eq!(report.next_lsn, 1);
    }

    #[test]
    fn wal_only_replay() {
        let (vfs, _, dir, store) = setup();
        let mut w = wal(&vfs, &dir, 1);
        w.log_commit(&[RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        }])
        .unwrap();
        w.log_commit(&[insert("t", 1), insert("t", 2)]).unwrap();
        w.log_commit(&[RedoOp::Delete {
            table: "t".into(),
            row_ids: vec![0],
        }])
        .unwrap();
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.replayed_ops, 4);
        assert_eq!(report.next_lsn, 4);
        let t = catalog.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 1);
    }

    #[test]
    fn checkpoint_plus_wal_tail() {
        let (vfs, _, dir, store) = setup();
        // Build state, checkpoint it at base_lsn=5, then log more.
        let catalog = Catalog::new();
        let t = catalog.create_table("t", schema()).unwrap();
        {
            let mut g = t.write();
            g.insert_rows(&[vec![Value::Int(10)]]).unwrap();
            g.commit();
        }
        publish_manifest(&vfs, &dir, &store, &catalog, 5);
        let mut w = wal(&vfs, &dir, 1);
        // Frames below base_lsn must be skipped (double-replay guard)...
        w.log_commit(&[insert("t", 999)]).unwrap(); // lsn 1 — pre-checkpoint
                                                    // ...while frames at/after base_lsn replay. Jump the LSN forward
                                                    // as if commits 2..=4 were also checkpointed.
        let mut w = wal(&vfs, &dir, 5);
        w.log_commit(&[insert("t", 20)]).unwrap(); // lsn 5
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.base_lsn, 5);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.next_lsn, 6);
        let t = catalog.get_table("t").unwrap();
        let vals: Vec<i64> = t
            .read()
            .committed_snapshot()
            .live_chunks()
            .unwrap()
            .iter()
            .flat_map(|c| c.rows())
            .map(|r| r.int(0).unwrap())
            .collect();
        assert_eq!(vals, vec![10, 20], "pre-checkpoint frame not re-applied");
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let (vfs, fault, dir, store) = setup();
        let mut w = wal(&vfs, &dir, 1);
        w.log_commit(&[RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        }])
        .unwrap();
        w.log_commit(&[insert("t", 1)]).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let good_len = fault.file_len(&wal_path).unwrap() as u64;
        let mut f = vfs.open_append(&wal_path).unwrap();
        f.write_all(&[0xAB; 13]).unwrap(); // torn garbage tail
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert_eq!(report.discarded_bytes, 13);
        assert_eq!(report.replayed_records, 2);
        assert_eq!(
            fault.file_len(&wal_path).unwrap() as u64,
            good_len,
            "file repaired in place"
        );
        assert_eq!(
            catalog.get_table("t").unwrap().read().committed_live_rows(),
            1
        );
    }

    #[test]
    fn orphaned_ops_are_skipped() {
        let (vfs, _, dir, store) = setup();
        let mut w = wal(&vfs, &dir, 1);
        // DDL logs at execution, DML at commit: INSERT-then-DROP inside
        // one transaction yields Drop before Insert in the WAL.
        w.log_commit(&[RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        }])
        .unwrap();
        w.log_commit(&[RedoOp::DropTable { name: "t".into() }])
            .unwrap();
        w.log_commit(&[insert("t", 1)]).unwrap();
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert!(!catalog.has_table("t"));
        assert_eq!(report.skipped_ops, 1);
    }

    #[test]
    fn lsn_gap_truncates_at_last_contiguous_frame() {
        let (vfs, fault, dir, store) = setup();
        let mut w = wal(&vfs, &dir, 1);
        w.log_commit(&[RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        }])
        .unwrap();
        w.log_commit(&[insert("t", 1)]).unwrap(); // lsn 2
        let wal_path = dir.join(WAL_FILE);
        let good_len = fault.file_len(&wal_path).unwrap() as u64;
        // A CRC-valid frame that skips lsn 3 entirely: a forked history,
        // not a torn tail.
        let mut w = wal(&vfs, &dir, 4);
        w.log_commit(&[insert("t", 99)]).unwrap(); // lsn 4 — gap!
        w.log_commit(&[insert("t", 100)]).unwrap(); // lsn 5 — dropped too
        let (catalog, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert_eq!(report.lsn_gap, Some((3, 4)));
        assert_eq!(report.gap_dropped_records, 2);
        assert_eq!(report.replayed_records, 2);
        assert!(report.discarded_bytes > 0);
        assert_eq!(
            fault.file_len(&wal_path).unwrap() as u64,
            good_len,
            "file truncated at the last contiguous frame"
        );
        assert_eq!(
            catalog.get_table("t").unwrap().read().committed_live_rows(),
            1,
            "post-gap frames were not applied"
        );
        assert!(report.summary().contains("lsn gap"));
        // A second recovery of the repaired file is clean.
        let (_, report2) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert_eq!(report2.lsn_gap, None);
        assert_eq!(report2.next_lsn, 3);
    }

    #[test]
    fn lsn_jump_up_to_base_lsn_is_not_a_gap() {
        // The crash-between-checkpoint-publish-and-truncate shape: frames
        // below base_lsn may end anywhere, and replay starts exactly at
        // base_lsn. That jump is legal; only holes in the *replayed*
        // sequence are divergence.
        let (vfs, _, dir, store) = setup();
        let catalog = Catalog::new();
        let t = catalog.create_table("t", schema()).unwrap();
        {
            let mut g = t.write();
            g.insert_rows(&[vec![Value::Int(10)]]).unwrap();
            g.commit();
        }
        publish_manifest(&vfs, &dir, &store, &catalog, 5);
        let mut w = wal(&vfs, &dir, 1);
        w.log_commit(&[insert("t", 999)]).unwrap(); // lsn 1 — pre-checkpoint
        let mut w = wal(&vfs, &dir, 5);
        w.log_commit(&[insert("t", 20)]).unwrap(); // lsn 5 == base_lsn
        let (_, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert_eq!(report.lsn_gap, None);
        assert_eq!(report.replayed_records, 1);
    }

    #[test]
    fn leftover_tmp_checkpoint_is_removed() {
        let (vfs, _, dir, store) = setup();
        let tmp = dir.join(CHECKPOINT_TMP_FILE);
        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"half-written checkpoint").unwrap();
        drop(f);
        let (_, report) = recover(&vfs, &dir, &store, &MetricsRegistry::new()).unwrap();
        assert!(!vfs.exists(&tmp));
        assert!(!report.checkpoint_loaded);
    }

    #[test]
    fn corrupt_checkpoint_is_fatal() {
        let (vfs, fault, dir, store) = setup();
        let catalog = Catalog::new();
        catalog.create_table("t", schema()).unwrap();
        publish_manifest(&vfs, &dir, &store, &catalog, 1);
        fault.corrupt(&dir.join(CHECKPOINT_FILE), 10, 0x80).unwrap();
        assert!(recover(&vfs, &dir, &store, &MetricsRegistry::new()).is_err());
    }
}
