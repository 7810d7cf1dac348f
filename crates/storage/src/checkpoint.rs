//! Checkpoints: a small *manifest* naming the sealed segment files that
//! hold every table's committed state, published atomically so the WAL
//! can be truncated.
//!
//! ## Manifest layout (v2)
//!
//! ```text
//! [u32 magic "HYCK"] [u32 version] [u64 base_lsn]
//! [u32 ntables]
//! per table:
//!     [str name] [schema]
//!     [u32 nsegments] [(u64 segment_id, u64 rows) ...]   -- in row-id order
//!     [u64 row_limit]                    -- committed row horizon
//!     [u64 ndeleted] [u64 row_id ...]    -- committed delete marks
//! [u32 crc32(everything above)]
//! ```
//!
//! — [`CheckpointImage`] and its [`TableManifest`]s, declared once with
//! `records!` and sealed in the shared envelope
//! ([`crate::files::seal_framed`]).
//!
//! Row data lives in the segment files the manifest points at (see
//! [`crate::segment`]); the manifest itself is a few hundred bytes. That
//! makes checkpoints *incremental*: a checkpoint seals only rows that are
//! not yet in a sealed segment — segments already on disk are simply
//! re-listed by id — so a small delta costs a small write regardless of
//! database size. (v1 serialized every committed row into one monolithic
//! file on every checkpoint; this build is pre-1.0 and reads only v2.)
//!
//! Segments are sealed exactly as the rows sit in memory — *including*
//! delete-marked rows — because global row ids are positional: dropping
//! dead rows here would renumber the survivors and break any later WAL
//! `Delete` frame that refers to them. Space reclamation stays where it
//! already lives (`Table::compact`).
//!
//! ## Publish protocol
//!
//! The checkpointer writes all new segment files and fsyncs them and the
//! segment directory, then publishes the manifest with
//! [`crate::files::publish_atomic`] (`checkpoint.tmp` written and fsynced,
//! renamed over `checkpoint.hylite`, the directory fsynced on both sides
//! of the rename), and only then deletes unreferenced segment files and
//! truncates the WAL. Every step is crash-safe:
//!
//! * crash while writing segments — the old manifest never references
//!   the new files; recovery deletes them as orphans.
//! * crash before the rename — the old manifest + full WAL still recover
//!   everything; the leftover tmp file is deleted on open.
//! * crash after the rename, before the WAL truncate — the new manifest
//!   carries `base_lsn`, and recovery skips WAL frames below it, so
//!   nothing is replayed twice.
//!
//! The manifest carries `base_lsn` = the LSN the *next* commit would
//! get; every commit with `lsn < base_lsn` is inside the checkpoint.
//!
//! This module owns the whole procedure below the WAL — the seal phase,
//! the manifest publish, the swap of sealed handles into the tables,
//! segment GC and compaction ([`take_checkpoint`]) — and [`seal`], the one
//! loop that writes segment files. The caller holds the commit lock,
//! flushes the WAL before and truncates (and archives) it after.
//!
//! ## Compaction
//!
//! After the GC, a quiescent table whose committed rows are at least
//! [`COMPACT_DEAD_FRACTION`] dead has its live rows sealed into fresh
//! segments, its entry in the manifest list the seal phase published
//! replaced, and that list republished at the same `base_lsn`; only then
//! does memory switch to the compacted rows and the old files go. A crash
//! in between leaves the previous manifest and orphan files recovery
//! deletes.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

use hylite_common::codec::{Bytes, List};
use hylite_common::faultfs::Vfs;
use hylite_common::{records, Chunk, HyError, MetricsRegistry, Result, Schema};
use parking_lot::RwLock;

use crate::catalog::Catalog;
use crate::files::{open_framed, publish_atomic, seal_framed, Sealed, Signature};
use crate::segment::{copy_segment_bytes, rebrand_segment_bytes, DiskSegment, SegmentStore};
use crate::snapshot::{SegmentHandle, TableSnapshot};
use crate::table::{Table, SEGMENT_ROWS};

/// File name of the current checkpoint inside the data directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.hylite";
/// Scratch name [`publish_atomic`] writes the checkpoint to before the
/// rename ([`CHECKPOINT_FILE`] with a `.tmp` extension); recovery deletes
/// a leftover one.
pub const CHECKPOINT_TMP_FILE: &str = "checkpoint.tmp";

/// Crash point: before the checkpoint temp file is written.
pub const CP_CKPT_WRITE: &str = "checkpoint.write";
/// Crash point: temp file durable, rename not yet done.
pub const CP_CKPT_RENAME: &str = "checkpoint.rename";
/// Crash point: checkpoint published, WAL not yet truncated.
pub const CP_CKPT_AFTER_RENAME: &str = "checkpoint.after_rename";
/// Crash point: before each new segment file is written (some of the
/// checkpoint's segments may exist on disk, the manifest does not).
pub const CP_SEG_WRITE: &str = "checkpoint.segment_write";
/// Compaction threshold: a quiescent table whose committed rows are dead
/// beyond this fraction is rewritten without its dead rows.
pub const COMPACT_DEAD_FRACTION: f64 = 0.3;

/// Outcome of one checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStats {
    /// Tables captured.
    pub tables: usize,
    /// Bytes of the published manifest file.
    pub bytes: u64,
    /// The checkpoint's base LSN.
    pub base_lsn: u64,
    /// Wall-clock duration in milliseconds.
    pub duration_ms: u64,
    /// Segment files newly sealed by this checkpoint. Zero when nothing
    /// changed since the last one — the incremental-checkpoint property.
    pub segments_sealed: usize,
    /// Bytes of the newly sealed segment files (compressed, on disk).
    pub segment_bytes: u64,
    /// Uncompressed bytes of the rows sealed into new segments.
    pub sealed_raw_bytes: u64,
}

records! {
    /// Decoded checkpoint manifest, ready to install into a fresh catalog.
    #[derive(Debug)]
    pub struct CheckpointImage {
        /// WAL frames with `lsn < base_lsn` are contained in this image.
        pub base_lsn: u64,
        /// Per-table manifests.
        pub tables: Vec<TableManifest> as List<u32>,
    }
}

/// v2 = segment manifest.
impl Sealed for CheckpointImage {
    const SIGNATURE: Signature = Signature::new(b"HYCK", 2, "checkpoint manifest");
}

records! {
    /// One table inside a [`CheckpointImage`].
    #[derive(Debug)]
    pub struct TableManifest {
        /// Table name.
        pub name: String,
        /// Column definitions.
        pub schema: Schema,
        /// `(segment id, rows)` in row-id order (deleted rows included).
        pub segments: Vec<(u64, u64)> as List<u32>,
        /// Committed row horizon; must equal the summed segment rows.
        pub row_limit: u64,
        /// Global row ids carrying a committed delete mark.
        pub deleted: Vec<u64> as List<u64>,
    }
}

impl TableManifest {
    /// The entry of table `name`: schema, row horizon and delete marks of
    /// its committed snapshot `snap`, whose rows `sealed` holds in row-id
    /// order.
    pub fn of(name: String, snap: &TableSnapshot, sealed: &[Arc<DiskSegment>]) -> TableManifest {
        let row_limit = snap.visible_rows() as u64;
        TableManifest {
            name,
            schema: snap.schema().as_ref().clone(),
            segments: sealed.iter().map(|d| (d.id(), d.rows() as u64)).collect(),
            row_limit,
            deleted: snap
                .deleted()
                .iter_ones()
                .map(|i| i as u64)
                .take_while(|&i| i < row_limit)
                .collect(),
        }
    }
}

impl CheckpointImage {
    /// Every segment id any table references, ascending.
    pub fn referenced_segments(&self) -> BTreeSet<u64> {
        self.tables
            .iter()
            .flat_map(|t| t.segments.iter().map(|&(id, _)| id))
            .collect()
    }
}

/// Seal `rows` into new segment files of at most [`SEGMENT_ROWS`] rows
/// each and open them — the one loop that writes segments, with the
/// [`CP_SEG_WRITE`] crash point before every write. Counts what it wrote
/// into `stats`. The caller syncs the segment directory before a manifest
/// names the files.
pub fn seal(
    vfs: &dyn Vfs,
    store: &Arc<SegmentStore>,
    rows: &Chunk,
    stats: &mut CheckpointStats,
) -> Result<Vec<Arc<DiskSegment>>> {
    let mut sealed = Vec::with_capacity(rows.len().div_ceil(SEGMENT_ROWS));
    for offset in (0..rows.len()).step_by(SEGMENT_ROWS) {
        let chunk = rows.slice(offset, (rows.len() - offset).min(SEGMENT_ROWS));
        vfs.crash_point(CP_SEG_WRITE)?;
        let id = store.alloc_id();
        stats.segment_bytes += store.write_segment(id, &chunk)?;
        stats.sealed_raw_bytes += chunk.heap_bytes() as u64;
        stats.segments_sealed += 1;
        sealed.push(store.open_segment(id)?);
    }
    Ok(sealed)
}

/// Everything of a checkpoint at `base_lsn` below the WAL: seal each
/// table's resident committed rows, publish the manifest, swap the sealed
/// handles into the tables, collect unreferenced segment files, then
/// compact. The caller holds the commit lock (no commit can land between
/// choosing `base_lsn` and the snapshots) and has flushed the WAL.
/// Incremental by construction: segments sealed by earlier checkpoints
/// are re-listed by id, not rewritten.
pub fn take_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    store: &Arc<SegmentStore>,
    catalog: &Catalog,
    base_lsn: u64,
    metrics: &MetricsRegistry,
) -> Result<CheckpointStats> {
    let mut stats = CheckpointStats {
        base_lsn,
        ..CheckpointStats::default()
    };
    let mut image = CheckpointImage {
        base_lsn,
        tables: Vec::new(),
    };
    let mut swaps = Vec::new();
    for name in catalog.table_names() {
        let Ok(table) = catalog.get_table(&name) else {
            continue;
        };
        let snap = table.read().committed_snapshot();
        // Already sealed and immutable: re-list, zero I/O. Everything from
        // the first resident segment on is resealed with it (keeps the
        // disk-prefix invariant).
        let mut sealed: Vec<Arc<DiskSegment>> = snap
            .segments()
            .iter()
            .map_while(|seg| match seg {
                SegmentHandle::Disk(d) => Some(Arc::clone(d)),
                SegmentHandle::Resident(_) => None,
            })
            .collect();
        let resident = snap.segments()[sealed.len()..]
            .iter()
            .map(SegmentHandle::to_chunk)
            .collect::<Result<Vec<_>>>()?;
        let delta = Chunk::concat(&snap.schema().types(), &resident)?;
        sealed.extend(seal(vfs, store, &delta, &mut stats)?);
        image.tables.push(TableManifest::of(name, &snap, &sealed));
        swaps.push((table, sealed));
    }
    if stats.segments_sealed > 0 {
        store.sync_dir()?;
    }
    let data = seal_framed(&image);
    publish_checkpoint(vfs, dir, &data)?;
    stats.tables = image.tables.len();
    stats.bytes = data.len() as u64;

    // The manifest is live: swap each table's committed prefix to the
    // sealed handles so resident memory is released, then collect segment
    // files no manifest references any more. Both are safe under the
    // commit lock — the swapped data is bit-identical and open snapshots
    // hold their own handles (GC spares live files).
    for (table, sealed) in swaps {
        let handles = sealed.into_iter().map(SegmentHandle::Disk).collect();
        table.write().swap_sealed_prefix(handles)?;
    }
    store.gc(&image.referenced_segments())?;
    compact(vfs, dir, store, catalog, &mut image, metrics)?;
    Ok(stats)
}

/// The compaction pass (see the module docs). Each table's write lock is
/// held from the quiescence check through the in-memory install:
/// everything fallible (segment writes, manifest publish) happens first,
/// and only once the manifest is durably the truth does the infallible
/// [`Table::install_compacted`] renumber rows in memory.
fn compact(
    vfs: &dyn Vfs,
    dir: &Path,
    store: &Arc<SegmentStore>,
    catalog: &Catalog,
    image: &mut CheckpointImage,
    metrics: &MetricsRegistry,
) -> Result<()> {
    for i in 0..image.tables.len() {
        let Ok(table) = catalog.get_table(&image.tables[i].name) else {
            continue;
        };
        let mut g = table.write();
        // Compaction renumbers rows: never under a transaction's staged
        // rows or deletes, which address the old row ids.
        if !g.is_quiescent() || g.dead_fraction() < COMPACT_DEAD_FRACTION {
            continue;
        }
        let snap = g.committed_snapshot();
        let dead_rows = snap.deleted().iter_ones().count() as u64;
        let live = Chunk::concat(&snap.schema().types(), &snap.live_chunks()?)?;
        let sealed = seal(vfs, store, &live, &mut CheckpointStats::default())?;
        store.sync_dir()?;
        image.tables[i] = TableManifest {
            row_limit: live.len() as u64,
            deleted: Vec::new(),
            ..TableManifest::of(image.tables[i].name.clone(), &snap, &sealed)
        };
        publish_checkpoint(vfs, dir, &seal_framed(&*image))?;
        g.install_compacted(sealed.into_iter().map(SegmentHandle::Disk).collect());
        drop(g);
        store.gc(&image.referenced_segments())?;
        metrics.counter("compaction.count").inc();
        metrics.counter("compaction.rows_dropped").add(dead_rows);
    }
    Ok(())
}

/// Rebuild tables from a manifest into `catalog` (expected empty),
/// opening each referenced segment through `store` — headers only, no
/// row data is loaded. Returns the number of rows restored (deleted rows
/// included).
pub fn install_manifest(
    image: CheckpointImage,
    catalog: &Catalog,
    store: &std::sync::Arc<SegmentStore>,
) -> Result<u64> {
    let mut rows = 0u64;
    for t in image.tables {
        let mut handles = Vec::with_capacity(t.segments.len());
        for &(id, seg_rows) in &t.segments {
            let seg = store.open_segment(id)?;
            if seg.rows() as u64 != seg_rows {
                return Err(HyError::Storage(format!(
                    "checkpoint table '{}': segment {id} holds {} rows but the \
                     manifest declares {seg_rows}",
                    t.name,
                    seg.rows()
                )));
            }
            handles.push(SegmentHandle::Disk(seg));
        }
        let row_limit = usize::try_from(t.row_limit).map_err(|_| {
            HyError::Storage(format!(
                "checkpoint table '{}': row limit {} too large",
                t.name, t.row_limit
            ))
        })?;
        let table = Table::from_parts(&t.name, t.schema, handles, row_limit, &t.deleted)?;
        catalog.restore_table(std::sync::Arc::new(RwLock::new(table)));
        rows += t.row_limit;
    }
    Ok(rows)
}

records! {
    /// A manifest plus the segment files it references, in one blob — the
    /// replica-bootstrap payload (ships over the existing single-blob
    /// `SnapshotOffer` wire frame).
    #[derive(Debug)]
    pub struct BootstrapBundle {
        /// The segment files.
        pub segments: Vec<ShippedSegment> as List<u32>,
        /// The sealed manifest.
        pub manifest: Vec<u8> as Bytes<u64>,
    }
}

impl Sealed for BootstrapBundle {
    const SIGNATURE: Signature = Signature::new(b"HYBS", 1, "bootstrap bundle");
}

records! {
    /// One segment file inside a [`BootstrapBundle`].
    #[derive(Debug)]
    pub struct ShippedSegment {
        /// The segment's id on the primary.
        pub id: u64,
        /// The file's bytes.
        pub bytes: Vec<u8> as Bytes<u64>,
    }
}

/// Install a bootstrap bundle's files: write its segment files under ids
/// allocated from `store` (a fresh id never collides with this
/// directory's own files; a crash part-way leaves only orphans the next
/// recovery deletes), then publish its manifest, remapped to those ids,
/// as this directory's checkpoint. Returns the remapped image.
pub fn publish_bundle(
    vfs: &dyn Vfs,
    dir: &Path,
    store: &SegmentStore,
    data: &[u8],
) -> Result<CheckpointImage> {
    let bundle: BootstrapBundle = open_framed(data)?;
    let mut image: CheckpointImage = open_framed(&bundle.manifest)?;
    let mut remap = HashMap::with_capacity(bundle.segments.len());
    for ShippedSegment { id, mut bytes } in bundle.segments {
        let local_id = store.alloc_id();
        rebrand_segment_bytes(&mut bytes, local_id)?;
        copy_segment_bytes(vfs, store.dir(), local_id, &bytes)?;
        remap.insert(id, local_id);
    }
    for seg in image.tables.iter_mut().flat_map(|t| &mut t.segments) {
        seg.0 = *remap.get(&seg.0).ok_or_else(|| {
            HyError::Storage(format!(
                "bootstrap manifest references segment {} the bundle does not ship",
                seg.0
            ))
        })?;
    }
    store.sync_dir()?;
    publish_checkpoint(vfs, dir, &seal_framed(&image))?;
    Ok(image)
}

/// Publish manifest bytes as the directory's checkpoint (see
/// [`publish_atomic`]). The segment files the manifest references must
/// already be durable (the sealing pass syncs them and their directory).
/// The WAL truncation that completes the checkpoint is the caller's job
/// (it owns the WAL writer).
pub fn publish_checkpoint(vfs: &dyn Vfs, dir: &Path, data: &[u8]) -> Result<()> {
    let crash_points = [
        Some(CP_CKPT_WRITE),
        Some(CP_CKPT_RENAME),
        Some(CP_CKPT_AFTER_RENAME),
    ];
    publish_atomic(vfs, dir, CHECKPOINT_FILE, data, crash_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use hylite_common::codec::{put_u32, put_u64};
    use hylite_common::{crc32, DataType, FaultVfs, Field, Value};
    use std::path::PathBuf;

    fn encode_manifest(base_lsn: u64, tables: Vec<TableManifest>) -> Vec<u8> {
        seal_framed(&CheckpointImage { base_lsn, tables })
    }

    fn decode_manifest(bytes: &[u8]) -> Result<CheckpointImage> {
        open_framed(bytes)
    }

    fn catalog_with_data() -> Catalog {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "t",
                Schema::new(vec![
                    Field::new("id", DataType::Int64),
                    Field::new("name", DataType::Varchar),
                ]),
            )
            .unwrap();
        let mut g = t.write();
        g.insert_rows(&[
            vec![Value::Int(1), Value::from("a")],
            vec![Value::Int(2), Value::from("b")],
            vec![Value::Int(3), Value::from("c")],
        ])
        .unwrap();
        g.delete_rows(&[1]).unwrap();
        g.commit();
        drop(g);
        cat.create_table("empty", Schema::new(vec![Field::new("x", DataType::Bool)]))
            .unwrap();
        cat
    }

    fn test_store(vfs: &FaultVfs) -> Arc<SegmentStore> {
        SegmentStore::open(
            Arc::new(vfs.clone()),
            &PathBuf::from("data"),
            Arc::new(BufferPool::new(1 << 24, &MetricsRegistry::new())),
        )
        .unwrap()
    }

    /// Seal every table of `cat` into `store` and return the manifests —
    /// the seal phase of [`take_checkpoint`], without publish or swap.
    fn seal_catalog(
        vfs: &FaultVfs,
        cat: &Catalog,
        store: &Arc<SegmentStore>,
    ) -> Vec<TableManifest> {
        let mut tables = Vec::new();
        for name in cat.table_names() {
            let snap = cat.get_table(&name).unwrap().read().committed_snapshot();
            let rows: Vec<Chunk> = snap
                .segments()
                .iter()
                .map(|s| s.to_chunk().unwrap())
                .collect();
            let rows = Chunk::concat(&snap.schema().types(), &rows).unwrap();
            let sealed = seal(vfs, store, &rows, &mut CheckpointStats::default()).unwrap();
            tables.push(TableManifest::of(name, &snap, &sealed));
        }
        tables
    }

    #[test]
    fn encode_install_roundtrip() {
        let vfs = FaultVfs::new();
        let store = test_store(&vfs);
        let cat = catalog_with_data();
        let tables = seal_catalog(&vfs, &cat, &store);
        let bytes = encode_manifest(42, tables);
        let image = decode_manifest(&bytes).unwrap();
        assert_eq!(image.base_lsn, 42);
        let restored = Catalog::new();
        let rows = install_manifest(image, &restored, &store).unwrap();
        assert_eq!(rows, 3, "physical rows include the deleted one");
        assert_eq!(restored.table_names(), vec!["empty", "t"]);
        let t = restored.get_table("t").unwrap();
        let g = t.read();
        assert_eq!(g.total_rows(), 3);
        assert_eq!(g.committed_live_rows(), 2, "delete mark restored");
        // Row ids are positional and must be stable: row 2 is still id=3.
        assert_eq!(g.row(2).unwrap().int(0).unwrap(), 3);
    }

    #[test]
    fn manifest_is_small_regardless_of_rows() {
        let vfs = FaultVfs::new();
        let store = test_store(&vfs);
        let cat = Catalog::new();
        let t = cat
            .create_table("big", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        {
            let mut g = t.write();
            let rows: Vec<Vec<Value>> = (0..10_000).map(|i| vec![Value::Int(i)]).collect();
            g.insert_rows(&rows).unwrap();
            g.commit();
        }
        let tables = seal_catalog(&vfs, &cat, &store);
        let bytes = encode_manifest(1, tables);
        assert!(
            bytes.len() < 256,
            "manifest is {} bytes — it must not scale with row count",
            bytes.len()
        );
    }

    #[test]
    fn rows_mismatch_is_rejected_at_install() {
        let vfs = FaultVfs::new();
        let store = test_store(&vfs);
        let cat = catalog_with_data();
        let mut tables = seal_catalog(&vfs, &cat, &store);
        for t in &mut tables {
            for seg in &mut t.segments {
                seg.1 += 1; // lie about the row count
            }
        }
        let image = decode_manifest(&encode_manifest(1, tables)).unwrap();
        assert!(install_manifest(image, &Catalog::new(), &store).is_err());
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let bytes = encode_manifest(1, Vec::new());
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(decode_manifest(&bad).is_err());
        assert!(decode_manifest(&[1, 2, 3]).is_err());
        assert!(decode_manifest(&[]).is_err());
        // v1 monolithic checkpoints are not readable by this build.
        let mut v1 = Vec::new();
        put_u32(&mut v1, u32::from_be_bytes(*b"HYCK"));
        put_u32(&mut v1, 1);
        put_u64(&mut v1, 7);
        put_u32(&mut v1, 0);
        let crc = crc32(&v1);
        put_u32(&mut v1, crc);
        let err = decode_manifest(&v1).unwrap_err();
        assert!(err.message().contains("version"), "{err}");
    }
}
