//! Stable table snapshots and morsel-wise parallel scan support.

use std::sync::Arc;

use hylite_common::{Bitmap, Chunk, ColumnVector, HyError, Result, Schema};

use crate::segment::{DiskSegment, ZoneRange, BLOCK_ROWS};

/// One table segment: either resident in memory (the write path and
/// not-yet-checkpointed data) or sealed on disk and read block-by-block
/// through the buffer pool. A table is always a disk-backed prefix
/// followed by a resident tail.
#[derive(Debug, Clone)]
pub enum SegmentHandle {
    /// Rows held in memory.
    Resident(Arc<Chunk>),
    /// Rows in a sealed segment file.
    Disk(Arc<DiskSegment>),
}

impl SegmentHandle {
    /// Rows in this segment.
    pub fn len(&self) -> usize {
        match self {
            SegmentHandle::Resident(c) => c.len(),
            SegmentHandle::Disk(s) => s.rows(),
        }
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize rows `[offset, offset+len)`, optionally projected to
    /// `cols`. Resident whole-segment reads are zero-copy (`Arc` clones);
    /// disk reads go through the buffer pool.
    pub fn read_rows(&self, offset: usize, len: usize, cols: Option<&[usize]>) -> Result<Chunk> {
        match self {
            SegmentHandle::Resident(chunk) => {
                if offset + len > chunk.len() {
                    return Err(HyError::Storage(format!(
                        "segment read [{offset}, +{len}) out of range ({} rows)",
                        chunk.len()
                    )));
                }
                match cols {
                    None => Ok(if offset == 0 && len == chunk.len() {
                        chunk.as_ref().clone()
                    } else {
                        chunk.slice(offset, len)
                    }),
                    Some([]) => Ok(Chunk::zero_column(len)),
                    Some(ids) => {
                        let full = offset == 0 && len == chunk.len();
                        let mut out: Vec<Arc<ColumnVector>> = Vec::with_capacity(ids.len());
                        for &c in ids {
                            if c >= chunk.num_columns() {
                                return Err(HyError::Storage(format!("segment has no column {c}")));
                            }
                            let col = &chunk.columns()[c];
                            out.push(if full {
                                Arc::clone(col)
                            } else {
                                Arc::new(col.slice(offset, len))
                            });
                        }
                        Ok(Chunk::from_arc_columns(out))
                    }
                }
            }
            SegmentHandle::Disk(seg) => seg.read_rows(offset, len, cols),
        }
    }

    /// Materialize the whole segment.
    pub fn to_chunk(&self) -> Result<Chunk> {
        self.read_rows(0, self.len(), None)
    }
}

/// Block- and row-skipping counters for one scan (EXPLAIN ANALYZE
/// surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanPruning {
    /// Blocks whose data the scan will read.
    pub blocks_scanned: usize,
    /// Blocks skipped because their zone maps exclude the predicate.
    pub blocks_pruned: usize,
    /// Of the scanned blocks, those the predicate evaluated on the
    /// encoded data left no row of.
    pub blocks_skipped_encoded: usize,
    /// Rows storage materialized: the live rows the encoded-data
    /// predicate selected (all live rows of the scanned blocks without
    /// one).
    pub rows_selected: usize,
}

/// A consistent view of a table at a point in time.
///
/// Holds handles to the segments it covers plus its own copy of the
/// delete mask, so later table mutations (and even
/// [`crate::Table::compact`]) cannot disturb a running scan. Disk-backed
/// segments stay open (their files survive GC) for the snapshot's
/// lifetime.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    schema: Arc<Schema>,
    segments: Vec<SegmentHandle>,
    /// Visible row-id horizon; rows at or past this id are invisible even
    /// if the last covered segment extends further.
    row_limit: usize,
    deleted: Bitmap,
}

/// One unit of parallel scan work: a slice of one segment.
#[derive(Debug, Clone)]
pub struct Morsel {
    /// Index into the snapshot's segment list.
    pub segment: usize,
    /// Row offset within the segment.
    pub offset: usize,
    /// Number of rows in this morsel.
    pub len: usize,
    /// Global row id of the first row (segment base + offset).
    pub base_row_id: usize,
}

impl TableSnapshot {
    /// Build a snapshot (used by [`crate::Table`]).
    pub fn new(
        schema: Arc<Schema>,
        segments: Vec<SegmentHandle>,
        row_limit: usize,
        deleted: Bitmap,
    ) -> TableSnapshot {
        TableSnapshot {
            schema,
            segments,
            row_limit,
            deleted,
        }
    }

    /// Snapshot of a free-standing chunk (used for intermediate results
    /// that flow through scan-like operators).
    pub fn from_chunk(schema: Arc<Schema>, chunk: Chunk) -> TableSnapshot {
        let n = chunk.len();
        TableSnapshot {
            schema,
            segments: vec![SegmentHandle::Resident(Arc::new(chunk))],
            row_limit: n,
            deleted: Bitmap::filled(n, false),
        }
    }

    /// The snapshot's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of covered segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The covered segments in row-id order.
    pub fn segments(&self) -> &[SegmentHandle] {
        &self.segments
    }

    /// The delete mask (checkpoint serialization).
    pub fn deleted(&self) -> &Bitmap {
        &self.deleted
    }

    /// Visible row horizon (includes deleted rows).
    pub fn visible_rows(&self) -> usize {
        self.row_limit
    }

    /// Live (visible and not deleted) rows.
    pub fn live_rows(&self) -> usize {
        let dead = self
            .deleted
            .iter_ones()
            .take_while(|&i| i < self.row_limit)
            .count();
        self.row_limit - dead
    }

    /// Whether the global row id is live in this snapshot.
    pub fn is_live(&self, row_id: usize) -> bool {
        row_id < self.row_limit && !self.is_deleted(row_id)
    }

    /// Split the snapshot into morsels of at most `morsel_rows` rows,
    /// respecting segment boundaries.
    pub fn morsels(&self, morsel_rows: usize) -> Vec<Morsel> {
        self.pruned_morsels(morsel_rows, &[]).0
    }

    /// Split the snapshot into morsels, skipping disk blocks whose zone
    /// maps prove no row can satisfy every range in `ranges` (ANDed).
    /// Resident segments cannot be pruned (no zone maps) and count all
    /// their blocks as scanned. With empty `ranges` this degenerates to
    /// [`TableSnapshot::morsels`].
    pub fn pruned_morsels(
        &self,
        morsel_rows: usize,
        ranges: &[ZoneRange],
    ) -> (Vec<Morsel>, ScanPruning) {
        assert!(morsel_rows > 0, "morsel size must be positive");
        let mut out = Vec::new();
        let mut pruning = ScanPruning::default();
        let mut base = 0usize;
        for (si, seg) in self.segments.iter().enumerate() {
            if base >= self.row_limit {
                break;
            }
            let seg_visible = seg.len().min(self.row_limit - base);
            let disk = match seg {
                SegmentHandle::Disk(d) if !ranges.is_empty() => Some(d),
                _ => None,
            };
            match disk {
                None => {
                    pruning.blocks_scanned += seg_visible.div_ceil(BLOCK_ROWS);
                    push_morsels(&mut out, si, 0, seg_visible, base, morsel_rows);
                }
                Some(d) => {
                    let meta = d.meta();
                    // Walk blocks, merging contiguous survivors into runs
                    // so morsels still amortize per-morsel overhead.
                    let mut run_start: Option<usize> = None;
                    let nblocks = meta.nblocks();
                    for blk in 0..nblocks {
                        let blk_start = blk * BLOCK_ROWS;
                        if blk_start >= seg_visible {
                            break;
                        }
                        let keep = ranges.iter().all(|r| {
                            meta.blocks
                                .get(r.col)
                                .map(|col_blocks| col_blocks[blk].may_match(r))
                                .unwrap_or(true)
                        });
                        if keep {
                            pruning.blocks_scanned += 1;
                            run_start.get_or_insert(blk_start);
                        } else {
                            pruning.blocks_pruned += 1;
                            if let Some(start) = run_start.take() {
                                push_morsels(
                                    &mut out,
                                    si,
                                    start,
                                    blk_start - start,
                                    base + start,
                                    morsel_rows,
                                );
                            }
                        }
                    }
                    if let Some(start) = run_start.take() {
                        push_morsels(
                            &mut out,
                            si,
                            start,
                            seg_visible - start,
                            base + start,
                            morsel_rows,
                        );
                    }
                }
            }
            base += seg.len();
        }
        (out, pruning)
    }

    /// The morsel's live rows that satisfy `ranges` (see
    /// [`TableSnapshot::read_morsel_selected`]) with all their columns,
    /// together with the global row ids of those rows (needed by
    /// DELETE/UPDATE pipelines).
    pub fn read_morsel(&self, m: &Morsel, ranges: &[ZoneRange]) -> Result<(Chunk, Vec<usize>)> {
        let mut ids = Vec::new();
        let (chunk, _) = self.read_live(m, None, ranges, Some(&mut ids))?;
        ids.iter_mut()
            .for_each(|position| *position += m.base_row_id);
        Ok((chunk, ids))
    }

    /// The morsel's live rows projected to `cols` (`None` = all), without
    /// row ids: disk-backed segments load only the projected columns'
    /// blocks, resident ones share them.
    pub fn read_morsel_cols(&self, m: &Morsel, cols: Option<&[usize]>) -> Result<Chunk> {
        Ok(self.read_morsel_selected(m, cols, &[])?.0)
    }

    /// [`TableSnapshot::read_morsel_cols`] with `ranges` (ANDed conjuncts
    /// of the scan's filter, table column space) handed to storage: a
    /// disk-backed segment evaluates them on its encoded blocks and
    /// materializes only the rows they select
    /// ([`DiskSegment::read_selected`]); a resident one returns every live
    /// row. Either way the result is a superset of the rows the filter
    /// keeps, in row order. Also returns how many blocks the ranges
    /// emptied.
    pub fn read_morsel_selected(
        &self,
        m: &Morsel,
        cols: Option<&[usize]>,
        ranges: &[ZoneRange],
    ) -> Result<(Chunk, usize)> {
        self.read_live(m, cols, ranges, None)
    }

    /// `positions`, when asked for, receives where the returned rows sit
    /// in the morsel.
    fn read_live(
        &self,
        m: &Morsel,
        cols: Option<&[usize]>,
        ranges: &[ZoneRange],
        positions: Option<&mut Vec<usize>>,
    ) -> Result<(Chunk, usize)> {
        let live = self.live_positions(m);
        if live.as_ref().is_some_and(|live| live.is_empty()) {
            // Every row deleted: no block is loaded, no column shared.
            let types = self.schema.types();
            let types = match cols {
                None => types,
                Some(cols) => cols
                    .iter()
                    .map(|&c| types.get(c).copied().ok_or(c))
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|c| HyError::Storage(format!("table has no column {c}")))?,
            };
            return Ok((Chunk::empty(&types), 0));
        }
        match &self.segments[m.segment] {
            SegmentHandle::Disk(seg) => {
                seg.read_selected(m.offset, m.len, cols, ranges, live.as_deref(), positions)
            }
            resident => {
                let chunk = resident.read_rows(m.offset, m.len, cols)?;
                let chunk = match &live {
                    None => chunk,
                    Some(live) => chunk.take(live),
                };
                if let Some(positions) = positions {
                    *positions = live.unwrap_or_else(|| (0..m.len).collect());
                }
                Ok((chunk, 0))
            }
        }
    }

    /// The positions within the morsel of its live rows; `None` when
    /// nothing in its range is deleted (read without gathering).
    fn live_positions(&self, m: &Morsel) -> Option<Vec<usize>> {
        let range = m.base_row_id..m.base_row_id + m.len;
        self.deleted.any_in(range).then(|| {
            (0..m.len)
                .filter(|i| !self.is_deleted(m.base_row_id + i))
                .collect()
        })
    }

    fn is_deleted(&self, row_id: usize) -> bool {
        row_id < self.deleted.len() && self.deleted.get(row_id)
    }

    /// All live rows as chunks (sequential scan).
    pub fn live_chunks(&self) -> Result<Vec<Chunk>> {
        let mut out = Vec::new();
        for m in self.morsels(crate::SEGMENT_ROWS) {
            let chunk = self.read_morsel_cols(&m, None)?;
            if !chunk.is_empty() {
                out.push(chunk);
            }
        }
        Ok(out)
    }

    /// Materialize the whole snapshot into one chunk.
    pub fn to_chunk(&self) -> Result<Chunk> {
        let types = self.schema.types();
        let chunks = self.live_chunks()?;
        Chunk::concat(&types, &chunks)
    }
}

fn push_morsels(
    out: &mut Vec<Morsel>,
    segment: usize,
    start: usize,
    len: usize,
    base_row_id: usize,
    morsel_rows: usize,
) {
    let mut offset = 0;
    while offset < len {
        let take = (len - offset).min(morsel_rows);
        out.push(Morsel {
            segment,
            offset: start + offset,
            len: take,
            base_row_id: base_row_id + offset,
        });
        offset += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use hylite_common::{DataType, Field, Value};

    fn table_with(n: usize) -> Table {
        let mut t = Table::new("t", Schema::new(vec![Field::new("id", DataType::Int64)]));
        let rows: Vec<Vec<Value>> = (0..n as i64).map(|i| vec![Value::Int(i)]).collect();
        t.insert_rows(&rows).unwrap();
        t.commit();
        t
    }

    #[test]
    fn morsels_cover_all_rows_once() {
        let t = table_with(1000);
        let snap = t.snapshot();
        let morsels = snap.morsels(128);
        let total: usize = morsels.iter().map(|m| m.len).sum();
        assert_eq!(total, 1000);
        // Contiguous, non-overlapping row ids.
        let mut next = 0;
        for m in &morsels {
            assert_eq!(m.base_row_id, next);
            next += m.len;
        }
    }

    #[test]
    fn read_morsel_skips_deleted() {
        let mut t = table_with(10);
        t.delete_rows(&[3, 4]).unwrap();
        t.commit();
        let snap = t.snapshot();
        let morsels = snap.morsels(6);
        let mut ids = Vec::new();
        for m in &morsels {
            let (chunk, rids) = snap.read_morsel(m, &[]).unwrap();
            assert_eq!(chunk.len(), rids.len());
            ids.extend(rids);
        }
        assert_eq!(ids, vec![0, 1, 2, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn a_morsel_without_live_rows_is_empty_and_typed() {
        let mut t = table_with(10);
        t.delete_rows(&[0, 1, 2, 3]).unwrap();
        t.commit();
        let snap = t.snapshot();
        let dead = &snap.morsels(4)[0];
        let (chunk, ids) = snap.read_morsel(dead, &[]).unwrap();
        assert_eq!((chunk.len(), chunk.num_columns(), ids.len()), (0, 1, 0));
        let none = snap.read_morsel_cols(dead, Some(&[])).unwrap();
        assert_eq!((none.len(), none.num_columns()), (0, 0));
        assert!(snap.read_morsel_cols(dead, Some(&[1])).is_err());
    }

    #[test]
    fn to_chunk_materializes() {
        let t = table_with(5);
        let snap = t.snapshot();
        let c = snap.to_chunk().unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.column(0).as_i64().unwrap(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn projected_morsel_reads() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ]),
        );
        t.insert_rows(&[
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ])
        .unwrap();
        t.commit();
        let snap = t.snapshot();
        let morsels = snap.morsels(100);
        let chunk = snap.read_morsel_cols(&morsels[0], Some(&[1])).unwrap();
        assert_eq!(chunk.num_columns(), 1);
        assert_eq!(chunk.column(0).as_i64().unwrap(), &[10, 20]);
        // Deleted rows are skipped in the projected read as in the full one.
        t.delete_rows(&[0]).unwrap();
        t.commit();
        let snap = t.snapshot();
        let chunk = snap
            .read_morsel_cols(&snap.morsels(100)[0], Some(&[1]))
            .unwrap();
        assert_eq!(chunk.column(0).as_i64().unwrap(), &[20]);
    }

    #[test]
    fn from_chunk_wraps_intermediate() {
        let chunk = Chunk::new(vec![hylite_common::ColumnVector::from_i64(vec![7, 8])]);
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let snap = TableSnapshot::from_chunk(schema, chunk);
        assert_eq!(snap.live_rows(), 2);
        assert_eq!(snap.to_chunk().unwrap().len(), 2);
    }

    #[test]
    fn row_limit_hides_tail() {
        let t = table_with(10);
        let full = t.snapshot();
        // Build a snapshot with a shorter horizon manually.
        let snap = TableSnapshot::new(
            full.schema().clone(),
            full.segments().to_vec(),
            4,
            full.deleted.clone(),
        );
        assert_eq!(snap.live_rows(), 4);
        assert_eq!(snap.to_chunk().unwrap().len(), 4);
        assert!(!snap.is_live(4));
        assert!(snap.is_live(3));
    }
}
