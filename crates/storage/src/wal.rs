//! Redo write-ahead log: the durability half of the commit path.
//!
//! The WAL is a single append-only file of *commit frames*. Each frame
//! carries everything needed to redo one committed transaction — there is
//! no undo logging because uncommitted state lives only in memory (the
//! paper's main-memory design): a crash simply never sees it.
//!
//! ## On-disk layout
//!
//! ```text
//! [u32 magic "HYWL"] [u32 version]                      -- file header
//! [u32 len] [u32 crc32(payload)] [payload]              -- frame, repeated
//!     payload = [u64 lsn] [u32 nops] [op ...]
//! ```
//!
//! Integers are little-endian; each op is one row of the [`RedoOp`]
//! declaration, written by the shared field codecs
//! ([`hylite_common::codec`]) — strings, schemas and columnar chunks as on
//! the wire.
//! A frame is valid only if its full length is present *and* its CRC
//! matches, which is what makes torn tail writes detectable: recovery
//! replays valid frames in order and discards everything from the first
//! invalid frame on.
//!
//! ## Sync modes
//!
//! * [`SyncMode::Commit`] — every commit is written *and* fsynced before
//!   the commit is acknowledged. An acknowledged commit survives any
//!   crash.
//! * [`SyncMode::Buffered`] — frames accumulate in a group-commit buffer
//!   flushed when it exceeds the configured threshold (and at checkpoint/
//!   shutdown). Much cheaper, but commits acknowledged since the last
//!   flush can be lost in a crash — a bounded, documented loss window.
//!
//! ## Failure handling
//!
//! If a write or fsync fails, the not-yet-acknowledged frame may be
//! partially in the file. The writer rolls the file back to the last
//! durable frame boundary; if even that fails, the WAL is *poisoned* and
//! every later commit errors until restart — the alternative would be a
//! later successful fsync silently making a never-acknowledged frame
//! durable.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hylite_common::codec::{put_u32, At, ByteReader, Codec, List};
use hylite_common::faultfs::{Vfs, VfsFile};
use hylite_common::wire::MAX_FRAME_BYTES;
use hylite_common::{crc32, records, Chunk, HyError, MetricsRegistry, Result, Schema};

use crate::files::{write_durable, Signature};

/// The WAL file's signature; the version is bumped on incompatible layout
/// changes.
const WAL: Signature = Signature::new(b"HYWL", 1, "WAL");
/// Size of the WAL file header in bytes.
pub const WAL_HEADER_LEN: u64 = 8;
/// File name of the WAL inside the data directory.
pub const WAL_FILE: &str = "wal.hylite";

/// Crash point: before the commit frame reaches the file.
pub const CP_WAL_APPEND: &str = "wal.append";
/// Crash point: frame written to the page cache, not yet fsynced.
pub const CP_WAL_AFTER_WRITE: &str = "wal.after_write";
/// Crash point: immediately before the commit fsync.
pub const CP_WAL_PRE_FSYNC: &str = "wal.pre_fsync";
/// Crash point: fsync done, acknowledgement not yet returned.
pub const CP_WAL_POST_FSYNC: &str = "wal.post_fsync";
/// Crash point: before the post-checkpoint WAL truncation.
pub const CP_WAL_TRUNCATE: &str = "wal.truncate";

/// When the WAL fsyncs relative to commit acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Write + fsync before every commit acknowledgement (durable).
    Commit,
    /// Group-commit buffering with a bounded loss window.
    Buffered,
}

records! {
    /// One redo operation inside a commit frame. `Insert` carries the rows
    /// in columnar form exactly as they were appended, so replay reproduces
    /// the same physical layout (and therefore the same global row ids that
    /// later `Delete` frames refer to).
    #[derive(Debug, Clone, PartialEq)]
    pub enum RedoOp {
        /// `CREATE TABLE` — name plus full schema.
        1 CreateTable {
            /// Table name (already lower-cased by the catalog).
            name: String,
            /// Column definitions.
            schema: Schema,
        },
        /// `DROP TABLE`.
        2 DropTable {
            /// Table name.
            name: String,
        },
        /// Rows appended to a table in one statement.
        3 Insert {
            /// Target table.
            table: String,
            /// The appended rows, columnar.
            rows: Chunk,
        },
        /// Rows delete-marked by their global row ids.
        4 Delete {
            /// Target table.
            table: String,
            /// Global row ids that were marked deleted.
            row_ids: Vec<u64> as List<u64>,
        },
    } else other => HyError::Storage(format!("WAL frame has unknown redo op tag {other}"));
}

/// Append one frame, `[u32 len][u32 crc][payload]` — the only writer of
/// the frame layout.
fn put_frame(buf: &mut Vec<u8>, crc: u32, payload: &[u8]) {
    put_u32(buf, payload.len() as u32);
    put_u32(buf, crc);
    buf.extend_from_slice(payload);
}

/// Encode one commit as a complete frame (length + CRC + payload).
pub fn encode_commit_frame(lsn: u64, ops: &[RedoOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    u64::put(&lsn, &mut payload);
    List::<u32>::put_items(ops, &mut payload);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_frame(&mut frame, crc32(&payload), &payload);
    frame
}

/// Decode a commit-frame payload (`[u64 lsn][u32 nops][ops...]`) into its
/// LSN and redo ops. Replication uses this on replica-received frames;
/// recovery uses it on frames scanned from disk.
pub fn decode_commit_payload(payload: &[u8]) -> Result<(u64, Vec<RedoOp>)> {
    let mut r = ByteReader::new(payload);
    let lsn = r.u64()?;
    let ops = List::<u32>::get(&mut r, At("WAL frame", "", "ops"))?;
    if !r.is_empty() {
        return Err(HyError::Storage(
            "WAL frame has trailing bytes after its ops".into(),
        ));
    }
    Ok((lsn, ops))
}

/// Result of scanning a WAL file: the valid commit prefix plus what had
/// to be discarded.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Valid commits in LSN order, `(lsn, ops)`.
    pub commits: Vec<(u64, Vec<RedoOp>)>,
    /// Byte offset of the first byte *after* each commit's frame,
    /// parallel to `commits`. Recovery uses these to truncate the file
    /// at an exact frame boundary when it rejects a later frame (e.g. an
    /// LSN gap).
    pub frame_ends: Vec<u64>,
    /// Byte length of the valid prefix (header + valid frames). The file
    /// should be truncated to this length before appending again.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn/corrupt tail).
    pub discarded_bytes: u64,
}

/// One CRC-verified WAL frame in raw (undecoded) form: what replication
/// ships to replicas. `payload` is the exact bytes the CRC covers.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// The commit's log sequence number.
    pub lsn: u64,
    /// CRC32 of `payload` as stored in the file.
    pub crc: u32,
    /// The frame payload (`[lsn][nops][ops...]`).
    pub payload: Vec<u8>,
}

/// The bytes of a WAL file holding exactly `frames`, in the order given:
/// the file header followed by each frame as `[len][crc][payload]`. No
/// frames gives the header-only image of a fresh (or just-reset) log.
pub fn wal_image<'a>(frames: impl IntoIterator<Item = &'a RawFrame>) -> Vec<u8> {
    let mut buf = Vec::new();
    WAL.put(&mut buf);
    for f in frames {
        put_frame(&mut buf, f.crc, &f.payload);
    }
    buf
}

/// The one walk over a WAL file's bytes, under recovery's rules for every
/// reader: a missing file, or one shorter than its header (a crash before
/// the header fsync), holds no frames; a foreign magic or an unsupported
/// version is a hard error; then each CRC-valid frame is handed to
/// `frame(crc, payload, end)` — `end` being the offset just past it — up
/// to the first torn or corrupt one, which is where a crash tail starts.
/// Returns `(valid_len, file_len)`.
fn walk_frames(
    vfs: &dyn Vfs,
    path: &Path,
    mut frame: impl FnMut(u32, &[u8], u64) -> Result<()>,
) -> Result<(u64, u64)> {
    if !vfs.exists(path) {
        return Ok((0, 0));
    }
    let bytes = vfs.read(path)?;
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    if (bytes.len() as u64) < WAL_HEADER_LEN {
        return Ok((0, bytes.len() as u64));
    }
    WAL.check(&mut ByteReader::new(&bytes))?;
    let mut pos = WAL_HEADER_LEN as usize;
    while pos + 8 <= bytes.len() {
        let (len, crc) = (word(pos) as usize, word(pos + 4));
        if len == 0 || len as u64 > MAX_FRAME_BYTES as u64 || pos + 8 + len > bytes.len() {
            break; // torn length/payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // torn or bit-flipped frame
        }
        pos += 8 + len;
        frame(crc, payload, pos as u64)?;
    }
    Ok((pos as u64, bytes.len() as u64))
}

/// Scan a WAL file into raw CRC-verified frames without decoding ops —
/// what replication, archiving, backup `VERIFY` and restore read. The
/// LSN is peeked from the payload head; a CRC-valid frame too short to
/// carry one is real corruption and errors out, as in [`scan_wal`].
pub fn scan_wal_raw(vfs: &dyn Vfs, path: &Path) -> Result<Vec<RawFrame>> {
    let mut frames = Vec::new();
    walk_frames(vfs, path, |crc, payload, _| {
        frames.push(RawFrame {
            lsn: ByteReader::new(payload).u64()?,
            crc,
            payload: payload.to_vec(),
        });
        Ok(())
    })?;
    Ok(frames)
}

/// Scan a WAL file, decoding every valid commit (the recovery read).
///
/// A truncated or CRC-mismatching *tail* is normal after a crash and is
/// reported, not an error. A file that is long enough to have a header
/// but opens with the wrong magic or version, or a CRC-valid frame that
/// fails to parse, is real corruption and errors out rather than
/// silently dropping data.
pub fn scan_wal(vfs: &dyn Vfs, path: &Path) -> Result<WalScan> {
    let mut scan = WalScan::default();
    let (valid_len, file_len) = walk_frames(vfs, path, |_, payload, end| {
        scan.commits.push(decode_commit_payload(payload)?);
        scan.frame_ends.push(end);
        Ok(())
    })?;
    scan.valid_len = valid_len;
    scan.discarded_bytes = file_len - valid_len;
    Ok(scan)
}

/// How many of `lsns` continue the run `from, from + 1, …` before the
/// first hole — the one contiguity rule recovery, the archive and restore
/// share.
pub fn contiguous_run(from: u64, lsns: impl IntoIterator<Item = u64>) -> usize {
    lsns.into_iter()
        .zip(from..)
        .take_while(|(lsn, want)| lsn == want)
        .count()
}

/// The append side of the WAL. One instance per database, serialized by
/// the durability layer's commit lock.
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    sync_mode: SyncMode,
    group_commit_bytes: usize,
    /// Encoded frames not yet handed to the file (group-commit buffer).
    buffer: Vec<u8>,
    /// Commits sitting in `buffer`.
    buffered_commits: u64,
    /// Bytes of the file known durable (written + fsynced).
    durable_len: u64,
    next_lsn: u64,
    poisoned: bool,
    /// Set by [`crate::durability::Durability`] while the node is in
    /// read-only degraded mode: `log_commit` rejects before touching the
    /// buffer. Rejecting *here*, inside
    /// [`crate::durability::Durability::commit`], means the caller's rollback
    /// still runs and staged in-memory rows are discarded; a rejection
    /// before the commit protocol is entered would leak them into the
    /// next commit's publish.
    degraded: bool,
    metrics: Arc<MetricsRegistry>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("sync_mode", &self.sync_mode)
            .field("durable_len", &self.durable_len)
            .field("next_lsn", &self.next_lsn)
            .field("buffered", &self.buffer.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl WalWriter {
    /// Open (or create) the WAL for appending. `next_lsn` comes from
    /// recovery; the file is expected to already be repaired (truncated
    /// to its valid prefix).
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: PathBuf,
        sync_mode: SyncMode,
        group_commit_bytes: usize,
        next_lsn: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<WalWriter> {
        let existing = if vfs.exists(&path) {
            vfs.len(&path)?
        } else {
            0
        };
        let durable_len = if existing < WAL_HEADER_LEN {
            write_durable(vfs.as_ref(), &path, &wal_image([]))?;
            // The file's *directory entry* must be durable too, or a
            // power loss can vanish the whole WAL — fsynced frames and
            // all — on a freshly created database.
            if let Some(dir) = path.parent() {
                vfs.sync_dir(dir)?;
            }
            WAL_HEADER_LEN
        } else {
            existing
        };
        // Always append through a fresh append-mode handle: a handle from
        // `create` has a positioned cursor, which keeps writing at its old
        // offset (leaving a hole) after an out-of-band truncate.
        let file = vfs.open_append(&path)?;
        Ok(WalWriter {
            vfs,
            path,
            file,
            sync_mode,
            group_commit_bytes: group_commit_bytes.max(1),
            buffer: Vec::new(),
            buffered_commits: 0,
            durable_len,
            next_lsn: next_lsn.max(1),
            poisoned: false,
            degraded: false,
            metrics,
        })
    }

    /// The LSN the next commit will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Override the next LSN. Only valid on an empty (just-reset) WAL:
    /// a replica installing a bootstrap checkpoint restarts its log at
    /// the snapshot's base LSN.
    pub fn set_next_lsn(&mut self, lsn: u64) {
        debug_assert!(self.buffer.is_empty(), "set_next_lsn on a dirty WAL");
        self.next_lsn = lsn.max(1);
    }

    /// The configured sync mode.
    pub fn sync_mode(&self) -> SyncMode {
        self.sync_mode
    }

    /// Bytes of the file known durable (written + fsynced). Replicas use
    /// this as a cheap checkpoint-pressure signal.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Every CRC-valid frame in this log's file ([`scan_wal_raw`]) — what
    /// the archive copies and replication streams. Frames still in the
    /// group-commit buffer are not on file yet: flush first.
    pub fn frames(&self) -> Result<Vec<RawFrame>> {
        scan_wal_raw(self.vfs.as_ref(), &self.path)
    }

    /// Append a WAL frame received verbatim from a replication primary.
    ///
    /// The frame keeps the primary's LSN so the replica's WAL is
    /// byte-compatible with the primary's and catch-up can resume from
    /// `next_lsn - 1` after any crash. `lsn` must be exactly the next
    /// expected LSN — a gap means the stream diverged and the caller
    /// must re-bootstrap instead of applying a forked history. The frame
    /// is written *and fsynced* before this returns `Ok` regardless of
    /// sync mode: a replica only acknowledges durably applied LSNs.
    pub fn append_raw_frame(&mut self, lsn: u64, crc: u32, payload: &[u8]) -> Result<()> {
        self.check_poisoned()?;
        if crc32(payload) != crc {
            return Err(HyError::Storage(format!(
                "replicated frame lsn {lsn} failed its CRC check"
            )));
        }
        if lsn != self.next_lsn {
            return Err(HyError::Storage(format!(
                "replicated frame lsn {lsn} does not continue the local WAL \
                 (expected {}): stream diverged",
                self.next_lsn
            )));
        }
        let frame_start = self.buffer.len();
        put_frame(&mut self.buffer, crc, payload);
        self.buffered_commits += 1;
        if let Err(e) = self.flush() {
            self.buffer.truncate(frame_start);
            self.buffered_commits = self.buffered_commits.saturating_sub(1);
            return Err(e);
        }
        self.next_lsn = lsn + 1;
        self.metrics.counter("wal.commits").inc();
        Ok(())
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(HyError::Storage(
                "WAL is poisoned after a failed rollback; restart the database".into(),
            ));
        }
        Ok(())
    }

    /// Whether a failed rollback has poisoned the writer.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Retry the rollback that poisoned the writer: truncate the file to
    /// the last durable frame boundary and reopen the append handle. Safe
    /// because recovery never trusts bytes past a valid frame boundary —
    /// this merely completes the cleanup the failure interrupted. The
    /// group-commit buffer is kept: in Buffered mode it holds frames of
    /// already-acknowledged commits, which the next flush retries. Called
    /// by the disk-pressure probe once space frees up; a no-op when the
    /// writer is healthy.
    pub fn try_unpoison(&mut self) -> Result<()> {
        if !self.poisoned {
            return Ok(());
        }
        self.vfs.truncate(&self.path, self.durable_len)?;
        self.file = self.vfs.open_append(&self.path)?;
        self.poisoned = false;
        Ok(())
    }

    /// Flip the degraded-mode write rejection (see the `degraded` field).
    /// Owned by [`crate::durability::Durability`], which mirrors its
    /// node-level flag into the
    /// writer under the commit lock.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Log one commit. In [`SyncMode::Commit`] the frame is durable when
    /// this returns `Ok`; in [`SyncMode::Buffered`] it is at least in the
    /// group-commit buffer. Returns the commit's LSN.
    pub fn log_commit(&mut self, ops: &[RedoOp]) -> Result<u64> {
        if self.degraded {
            // Reject up front, before the frame touches the buffer. The
            // error is the same retryable DiskFull (5005) the original
            // failure produced, so clients see one consistent code.
            return Err(HyError::DiskFull(
                "node is in read-only degraded mode (disk full); \
                 writes resume automatically once space frees"
                    .into(),
            ));
        }
        self.check_poisoned()?;
        let lsn = self.next_lsn;
        let frame = encode_commit_frame(lsn, ops);
        let frame_start = self.buffer.len();
        self.buffer.extend_from_slice(&frame);
        self.buffered_commits += 1;
        let must_flush = match self.sync_mode {
            SyncMode::Commit => true,
            SyncMode::Buffered => self.buffer.len() >= self.group_commit_bytes,
        };
        if must_flush {
            if let Err(e) = self.flush() {
                // This commit is about to be rejected and its in-memory
                // effects rolled back: its frame must not linger in the
                // buffer where a later retry would make it durable.
                // Earlier buffered frames stay queued — those commits
                // were already acknowledged (Buffered mode) and their
                // effects are published in memory.
                self.buffer.truncate(frame_start);
                self.buffered_commits = self.buffered_commits.saturating_sub(1);
                return Err(e);
            }
        }
        // Advance only after a successful (or deferred) append so an LSN
        // never refers to a frame that was rolled back.
        self.next_lsn = lsn + 1;
        self.metrics.counter("wal.commits").inc();
        Ok(lsn)
    }

    /// Write + fsync the group-commit buffer. On failure the *file* is
    /// rolled back to the last durable frame boundary (or poisoned if
    /// even that fails), but the buffered frames are kept: in Buffered
    /// mode they belong to already-acknowledged commits whose effects
    /// are live in memory, so the next flush retries them rather than
    /// silently widening the loss window to cover plain I/O errors.
    /// Every failure is counted in `wal.flush_failures`.
    pub fn flush(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        match self.try_flush() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.metrics.counter("wal.flush_failures").inc();
                // Without the rollback, a *later* successful fsync could
                // make a partially written, never-acknowledged frame
                // durable behind the engine's back.
                if self.vfs.truncate(&self.path, self.durable_len).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    fn try_flush(&mut self) -> Result<()> {
        self.vfs.crash_point(CP_WAL_APPEND)?;
        self.file.write_all(&self.buffer)?;
        self.vfs.crash_point(CP_WAL_AFTER_WRITE)?;
        self.vfs.crash_point(CP_WAL_PRE_FSYNC)?;
        self.file.sync()?;
        self.vfs.crash_point(CP_WAL_POST_FSYNC)?;
        self.durable_len += self.buffer.len() as u64;
        self.metrics
            .counter("wal.bytes_written")
            .add(self.buffer.len() as u64);
        self.metrics.counter("wal.fsyncs").inc();
        self.metrics
            .counter("wal.group_commits")
            .add(u64::from(self.buffered_commits > 1));
        self.buffer.clear();
        self.buffered_commits = 0;
        Ok(())
    }

    /// Drop every logged frame (after a checkpoint made them redundant):
    /// truncate the file back to just its header. The caller must have
    /// flushed first.
    pub fn reset(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.vfs.crash_point(CP_WAL_TRUNCATE)?;
        self.buffer.clear();
        self.buffered_commits = 0;
        self.vfs.truncate(&self.path, WAL_HEADER_LEN)?;
        // Reopen so the handle's notion of EOF agrees with the truncated
        // file on every platform.
        self.file = self.vfs.open_append(&self.path)?;
        self.durable_len = WAL_HEADER_LEN;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{ColumnVector, DataType, FaultVfs, Field};

    fn vfs_and_path() -> (Arc<dyn Vfs>, FaultVfs, PathBuf) {
        let fault = FaultVfs::new();
        (
            Arc::new(fault.clone()) as Arc<dyn Vfs>,
            fault,
            PathBuf::from("wal.hylite"),
        )
    }

    fn writer(vfs: Arc<dyn Vfs>, path: PathBuf, mode: SyncMode) -> WalWriter {
        WalWriter::open(vfs, path, mode, 1024, 1, Arc::new(MetricsRegistry::new())).unwrap()
    }

    fn insert_op(n: i64) -> RedoOp {
        RedoOp::Insert {
            table: "t".into(),
            rows: Chunk::new(vec![ColumnVector::from_i64(vec![n])]),
        }
    }

    #[test]
    fn commits_roundtrip_through_scan() {
        let (vfs, _, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        let ops = vec![
            RedoOp::CreateTable {
                name: "t".into(),
                schema: Schema::new(vec![Field::new("x", DataType::Int64)]),
            },
            insert_op(1),
            RedoOp::Delete {
                table: "t".into(),
                row_ids: vec![0, 2],
            },
            RedoOp::DropTable { name: "t".into() },
        ];
        let lsn1 = w.log_commit(&ops).unwrap();
        let lsn2 = w.log_commit(&[insert_op(2)]).unwrap();
        assert!(lsn2 > lsn1);
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.discarded_bytes, 0);
        assert_eq!(scan.commits.len(), 2);
        assert_eq!(scan.commits[0].0, lsn1);
        assert_eq!(scan.commits[0].1, ops);
        assert_eq!(scan.commits[1].1, vec![insert_op(2)]);
    }

    #[test]
    fn torn_tail_is_discarded_not_an_error() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        let durable = fault.file_len(&path).unwrap() as u64;
        // Append half a frame by hand.
        let frame = encode_commit_frame(99, &[insert_op(2)]);
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.commits.len(), 1);
        assert_eq!(scan.valid_len, durable);
        assert!(scan.discarded_bytes > 0);
    }

    #[test]
    fn bit_flip_invalidates_the_frame() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        let good = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(good.commits.len(), 1);
        // Flip one payload bit; the CRC must catch it.
        fault
            .corrupt(&path, WAL_HEADER_LEN as usize + 12, 0x40)
            .unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.commits.len(), 0);
        assert_eq!(scan.valid_len, WAL_HEADER_LEN);
    }

    #[test]
    fn failed_fsync_rolls_back_to_durable_boundary() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        let durable = fault.file_len(&path).unwrap() as u64;
        fault.fail_fsyncs(1);
        assert!(w.log_commit(&[insert_op(2)]).is_err());
        // The failed frame is gone from the file entirely.
        assert_eq!(fault.file_len(&path).unwrap() as u64, durable);
        // The writer is still usable and the next commit lands.
        w.log_commit(&[insert_op(3)]).unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        let vals: Vec<_> = scan.commits.iter().map(|(_, ops)| ops.clone()).collect();
        assert_eq!(vals, vec![vec![insert_op(1)], vec![insert_op(3)]]);
    }

    #[test]
    fn buffered_mode_defers_fsync_until_threshold() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = WalWriter::open(
            Arc::clone(&vfs),
            path.clone(),
            SyncMode::Buffered,
            1 << 20,
            1,
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        w.log_commit(&[insert_op(1)]).unwrap();
        assert_eq!(
            fault.file_len(&path).unwrap() as u64,
            WAL_HEADER_LEN,
            "frame still buffered"
        );
        w.flush().unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.commits.len(), 1);
    }

    #[test]
    fn buffered_flush_failure_retains_acked_frames() {
        let (vfs, fault, path) = vfs_and_path();
        let metrics = Arc::new(MetricsRegistry::new());
        let mut w = WalWriter::open(
            Arc::clone(&vfs),
            path.clone(),
            SyncMode::Buffered,
            1 << 20,
            1,
            Arc::clone(&metrics),
        )
        .unwrap();
        // Two acknowledged commits sit in the group-commit buffer.
        let lsn1 = w.log_commit(&[insert_op(1)]).unwrap();
        let lsn2 = w.log_commit(&[insert_op(2)]).unwrap();
        fault.fail_fsyncs(1);
        assert!(w.flush().is_err());
        assert_eq!(metrics.counter("wal.flush_failures").get(), 1);
        assert_eq!(
            fault.file_len(&path).unwrap() as u64,
            WAL_HEADER_LEN,
            "failed flush rolled the file back to the durable boundary"
        );
        // The acked frames were NOT discarded: the next flush lands them.
        w.flush().unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(
            scan.commits.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![lsn1, lsn2]
        );
        assert_eq!(scan.commits[0].1, vec![insert_op(1)]);
        assert_eq!(scan.commits[1].1, vec![insert_op(2)]);
    }

    #[test]
    fn buffered_rejected_commit_is_not_resurrected_by_retry() {
        let (vfs, fault, path) = vfs_and_path();
        // Threshold 1024: the small first commit stays buffered, the big
        // second one trips a flush inside `log_commit`.
        let mut w = WalWriter::open(
            Arc::clone(&vfs),
            path.clone(),
            SyncMode::Buffered,
            1024,
            1,
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        w.log_commit(&[insert_op(1)]).unwrap();
        let big = RedoOp::Insert {
            table: "t".into(),
            rows: Chunk::new(vec![ColumnVector::from_i64((0..256).collect())]),
        };
        fault.fail_fsyncs(1);
        assert!(w.log_commit(&[big]).is_err(), "flush failure rejects it");
        // The rejected commit's frame must be gone from the buffer: its
        // in-memory effects were rolled back, so a successful retry must
        // not make it durable behind the engine's back.
        w.flush().unwrap();
        let lsn3 = w.log_commit(&[insert_op(3)]).unwrap();
        w.flush().unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        let vals: Vec<_> = scan.commits.iter().map(|(_, ops)| ops.clone()).collect();
        assert_eq!(vals, vec![vec![insert_op(1)], vec![insert_op(3)]]);
        assert_eq!(lsn3, 2, "the rejected commit's LSN was reused");
    }

    #[test]
    fn reset_truncates_to_header() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        w.reset().unwrap();
        assert_eq!(fault.file_len(&path).unwrap() as u64, WAL_HEADER_LEN);
        // Still appendable after the reset.
        w.log_commit(&[insert_op(2)]).unwrap();
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.commits.len(), 1);
        assert_eq!(scan.commits[0].1, vec![insert_op(2)]);
    }

    #[test]
    fn raw_scan_matches_decoded_scan() {
        let (vfs, _, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        let lsn1 = w.log_commit(&[insert_op(1)]).unwrap();
        let lsn2 = w.log_commit(&[insert_op(2)]).unwrap();
        let raw = scan_wal_raw(vfs.as_ref(), &path).unwrap();
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0].lsn, lsn1);
        assert_eq!(raw[1].lsn, lsn2);
        for f in &raw {
            assert_eq!(crc32(&f.payload), f.crc);
            let (lsn, ops) = decode_commit_payload(&f.payload).unwrap();
            assert_eq!(lsn, f.lsn);
            assert_eq!(ops.len(), 1);
        }
    }

    #[test]
    fn raw_frames_replayed_verbatim_reproduce_the_wal() {
        let (vfs, _, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        w.log_commit(&[insert_op(2), insert_op(3)]).unwrap();
        let frames = scan_wal_raw(vfs.as_ref(), &path).unwrap();
        let primary_bytes = vfs.read(&path).unwrap();

        // "Replica": apply the raw frames into a fresh WAL.
        let replica = FaultVfs::new();
        let rvfs: Arc<dyn Vfs> = Arc::new(replica.clone());
        let rpath = PathBuf::from("replica-wal.hylite");
        let mut rw = writer(Arc::clone(&rvfs), rpath.clone(), SyncMode::Commit);
        for f in &frames {
            rw.append_raw_frame(f.lsn, f.crc, &f.payload).unwrap();
        }
        assert_eq!(rw.next_lsn(), w.next_lsn());
        assert_eq!(rvfs.read(&rpath).unwrap(), primary_bytes, "byte-identical");
    }

    #[test]
    fn raw_append_rejects_gaps_and_bad_crc() {
        let (vfs, _, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        let frame1 = encode_commit_frame(1, &[insert_op(1)]);
        let frame3 = encode_commit_frame(3, &[insert_op(3)]);
        let payload1 = frame1[8..].to_vec();
        let payload3 = frame3[8..].to_vec();
        // Bad CRC is rejected before anything touches the file.
        assert!(w
            .append_raw_frame(1, crc32(&payload1) ^ 1, &payload1)
            .is_err());
        w.append_raw_frame(1, crc32(&payload1), &payload1).unwrap();
        // LSN 3 after LSN 1 is a gap: divergence, not appendable.
        let err = w
            .append_raw_frame(3, crc32(&payload3), &payload3)
            .unwrap_err();
        assert!(err.message().contains("diverged"), "{err}");
        assert_eq!(w.next_lsn(), 2, "rejected frame did not advance the LSN");
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.commits.len(), 1);
    }

    #[test]
    fn scan_reports_frame_end_offsets() {
        let (vfs, fault, path) = vfs_and_path();
        let mut w = writer(Arc::clone(&vfs), path.clone(), SyncMode::Commit);
        w.log_commit(&[insert_op(1)]).unwrap();
        let after_first = fault.file_len(&path).unwrap() as u64;
        w.log_commit(&[insert_op(2)]).unwrap();
        let after_second = fault.file_len(&path).unwrap() as u64;
        let scan = scan_wal(vfs.as_ref(), &path).unwrap();
        assert_eq!(scan.frame_ends, vec![after_first, after_second]);
        assert_eq!(scan.valid_len, after_second);
    }

    /// Both readers walk frames the one way: the same frames kept from
    /// every image, the same images refused.
    #[test]
    fn raw_and_decoded_scans_apply_the_same_rules() {
        let frame = |lsn: u64| {
            let payload = encode_commit_frame(lsn, &[insert_op(lsn as i64)])[8..].to_vec();
            RawFrame {
                lsn,
                crc: crc32(&payload),
                payload,
            }
        };
        let good = wal_image(&[frame(1), frame(2)]);
        let second = good.len() - frame(2).payload.len();
        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0x01;
        let mut wrong_version = good.clone();
        wrong_version[4..8].copy_from_slice(&2u32.to_le_bytes());
        let mut crc_flip = good.clone();
        crc_flip[second + 3] ^= 0x40;
        let mut zero_length = wal_image(&[frame(1)]);
        zero_length.extend_from_slice(&[0; 8]);
        zero_length.extend_from_slice(&good[second - 8..]);
        // (image, frames kept — `None` when the image is refused)
        let cases = [
            ("intact", good.clone(), Some(vec![1, 2])),
            ("header too short", good[..5].to_vec(), Some(vec![])),
            ("wrong magic", wrong_magic, None),
            ("wrong version", wrong_version, None),
            ("torn tail", good[..good.len() - 3].to_vec(), Some(vec![1])),
            ("crc flip", crc_flip, Some(vec![1])),
            ("zero-length frame", zero_length, Some(vec![1])),
        ];
        for (what, image, want) in cases {
            let (vfs, _, path) = vfs_and_path();
            let mut f = vfs.create(&path).unwrap();
            f.write_all(&image).unwrap();
            let decoded = scan_wal(vfs.as_ref(), &path)
                .map(|s| s.commits.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>());
            let raw = scan_wal_raw(vfs.as_ref(), &path)
                .map(|frames| frames.iter().map(|f| f.lsn).collect::<Vec<_>>());
            assert_eq!(decoded.as_ref().ok(), want.as_ref(), "{what}: scan_wal");
            assert_eq!(raw.as_ref().ok(), want.as_ref(), "{what}: scan_wal_raw");
            if let (Err(a), Err(b)) = (&decoded, &raw) {
                assert_eq!(a.message(), b.message(), "{what}: one error for both");
            }
        }
    }

    #[test]
    fn foreign_file_is_rejected() {
        let (vfs, _, path) = vfs_and_path();
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"definitely not a WAL file").unwrap();
        assert!(scan_wal(vfs.as_ref(), &path).is_err());
    }
}
