//! Continuous WAL archiving: the bridge between backups and
//! point-in-time recovery.
//!
//! A checkpoint truncates the WAL, which is exactly right for crash
//! recovery and exactly wrong for PITR: the truncated frames are the
//! only record of the commits between two backups. When the server runs
//! with `--archive-dir`, every frame about to be truncated is first
//! CRC-verified and copied into an archive *span* file, so the full
//! commit history since the last backup survives checkpoints.
//!
//! ## Archive layout
//!
//! ```text
//! <archive-dir>/
//!     wal_<start>_<end>.hylite   -- one span per checkpoint rotation,
//!                                   frames start..=end, WAL file format
//!     archive.lsn                -- watermark: highest archived LSN
//! ```
//!
//! Span files reuse the WAL on-disk format (header + CRC-framed commit
//! frames), so [`crate::wal::scan_wal_raw`] reads them unchanged. The
//! file *name* declares the exact LSN range the span must contain; a
//! scan that yields anything else is a torn or corrupted span and is a
//! hard error at restore time — PITR must never silently skip commits.
//!
//! ## Failure semantics
//!
//! Archiving runs inside the checkpoint (commit lock held), but an
//! archive failure must never block commits: the caller counts the
//! failure (`archive.failures`), *skips the WAL truncation*, and the
//! next checkpoint retries the same frames. Recovery ignores frames
//! below `base_lsn`, so retaining them is harmless. The span file is
//! published tmp → fsync → rename with the [`CP_ARCHIVE_ROTATE`] crash
//! point immediately before the rename, so a crash mid-rotation leaves
//! only scratch the next open sweeps away — never a half-span that
//! parses.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hylite_common::faultfs::Vfs;
use hylite_common::{HyError, MetricsRegistry, Result};

use crate::files::publish_atomic;
use crate::wal::{contiguous_run, scan_wal_raw, wal_image, RawFrame};

/// File holding the archive watermark (highest archived LSN).
pub const ARCHIVE_WATERMARK_FILE: &str = "archive.lsn";
/// Crash point: span file written and fsynced, rename not yet done.
pub const CP_ARCHIVE_ROTATE: &str = "archive.rotate";

/// File name of the span holding frames `start..=end`.
pub fn span_file_name(start: u64, end: u64) -> String {
    format!("wal_{start:016x}_{end:016x}.hylite")
}

/// Parse a [`span_file_name`] back to `(start, end)` (`None` for foreign
/// files, including the watermark and scratch files).
pub fn parse_span_file_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal_")?.strip_suffix(".hylite")?;
    let (start, end) = rest.split_once('_')?;
    if start.len() != 16 || end.len() != 16 {
        return None;
    }
    Some((
        u64::from_str_radix(start, 16).ok()?,
        u64::from_str_radix(end, 16).ok()?,
    ))
}

/// The archiving side: owned by `Durability`, invoked under the commit
/// lock right before each WAL truncation.
pub struct WalArchive {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    metrics: Arc<MetricsRegistry>,
    /// Highest LSN known archived (mirror of the watermark file).
    watermark: u64,
}

impl std::fmt::Debug for WalArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalArchive")
            .field("dir", &self.dir)
            .field("watermark", &self.watermark)
            .finish()
    }
}

impl WalArchive {
    /// Open (or create) an archive directory. Leftover scratch from a
    /// crash mid-rotation is deleted; the watermark is loaded from disk.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: PathBuf,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<WalArchive> {
        vfs.create_dir_all(&dir)?;
        for name in vfs.list_dir(&dir)? {
            if name.ends_with(".tmp") {
                let _ = vfs.remove(&dir.join(name));
            }
        }
        let watermark = read_watermark(vfs.as_ref(), &dir)?;
        Ok(WalArchive {
            vfs,
            dir,
            metrics,
            watermark,
        })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest LSN durably archived (0 when nothing is).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Archive every frame newer than the watermark as one new span.
    /// Returns the number of frames archived (0 when already caught up).
    /// Frames must be contiguous and CRC-valid — they come straight from
    /// a [`scan_wal_raw`] of the durable WAL, which enforces both.
    pub fn archive_frames(&mut self, frames: &[RawFrame]) -> Result<u64> {
        let fresh: Vec<&RawFrame> = frames.iter().filter(|f| f.lsn > self.watermark).collect();
        let (Some(first), Some(last)) = (fresh.first(), fresh.last()) else {
            return Ok(0);
        };
        let (start, end) = (first.lsn, last.lsn);
        let run = contiguous_run(start, fresh.iter().map(|f| f.lsn));
        if let Some(hole) = fresh.get(run) {
            return Err(HyError::Storage(format!(
                "archive span {start}..={end} has an LSN hole at {}",
                hole.lsn
            )));
        }
        let buf = wal_image(fresh.iter().copied());
        let vfs = self.vfs.as_ref();
        let span = span_file_name(start, end);
        publish_atomic(
            vfs,
            &self.dir,
            &span,
            &buf,
            [None, Some(CP_ARCHIVE_ROTATE), None],
        )?;
        let watermark = end.to_le_bytes();
        publish_atomic(
            vfs,
            &self.dir,
            ARCHIVE_WATERMARK_FILE,
            &watermark,
            [None; 3],
        )?;
        self.watermark = end;
        self.metrics.counter("archive.spans").inc();
        self.metrics
            .counter("archive.frames")
            .add(fresh.len() as u64);
        self.metrics.counter("archive.bytes").add(buf.len() as u64);
        Ok(fresh.len() as u64)
    }
}

/// Read the watermark file (0 when absent or empty).
pub fn read_watermark(vfs: &dyn Vfs, dir: &Path) -> Result<u64> {
    let path = dir.join(ARCHIVE_WATERMARK_FILE);
    if !vfs.exists(&path) {
        return Ok(0);
    }
    let bytes = vfs.read(&path)?;
    if bytes.len() != 8 {
        return Err(HyError::Storage(format!(
            "archive watermark file is {} bytes (want 8) — archive corrupted",
            bytes.len()
        )));
    }
    Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
}

/// Read every archived frame into an LSN-ordered map, verifying each
/// span delivers *exactly* the LSN range its name declares. A span that
/// scans short (torn tail), starts late, or skips an LSN is detected
/// here — restore refuses to build a history with silent holes.
pub fn read_archived_frames(vfs: &dyn Vfs, dir: &Path) -> Result<BTreeMap<u64, RawFrame>> {
    let mut frames = BTreeMap::new();
    // `list_dir` yields nothing for a missing directory (and FaultVfs
    // tracks only files, so an exists() check on the dir would misfire).
    let mut spans: Vec<(u64, u64, String)> = vfs
        .list_dir(dir)?
        .into_iter()
        .filter_map(|name| parse_span_file_name(&name).map(|(s, e)| (s, e, name)))
        .collect();
    spans.sort();
    for (start, end, name) in spans {
        let path = dir.join(&name);
        let scanned = scan_wal_raw(vfs, &path)?;
        let want = (end - start + 1) as usize;
        let run = contiguous_run(start, scanned.iter().map(|f| f.lsn));
        if scanned.len() != want || run != want {
            return Err(HyError::Storage(format!(
                "archive span {name} is torn: declares lsn {start}..={end} \
                 ({want} frames) but {} valid frames scanned, {run} of them \
                 contiguous from {start}",
                scanned.len()
            )));
        }
        for f in scanned {
            frames.insert(f.lsn, f);
        }
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::encode_commit_frame;
    use hylite_common::{crc32, Chunk, ColumnVector, FaultVfs};

    fn frame(lsn: u64) -> RawFrame {
        let full = encode_commit_frame(
            lsn,
            &[crate::wal::RedoOp::Insert {
                table: "t".into(),
                rows: Chunk::new(vec![ColumnVector::from_i64(vec![lsn as i64])]),
            }],
        );
        let payload = full[8..].to_vec();
        RawFrame {
            lsn,
            crc: crc32(&payload),
            payload,
        }
    }

    fn archive(fault: &FaultVfs) -> WalArchive {
        WalArchive::open(
            Arc::new(fault.clone()),
            PathBuf::from("archive"),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap()
    }

    #[test]
    fn spans_accumulate_and_watermark_advances() {
        let fault = FaultVfs::new();
        let mut a = archive(&fault);
        assert_eq!(a.archive_frames(&[frame(1), frame(2)]).unwrap(), 2);
        assert_eq!(a.watermark(), 2);
        // Re-archiving the same frames is a no-op; new frames roll a span.
        assert_eq!(a.archive_frames(&[frame(1), frame(2)]).unwrap(), 0);
        assert_eq!(
            a.archive_frames(&[frame(2), frame(3), frame(4)]).unwrap(),
            2
        );
        assert_eq!(a.watermark(), 4);
        let all = read_archived_frames(&fault, Path::new("archive")).unwrap();
        assert_eq!(all.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // Watermark survives reopen.
        let a2 = archive(&fault);
        assert_eq!(a2.watermark(), 4);
    }

    #[test]
    fn span_names_roundtrip() {
        let name = span_file_name(3, 17);
        assert_eq!(parse_span_file_name(&name), Some((3, 17)));
        assert_eq!(parse_span_file_name("archive.lsn"), None);
        assert_eq!(parse_span_file_name(&format!("{name}.tmp")), None);
    }

    #[test]
    fn torn_span_is_detected_at_read() {
        let fault = FaultVfs::new();
        let mut a = archive(&fault);
        a.archive_frames(&[frame(1), frame(2), frame(3)]).unwrap();
        // Truncate the span mid-frame: the name still promises 1..=3.
        let path = Path::new("archive").join(span_file_name(1, 3));
        let len = fault.file_len(&path).unwrap() as u64;
        fault.truncate(&path, len - 5).unwrap();
        let err = read_archived_frames(&fault, Path::new("archive")).unwrap_err();
        assert!(err.message().contains("torn"), "{err}");
    }

    #[test]
    fn crash_before_rename_leaves_no_span() {
        let fault = FaultVfs::new();
        let mut a = archive(&fault);
        fault.arm_crash(hylite_common::faultfs::CrashSpec::first(CP_ARCHIVE_ROTATE));
        assert!(a.archive_frames(&[frame(1)]).is_err());
        assert!(fault.crashed());
        fault.reboot();
        // Reopen: scratch swept, watermark unmoved, nothing half-visible.
        let a2 = archive(&fault);
        assert_eq!(a2.watermark(), 0);
        assert!(read_archived_frames(&fault, Path::new("archive"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn frames_with_holes_are_rejected() {
        let fault = FaultVfs::new();
        let mut a = archive(&fault);
        assert!(a.archive_frames(&[frame(1), frame(3)]).is_err());
    }
}
