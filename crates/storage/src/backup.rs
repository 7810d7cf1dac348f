//! Online backups and point-in-time restore.
//!
//! A backup is a directory that pins one consistent moment of the
//! database — `(manifest, base_lsn, backup_lsn, epoch)` — captured while
//! holding the commit lock for only as long as it takes to read the
//! manifest and the durable WAL prefix into memory. Segment files are
//! copied *outside* any lock: they are immutable once sealed, and if a
//! concurrent checkpoint GCs one mid-copy the read re-pins and retries.
//!
//! That cut is the one way a consistent image leaves a node: [`pin`]
//! takes it under the commit lock, [`read_pinned`] loads its segment
//! files outside the lock, and both a backup ([`write_backup`]) and a
//! replica bootstrap ([`bootstrap_bundle`]) are built on the pair.
//!
//! ## Backup directory layout
//!
//! ```text
//! <backup-dir>/
//!     segments/seg_*.hyseg   -- CRC-validated copies of sealed segments
//!     checkpoint.hylite      -- manifest copy (absent pre-first-checkpoint)
//!     wal.hylite             -- durable WAL prefix at pin time
//!     backup.hylite          -- metadata ("HYBK"), written LAST
//! ```
//!
//! The metadata file is the commit record: it is published (with
//! [`crate::files::publish_atomic`]) only after every other file is
//! durable, so a directory without a valid `backup.hylite` is an
//! interrupted backup and restore refuses it. The [`CP_BACKUP_SEG_COPY`]
//! crash point fires before each segment copy to prove exactly that in
//! the crash matrix.
//!
//! ## Incremental chains
//!
//! `BACKUP TO 'dir' FROM 'base'` copies only segment ids absent from the
//! base backup's chain and records the base path in its metadata.
//! Restore resolves the chain child → parent, reading each segment from
//! the nearest backup that holds it, so chains must stay at their
//! recorded paths. Chains only make sense against backups of the *same*
//! data directory (segment ids are per-directory).
//!
//! ## Restore
//!
//! [`restore_backup`] materialises a fresh data directory: validated
//! segment copies + the manifest + a rebuilt WAL holding the contiguous
//! frames from `base_lsn` up to the target LSN, merged from the backup's
//! WAL copy and any archive spans (see [`crate::archive`]). Replication
//! state is deliberately *not* restored — the first primary open of the
//! restored directory mints a fresh epoch, so a restored node can never
//! splice into its old fleet.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hylite_common::codec::List;
use hylite_common::faultfs::Vfs;
use hylite_common::{records, HyError, Result};

use crate::archive::read_archived_frames;
use crate::checkpoint::{BootstrapBundle, CheckpointImage, ShippedSegment, CHECKPOINT_FILE};
use crate::files::{open_framed, publish_atomic, seal_framed, write_durable, Sealed, Signature};
use crate::segment::{
    check_segment_bytes, copy_segment_bytes, segment_file_name, SegmentStore, SEGMENT_DIR,
};
use crate::wal::{contiguous_run, scan_wal_raw, wal_image, RawFrame, WalWriter, WAL_FILE};

/// Metadata file name — its presence marks a *completed* backup.
pub const BACKUP_META_FILE: &str = "backup.hylite";
/// Crash point: before each segment file is copied into the backup.
pub const CP_BACKUP_SEG_COPY: &str = "backup.segment_copy";
/// Error-message marker for a pinned segment GC'd before it was read;
/// [`read_pinned`] re-pins and retries on it.
pub const SEGMENT_VANISHED: &str = "vanished since the pin";
/// Cuts [`read_pinned`] tries before a vanished segment fails the read.
const PIN_ATTEMPTS: usize = 3;
/// Longest incremental chain restore will follow (cycle guard).
const MAX_CHAIN_DEPTH: usize = 64;

records! {
    /// Metadata sealing a completed backup.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BackupMeta {
        /// The pinned manifest's base LSN (0 when no checkpoint existed).
        pub base_lsn: u64,
        /// Highest LSN whose effects the backup contains (manifest + WAL copy).
        pub backup_lsn: u64,
        /// The source node's epoch at pin time (informational: restore mints
        /// a fresh one).
        pub epoch: u64,
        /// Whether the `--verify` full rescan ran before this was written.
        pub verified: bool,
        /// Path of the incremental base backup, if any.
        pub base: Option<String>,
        /// Segment ids physically copied into this backup.
        pub copied_segments: Vec<u64> as List<u32>,
        /// Referenced segment ids held by the base chain instead.
        pub base_segments: Vec<u64> as List<u32>,
        /// Bytes copied into this backup (segments + WAL + manifest).
        pub bytes: u64,
    }
}

impl Sealed for BackupMeta {
    const SIGNATURE: Signature = Signature::new(b"HYBK", 1, "backup metadata");
}

/// Read and decode a backup directory's metadata. A directory without
/// one is an interrupted (or foreign) backup and is refused.
pub fn read_backup_meta(vfs: &dyn Vfs, dir: &Path) -> Result<BackupMeta> {
    let path = dir.join(BACKUP_META_FILE);
    if !vfs.exists(&path) {
        return Err(HyError::Storage(format!(
            "{} is not a completed backup: {BACKUP_META_FILE} is missing \
             (the backup was interrupted or never finished)",
            dir.display()
        )));
    }
    open_framed(&vfs.read(&path)?)
}

/// A consistent cut of a data directory, read under the commit lock by
/// [`pin`]: what a backup copies and a replica bootstrap ships.
#[derive(Debug)]
pub struct Pin {
    /// `checkpoint.hylite` bytes at pin time (`None` pre-first-checkpoint).
    pub manifest: Option<Vec<u8>>,
    /// The manifest's base LSN (0 without a manifest).
    pub base_lsn: u64,
    /// Segment ids the manifest references, ascending.
    pub segments: BTreeSet<u64>,
    /// The durable WAL prefix at pin time (header included).
    pub wal: Vec<u8>,
    /// Highest LSN the pin covers (`next_lsn - 1`).
    pub backup_lsn: u64,
    /// Source node epoch at pin time.
    pub epoch: u64,
}

/// Pin a cut of the data directory `dir`: flush `wal`, then read the
/// published manifest and the WAL's durable prefix. The caller holds the
/// commit lock (it owns `wal` through it) for exactly this long.
pub fn pin(vfs: &dyn Vfs, dir: &Path, wal: &mut WalWriter, epoch: u64) -> Result<Pin> {
    wal.flush()?;
    let manifest_path = dir.join(CHECKPOINT_FILE);
    let (manifest, base_lsn, segments) = if vfs.exists(&manifest_path) {
        let bytes = vfs.read(&manifest_path)?;
        let image: CheckpointImage = open_framed(&bytes)?;
        (Some(bytes), image.base_lsn, image.referenced_segments())
    } else {
        (None, 0, BTreeSet::new())
    };
    let mut wal_bytes = vfs.read(&dir.join(WAL_FILE))?;
    wal_bytes.truncate(wal.durable_len() as usize);
    Ok(Pin {
        manifest,
        base_lsn,
        segments,
        wal: wal_bytes,
        backup_lsn: wal.next_lsn().saturating_sub(1),
        epoch,
    })
}

/// Run `read` over a pinned cut outside the commit lock, reading its
/// segment files from the store. A checkpoint may GC a pinned
/// segment before it is loaded ([`SEGMENT_VANISHED`]); then `repin` takes
/// a fresh cut and `read` starts over — three cuts in all.
pub fn read_pinned<T>(
    mut pin: Pin,
    mut repin: impl FnMut() -> Result<Pin>,
    mut read: impl FnMut(&Pin) -> Result<T>,
) -> Result<T> {
    for _ in 1..PIN_ATTEMPTS {
        match read(&pin) {
            Err(e) if e.message().contains(SEGMENT_VANISHED) => pin = repin()?,
            done => return done,
        }
    }
    read(&pin)
}

/// Read segment file `id` of a pinned cut; a file GC'd since the pin is a
/// [`SEGMENT_VANISHED`] error.
fn load_segment(store: &SegmentStore, id: u64) -> Result<Vec<u8>> {
    store.read_file(id).map_err(|e| {
        HyError::Storage(format!(
            "segment {id} {SEGMENT_VANISHED} (checkpoint GC raced the read): {e}"
        ))
    })
}

/// The replica-bootstrap payload of a cut: its manifest plus every
/// segment file the manifest references, sealed (see [`BootstrapBundle`]).
pub fn bootstrap_bundle(store: &SegmentStore, pin: &Pin) -> Result<Vec<u8>> {
    let manifest = pin
        .manifest
        .clone()
        .expect("a bootstrap pins its checkpoint");
    let segments = pin
        .segments
        .iter()
        .map(|&id| {
            Ok(ShippedSegment {
                id,
                bytes: load_segment(store, id)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(seal_framed(&BootstrapBundle { segments, manifest }))
}

/// What a completed backup did; surfaced through SQL, the wire frame,
/// and the `hylite.backups` system view.
#[derive(Debug, Clone)]
pub struct BackupSummary {
    /// Where the backup was written.
    pub dest: PathBuf,
    /// The pinned manifest's base LSN.
    pub base_lsn: u64,
    /// Highest LSN the backup contains.
    pub backup_lsn: u64,
    /// Segment files physically copied (incremental backups copy fewer).
    pub segments_copied: u64,
    /// Bytes copied (segments + WAL + manifest).
    pub bytes: u64,
    /// Whether the full verify rescan ran.
    pub verified: bool,
    /// Whether this backup rides on an incremental base.
    pub incremental: bool,
}

/// Resolve an incremental chain child → parent, starting at (and
/// including) `dir`. Metadata of every link is validated on the way.
pub fn resolve_chain(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(PathBuf, BackupMeta)>> {
    let mut chain = Vec::new();
    let mut cur = dir.to_path_buf();
    loop {
        if chain.len() >= MAX_CHAIN_DEPTH {
            return Err(HyError::Storage(format!(
                "backup chain from {} exceeds {MAX_CHAIN_DEPTH} links (cycle?)",
                dir.display()
            )));
        }
        let meta = read_backup_meta(vfs, &cur)?;
        let base = meta.base.clone();
        chain.push((cur, meta));
        match base {
            Some(b) => cur = PathBuf::from(b),
            None => return Ok(chain),
        }
    }
}

/// Write a pinned backup to `dest` (the `read` of [`read_pinned`]).
/// Segment copies are CRC-validated on read; `verify` re-scans every file
/// from `dest` before the metadata is published.
pub fn write_backup(
    vfs: &Arc<dyn Vfs>,
    store: &SegmentStore,
    dest: &Path,
    base: Option<&Path>,
    verify: bool,
    pin: &Pin,
) -> Result<BackupSummary> {
    if vfs.exists(&dest.join(BACKUP_META_FILE)) {
        return Err(HyError::Storage(format!(
            "{} is already a completed backup; refusing to overwrite",
            dest.display()
        )));
    }
    // Incremental: segment ids the base chain already holds need no copy.
    let held: std::collections::HashSet<u64> = match base {
        Some(b) => resolve_chain(vfs.as_ref(), b)?
            .iter()
            .flat_map(|(_, m)| m.copied_segments.iter().copied())
            .collect(),
        None => Default::default(),
    };
    let seg_dir = dest.join(SEGMENT_DIR);
    vfs.create_dir_all(&seg_dir)?;
    let mut copied_segments = Vec::new();
    let mut base_segments = Vec::new();
    let mut bytes_copied = 0u64;
    for &id in &pin.segments {
        if held.contains(&id) {
            base_segments.push(id);
            continue;
        }
        vfs.crash_point(CP_BACKUP_SEG_COPY)?;
        let bytes = load_segment(store, id)?;
        copy_segment_bytes(vfs.as_ref(), &seg_dir, id, &bytes)?;
        bytes_copied += bytes.len() as u64;
        copied_segments.push(id);
    }
    vfs.sync_dir(&seg_dir)?;
    if let Some(manifest) = &pin.manifest {
        write_durable(vfs.as_ref(), &dest.join(CHECKPOINT_FILE), manifest)?;
        bytes_copied += manifest.len() as u64;
    }
    write_durable(vfs.as_ref(), &dest.join(WAL_FILE), &pin.wal)?;
    bytes_copied += pin.wal.len() as u64;
    vfs.sync_dir(dest)?;

    if verify {
        verify_backup_files(vfs.as_ref(), dest, &copied_segments)?;
    }

    let meta = BackupMeta {
        base_lsn: pin.base_lsn,
        backup_lsn: pin.backup_lsn,
        epoch: pin.epoch,
        verified: verify,
        base: base.map(|b| b.display().to_string()),
        copied_segments,
        base_segments,
        bytes: bytes_copied,
    };
    let encoded = seal_framed(&meta);
    publish_atomic(vfs.as_ref(), dest, BACKUP_META_FILE, &encoded, [None; 3])?;
    Ok(BackupSummary {
        dest: dest.to_path_buf(),
        base_lsn: pin.base_lsn,
        backup_lsn: meta.backup_lsn,
        segments_copied: meta.copied_segments.len() as u64,
        bytes: meta.bytes,
        verified: verify,
        incremental: meta.base.is_some(),
    })
}

/// Full verify rescan: every copied segment re-read from the backup and
/// CRC-validated, the manifest re-decoded, the WAL copy re-scanned.
fn verify_backup_files(vfs: &dyn Vfs, dest: &Path, copied: &[u64]) -> Result<()> {
    for &id in copied {
        let bytes = vfs.read(&dest.join(SEGMENT_DIR).join(segment_file_name(id)))?;
        check_segment_bytes(id, &bytes)?;
    }
    let ckpt = dest.join(CHECKPOINT_FILE);
    if vfs.exists(&ckpt) {
        open_framed::<CheckpointImage>(&vfs.read(&ckpt)?)?;
    }
    scan_wal_raw(vfs, &dest.join(WAL_FILE))?;
    Ok(())
}

/// What a restore materialised.
#[derive(Debug, Clone)]
pub struct RestoreSummary {
    /// The restored manifest's base LSN.
    pub base_lsn: u64,
    /// Highest LSN the restored WAL replays to (the PITR target).
    pub restored_lsn: u64,
    /// Segment files materialised into the new data directory.
    pub segments: u64,
    /// WAL frames written into the new data directory.
    pub wal_frames: u64,
    /// Bytes written in total.
    pub bytes: u64,
}

impl RestoreSummary {
    /// One-line human-readable summary (the server logs this).
    pub fn summary(&self) -> String {
        format!(
            "restored to lsn {} ({} segments, {} wal frames, {} bytes; manifest base lsn {})",
            self.restored_lsn, self.segments, self.wal_frames, self.bytes, self.base_lsn
        )
    }
}

/// Materialise `backup_dir` (plus `archive_dir` spans, if given) into a
/// fresh `dest_dir`, cut strictly at `to_lsn` (or the highest contiguous
/// LSN available). The result is a normal data directory the existing
/// recovery path opens; replication state is not carried over, so the
/// first primary open mints a fresh epoch.
pub fn restore_backup(
    vfs: &Arc<dyn Vfs>,
    backup_dir: &Path,
    archive_dir: Option<&Path>,
    dest_dir: &Path,
    to_lsn: Option<u64>,
) -> Result<RestoreSummary> {
    let chain = resolve_chain(vfs.as_ref(), backup_dir)?;
    // `list_dir` is empty for a missing directory (and FaultVfs tracks
    // only files, so exists() on the dir itself would always miss).
    if !vfs.list_dir(dest_dir)?.is_empty() {
        return Err(HyError::Storage(format!(
            "restore target {} is not empty; refusing to overwrite",
            dest_dir.display()
        )));
    }
    let dest_segs = dest_dir.join(SEGMENT_DIR);
    vfs.create_dir_all(&dest_segs)?;

    let mut bytes_written = 0u64;
    let ckpt_src = backup_dir.join(CHECKPOINT_FILE);
    let (base_lsn, referenced) = if vfs.exists(&ckpt_src) {
        let bytes = vfs.read(&ckpt_src)?;
        let image: CheckpointImage = open_framed(&bytes)?;
        write_durable(vfs.as_ref(), &dest_dir.join(CHECKPOINT_FILE), &bytes)?;
        bytes_written += bytes.len() as u64;
        (image.base_lsn, image.referenced_segments())
    } else {
        (0, Default::default())
    };

    // Copy every referenced segment from the nearest chain link holding it.
    for &id in &referenced {
        let name = segment_file_name(id);
        let src = chain
            .iter()
            .find(|(_, m)| m.copied_segments.contains(&id))
            .map(|(dir, _)| dir.join(SEGMENT_DIR).join(&name))
            .ok_or_else(|| {
                HyError::Storage(format!(
                    "backup chain from {} holds no copy of segment {id}",
                    backup_dir.display()
                ))
            })?;
        let bytes = vfs.read(&src)?;
        copy_segment_bytes(vfs.as_ref(), &dest_segs, id, &bytes)?;
        bytes_written += bytes.len() as u64;
    }
    vfs.sync_dir(&dest_segs)?;

    // Merge the commit history: the backup's WAL copy plus every archive
    // span. Same-LSN frames are identical by construction (both are
    // CRC-verified copies of the primary's log).
    let mut frames: BTreeMap<u64, RawFrame> = BTreeMap::new();
    for f in scan_wal_raw(vfs.as_ref(), &backup_dir.join(WAL_FILE))? {
        frames.insert(f.lsn, f);
    }
    if let Some(adir) = archive_dir {
        for (lsn, f) in read_archived_frames(vfs.as_ref(), adir)? {
            frames.insert(lsn, f);
        }
    }

    // The manifest already contains every commit below base_lsn; replay
    // starts there. Walk the contiguous run to find what is reachable.
    let start = base_lsn.max(1);
    let highest = start - 1 + contiguous_run(start, frames.range(start..).map(|(&l, _)| l)) as u64;
    let target = match to_lsn {
        Some(t) => {
            if t + 1 < start {
                return Err(HyError::Storage(format!(
                    "cannot restore to lsn {t}: the backup's checkpoint already \
                     contains every commit below lsn {base_lsn}; use an older base backup"
                )));
            }
            if t > highest {
                return Err(HyError::Storage(format!(
                    "cannot restore to lsn {t}: backup + archive only reach lsn {highest} \
                     contiguously"
                )));
            }
            t
        }
        None => highest,
    };

    // `start..=target` is empty when target == start - 1 (pure-checkpoint
    // restore): the WAL is just its header.
    let wal_bytes = wal_image((start..=target).map(|lsn| &frames[&lsn]));
    write_durable(vfs.as_ref(), &dest_dir.join(WAL_FILE), &wal_bytes)?;
    bytes_written += wal_bytes.len() as u64;
    vfs.sync_dir(dest_dir)?;

    Ok(RestoreSummary {
        base_lsn,
        restored_lsn: target,
        segments: referenced.len() as u64,
        wal_frames: target + 1 - start,
        bytes: bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> BackupMeta {
        BackupMeta {
            base_lsn: 7,
            backup_lsn: 12,
            epoch: 3,
            verified: true,
            base: Some("backups/full".into()),
            copied_segments: vec![4, 9],
            base_segments: vec![1, 2],
            bytes: 4096,
        }
    }

    #[test]
    fn meta_roundtrips() {
        let m = meta();
        assert_eq!(open_framed::<BackupMeta>(&seal_framed(&m)).unwrap(), m);
        let mut no_base = m;
        no_base.base = None;
        assert_eq!(
            open_framed::<BackupMeta>(&seal_framed(&no_base)).unwrap(),
            no_base
        );
    }

    #[test]
    fn meta_corruption_is_a_hard_error() {
        let decode = open_framed::<BackupMeta>;
        let bytes = seal_framed(&meta());
        let mut bad = bytes.clone();
        bad[10] ^= 0x04;
        assert!(decode(&bad).is_err());
        assert!(decode(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode(&[]).is_err());
        let mut trailing = bytes;
        trailing.insert(trailing.len() - 4, 0);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn missing_meta_marks_an_incomplete_backup() {
        let fault = hylite_common::FaultVfs::new();
        let err = read_backup_meta(&fault, Path::new("backups/half")).unwrap_err();
        assert!(err.message().contains("not a completed backup"), "{err}");
    }
}
