//! The durability orchestrator: one object owning the WAL writer and the
//! commit lock, shared by every session of a database. It keeps the
//! commit protocol, the role/epoch plumbing and degraded mode; each
//! lifecycle that works on files takes the lock here and runs in the
//! module that owns those files — the checkpoint and compaction in
//! [`crate::checkpoint`], the consistent cut behind backups and replica
//! bootstraps in [`crate::backup`], archiving in [`crate::archive`].
//!
//! Locking: a single commit mutex serializes WAL appends *and* the whole
//! checkpoint. Crucially, commit *publication* — the promotion of a
//! table's working state to its committed state — happens inside the
//! same critical section as the WAL append (see
//! [`Durability::commit`]). That pairing is what makes
//! checkpoints correct: a checkpoint holding the mutex can never observe
//! an acknowledged commit that is in the WAL but not yet in memory (it
//! would pick a `base_lsn` past the commit, snapshot memory without it,
//! and truncate the commit's only durable record), nor memory state whose
//! WAL frame hasn't been appended yet. While a checkpoint runs, commits
//! stall (they queue on the mutex) but readers are completely
//! unaffected — the checkpoint reads committed snapshots, which are
//! `Arc`-stable by construction. This is the main-memory twist on the
//! paper's design: the snapshot mechanism that isolates long analytical
//! queries from OLTP writes is the same one that makes consistent
//! checkpointing cheap.
//!
//! Lock order: the commit mutex is acquired *before* any table lock
//! (publication and checkpoint snapshots take table locks inside it).
//! No caller may wait on the commit mutex while holding a table lock.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use hylite_common::faultfs::Vfs;
use hylite_common::{HyError, MetricsRegistry, Result};
use parking_lot::Mutex;

use crate::archive::{WalArchive, CP_ARCHIVE_ROTATE};
use crate::backup::{
    self, bootstrap_bundle, read_pinned, write_backup, BackupSummary, Pin, CP_BACKUP_SEG_COPY,
};
use crate::catalog::Catalog;
use crate::checkpoint::{
    install_manifest, publish_bundle, take_checkpoint, CheckpointStats, CP_CKPT_AFTER_RENAME,
    CP_CKPT_RENAME, CP_CKPT_WRITE, CP_SEG_WRITE,
};
use crate::files::write_durable;
use crate::pool::BufferPool;
use crate::recovery::{apply_op, recover, RecoveryReport};
use crate::repl::{load_repl_state, next_epoch, store_repl_state, ReplRole, ReplState};
use crate::segment::SegmentStore;
use crate::wal::{
    decode_commit_payload, RawFrame, RedoOp, SyncMode, WalWriter, CP_WAL_AFTER_WRITE,
    CP_WAL_APPEND, CP_WAL_POST_FSYNC, CP_WAL_PRE_FSYNC, CP_WAL_TRUNCATE, WAL_FILE,
};

/// Every named crash point the durability code passes through, in rough
/// chronological order of a commit followed by a checkpoint (then the
/// backup/archive paths). The crash-point matrix test iterates this
/// list; adding a crash point without registering it here means it never
/// gets tested.
pub const CRASH_POINTS: &[&str] = &[
    CP_WAL_APPEND,
    CP_WAL_AFTER_WRITE,
    CP_WAL_PRE_FSYNC,
    CP_WAL_POST_FSYNC,
    CP_SEG_WRITE,
    CP_CKPT_WRITE,
    CP_CKPT_RENAME,
    CP_CKPT_AFTER_RENAME,
    CP_WAL_TRUNCATE,
    CP_BACKUP_SEG_COPY,
    CP_ARCHIVE_ROTATE,
];

/// Tunables for the durability subsystem.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// When the WAL fsyncs relative to commit acknowledgement.
    pub sync_mode: SyncMode,
    /// Role the directory opens under. A primary open mints a fresh
    /// epoch (fencing every replica into a safety re-bootstrap after a
    /// primary restart); a replica open preserves its epoch so catch-up
    /// can resume from the last durably applied LSN.
    pub role: ReplRole,
    /// Allow opening a directory last used as a replica in the
    /// [`ReplRole::Primary`] role (failover promotion). Without this, a
    /// replica directory refuses to open as a primary — the fence
    /// against accidentally writing to (and forking) a follower.
    pub promote: bool,
    /// Byte cap of the buffer pool caching encoded segment blocks. Data
    /// beyond this stays on disk and is read block-by-block on demand —
    /// the larger-than-RAM knob (`--buffer-pool-mb` on the server).
    pub buffer_pool_bytes: usize,
    /// Continuous WAL archiving: when set, every checkpoint first copies
    /// the WAL frames it is about to truncate into this directory (see
    /// [`crate::archive`]). An archive failure warns (`archive.failures`)
    /// and defers the truncation — it never blocks commits.
    pub archive_dir: Option<PathBuf>,
}

/// Group-commit buffer threshold in bytes ([`SyncMode::Buffered`] only).
const GROUP_COMMIT_BYTES: usize = 256 * 1024;

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            sync_mode: SyncMode::Commit,
            role: ReplRole::Primary,
            promote: false,
            buffer_pool_bytes: 64 * 1024 * 1024,
            archive_dir: None,
        }
    }
}

/// What [`Durability::read_replication_tail`] found for a replica's
/// resume position.
#[derive(Debug)]
pub enum ReplTail {
    /// The stream continues: zero or more frames starting exactly at the
    /// requested LSN (empty when the replica is caught up).
    Frames {
        /// CRC-verified frames in LSN order.
        frames: Vec<RawFrame>,
        /// The primary's next LSN (the caught-up watermark).
        next_lsn: u64,
    },
    /// The requested LSN was truncated by a checkpoint; the replica must
    /// re-bootstrap from a snapshot.
    NeedSnapshot,
    /// The replica claims an LSN the primary has not issued yet: its
    /// history forked from ours (e.g. it followed a different primary).
    /// It must re-bootstrap.
    Diverged {
        /// The primary's next LSN, for the error message.
        next_lsn: u64,
    },
}

/// The per-database durability engine. Cheap to share (`Arc` it); all
/// methods take `&self`.
#[derive(Debug)]
pub struct Durability {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    metrics: Arc<MetricsRegistry>,
    wal: Mutex<WalWriter>,
    /// Whether the directory's current role is [`ReplRole::Primary`].
    /// Flips from replica to primary exactly once per incarnation, via
    /// [`Durability::promote_to_primary`] (in-place failover) — never the
    /// other way.
    primary: AtomicBool,
    /// Current replication epoch. Mutated only by
    /// [`Durability::install_bootstrap`] (a replica adopting its
    /// primary's epoch).
    epoch: AtomicU64,
    /// The sealed-segment store (files + id allocation + buffer pool).
    store: Arc<SegmentStore>,
    /// Read-only degraded mode: set when a WAL append or segment seal
    /// hits `ENOSPC` ([`HyError::DiskFull`]). While set, every write is
    /// rejected up front with a retryable `DiskFull` error; reads,
    /// replication streaming, and system views are unaffected. Cleared by
    /// [`Durability::try_resume_writes`] once a space probe succeeds —
    /// no restart needed.
    degraded: AtomicBool,
    /// Continuous WAL archive (`--archive-dir`), if configured. Touched
    /// only under the commit lock (checkpoints) so a `Mutex` suffices.
    archive: Mutex<Option<WalArchive>>,
    /// The most recent completed backup and its wall-clock completion
    /// time (milliseconds since the Unix epoch), for the `hylite.backups`
    /// view.
    last_backup: Mutex<Option<(u64, BackupSummary)>>,
}

impl Durability {
    /// Run recovery against `dir`, then open the WAL for appending.
    /// Returns the durability engine, the recovered catalog, and the
    /// recovery report.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        options: DurabilityOptions,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<(Durability, Catalog, RecoveryReport)> {
        let pool = Arc::new(BufferPool::new(options.buffer_pool_bytes, &metrics));
        let store = SegmentStore::open(Arc::clone(&vfs), dir, pool)?;
        let (catalog, report) = recover(&vfs, dir, &store, &metrics)?;
        let prior = load_repl_state(vfs.as_ref(), dir)?;
        let epoch = match options.role {
            ReplRole::Primary => {
                if matches!(
                    prior,
                    Some(ReplState {
                        role: ReplRole::Replica,
                        ..
                    })
                ) && !options.promote
                {
                    return Err(HyError::Storage(format!(
                        "{} was last used as a replica; opening it writable would fork \
                         its history — pass --promote to take over as primary",
                        dir.display()
                    )));
                }
                // Every primary incarnation gets a fresh epoch. This
                // deliberately fences replicas out after *any* primary
                // restart: in Buffered mode the restart may have lost an
                // acknowledged tail a replica already applied, and a
                // resumed stream would fork silently. The cost is a
                // conservative re-bootstrap after clean restarts too.
                next_epoch(prior.map_or(0, |s| s.epoch))
            }
            // A replica keeps its epoch so it can prove its history is a
            // prefix of its primary's and resume without a snapshot.
            ReplRole::Replica => prior.map_or(0, |s| s.epoch),
        };
        store_repl_state(
            vfs.as_ref(),
            dir,
            ReplState {
                role: options.role,
                epoch,
            },
        )?;
        let wal = WalWriter::open(
            Arc::clone(&vfs),
            dir.join(WAL_FILE),
            options.sync_mode,
            GROUP_COMMIT_BYTES,
            report.next_lsn,
            Arc::clone(&metrics),
        )?;
        let archive = match &options.archive_dir {
            Some(adir) => Some(WalArchive::open(
                Arc::clone(&vfs),
                adir.clone(),
                Arc::clone(&metrics),
            )?),
            None => None,
        };
        if let Some(a) = &archive {
            metrics
                .gauge("wal.archive_lag_frames")
                .set((report.next_lsn.saturating_sub(1)).saturating_sub(a.watermark()) as i64);
        }
        Ok((
            Durability {
                vfs,
                dir: dir.to_owned(),
                metrics,
                wal: Mutex::new(wal),
                primary: AtomicBool::new(options.role == ReplRole::Primary),
                epoch: AtomicU64::new(epoch),
                store,
                degraded: AtomicBool::new(false),
                archive: Mutex::new(archive),
                last_backup: Mutex::new(None),
            },
            catalog,
            report,
        ))
    }

    /// The injectable filesystem this database runs on.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The block cache in front of sealed segments.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured sync mode.
    pub fn sync_mode(&self) -> SyncMode {
        self.wal.lock().sync_mode()
    }

    /// The commit protocol, written once. Under the commit mutex — the
    /// same lock [`Durability::checkpoint`] holds for its whole duration —
    /// append `ops` to the WAL as one commit frame, then run
    /// `settle(logged)` *before the lock is released*: the caller's
    /// in-memory publish when the append succeeded, its rollback when it
    /// failed. When this returns `Ok`, the commit is durable per the
    /// configured [`SyncMode`], published, and may be acknowledged.
    ///
    /// Append and publish sharing one critical section is what keeps
    /// checkpoints correct: a checkpoint can never observe a commit that
    /// is in the WAL but not yet in memory (and truncate its only durable
    /// record), nor the reverse.
    ///
    /// `settle` may take table locks; it must not re-enter the durability
    /// engine (the commit mutex is not reentrant). It runs even while the
    /// node is degraded — the rejection comes from inside the append — so
    /// the rollback can discard the commit's staged in-memory rows. (An
    /// early return once leaked a rejected insert's staged rows into the
    /// next successful commit's publish.)
    pub fn commit(&self, ops: &[RedoOp], settle: impl FnOnce(bool)) -> Result<u64> {
        let logged = {
            let mut wal = self.wal.lock();
            wal.set_degraded(self.degraded());
            let logged = wal.log_commit(ops);
            settle(logged.is_ok());
            logged
        };
        self.noted(logged)
    }

    /// Whether the node is in read-only degraded mode after `ENOSPC`.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// `"ok"` or `"degraded"` — the `node_state` column of
    /// `hylite.replication`.
    pub fn node_state(&self) -> &'static str {
        if self.degraded() {
            "degraded"
        } else {
            "ok"
        }
    }

    /// Pass a write-path result through; a `DiskFull` error flips the
    /// node into degraded mode (idempotent) on the way.
    fn noted<T>(&self, r: Result<T>) -> Result<T> {
        if let Err(HyError::DiskFull(_)) = &r {
            self.metrics.counter("disk.full_errors").inc();
            if !self.degraded.swap(true, Ordering::SeqCst) {
                self.metrics.gauge("node.degraded").set(1);
            }
        }
        r
    }

    /// Attempt to leave degraded mode: probe the data directory for free
    /// space (write + fsync + remove a small scratch file), repair the
    /// WAL writer if the failure poisoned it, and land any buffered
    /// frames. Returns `Ok(true)` when writes were re-enabled,
    /// `Ok(false)` when the node was not degraded or the disk is still
    /// full. The server calls this from a background probe loop so a
    /// degraded node resumes without a restart.
    pub fn try_resume_writes(&self) -> Result<bool> {
        if !self.degraded() {
            return Ok(false);
        }
        let probe = self.dir.join(".space_probe");
        let probe_result = write_durable(self.vfs.as_ref(), &probe, &[0u8; 8192]);
        if self.vfs.exists(&probe) {
            let _ = self.vfs.remove(&probe);
        }
        if probe_result.is_err() {
            return Ok(false);
        }
        let mut wal = self.wal.lock();
        wal.try_unpoison()?;
        if self.noted(wal.flush()).is_err() {
            // Space came back but the WAL still cannot land its buffered
            // frames — stay degraded and let the next probe retry.
            return Ok(false);
        }
        self.degraded.store(false, Ordering::SeqCst);
        wal.set_degraded(false);
        self.metrics.gauge("node.degraded").set(0);
        self.metrics.counter("disk.recoveries").inc();
        Ok(true)
    }

    /// Force any group-commit buffered frames to disk.
    pub fn flush(&self) -> Result<()> {
        let flushed = self.wal.lock().flush();
        self.noted(flushed)
    }

    /// Take a checkpoint: flush the WAL, seal every table's not-yet-sealed
    /// committed rows into new segment files and publish the manifest
    /// (see [`take_checkpoint`]), then archive and truncate the WAL. Holds
    /// the commit lock throughout (readers unaffected).
    pub fn checkpoint(&self, catalog: &Catalog) -> Result<CheckpointStats> {
        let mut wal = self.wal.lock();
        // A segment seal hitting ENOSPC degrades the node just like a
        // failed WAL append would.
        self.noted(self.checkpoint_locked(catalog, &mut wal))
    }

    fn checkpoint_locked(&self, catalog: &Catalog, wal: &mut WalWriter) -> Result<CheckpointStats> {
        let started = Instant::now();
        // Buffered frames must hit the disk first: if the checkpoint then
        // fails part-way, the WAL still covers those commits.
        wal.flush()?;
        let (vfs, dir, metrics) = (self.vfs.as_ref(), &self.dir, &self.metrics);
        let mut stats = take_checkpoint(vfs, dir, &self.store, catalog, wal.next_lsn(), metrics)?;
        self.rotate_wal(wal)?;
        stats.duration_ms = started.elapsed().as_millis() as u64;
        metrics
            .histogram("checkpoint.duration_ms")
            .record(stats.duration_ms);
        metrics.counter("checkpoint.count").inc();
        metrics
            .counter("checkpoint.bytes_written")
            .add(stats.bytes + stats.segment_bytes);
        metrics
            .counter("checkpoint.segments_sealed")
            .add(stats.segments_sealed as u64);
        metrics
            .counter("checkpoint.segment_bytes_written")
            .add(stats.segment_bytes);
        metrics
            .gauge("storage.disk_bytes")
            .set(self.store.disk_bytes()? as i64);
        Ok(stats)
    }

    /// Complete the checkpoint by truncating the WAL — after first
    /// copying the frames it would destroy into the archive, when one is
    /// configured. Archive trouble is recorded and *deferred*, never
    /// propagated: the WAL is kept (recovery skips frames below
    /// `base_lsn`, so the longer WAL is only a replay cost) and the next
    /// checkpoint retries the whole span.
    fn rotate_wal(&self, wal: &mut WalWriter) -> Result<()> {
        let mut guard = self.archive.lock();
        if let Some(archive) = guard.as_mut() {
            if archive.archive_frames(&wal.frames()?).is_err() {
                self.metrics.counter("archive.failures").inc();
                let lag = wal
                    .next_lsn()
                    .saturating_sub(1)
                    .saturating_sub(archive.watermark());
                self.metrics.gauge("wal.archive_lag_frames").set(lag as i64);
                // Deliberately non-fatal: commits must never block on the
                // archive. If the vfs itself is failing, the checkpoint's
                // next I/O will surface it.
                return Ok(());
            }
            self.metrics.gauge("wal.archive_lag_frames").set(0);
        }
        wal.reset()
    }

    /// Graceful shutdown: one final checkpoint (which also flushes any
    /// buffered commits).
    pub fn close(&self, catalog: &Catalog) -> Result<CheckpointStats> {
        self.checkpoint(catalog)
    }

    // -- backup -----------------------------------------------------------

    /// Online backup into `dest`. The commit lock is held only long
    /// enough to pin a consistent cut (see [`backup::pin`]); the bulk copy
    /// runs outside it, so commits proceed while segment files stream out
    /// (see [`read_pinned`]).
    pub fn backup(&self, dest: &Path, base: Option<&Path>, verify: bool) -> Result<BackupSummary> {
        let write = |pin: &Pin| write_backup(&self.vfs, &self.store, dest, base, verify, pin);
        let repin = || self.pin(&mut self.wal.lock());
        let summary = read_pinned(repin()?, repin, write)?;
        self.metrics.counter("backup.count").inc();
        self.metrics.counter("backup.bytes").add(summary.bytes);
        self.metrics
            .gauge("backup.last_lsn")
            .set(summary.backup_lsn as i64);
        let at_unix_ms = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        *self.last_backup.lock() = Some((at_unix_ms, summary.clone()));
        Ok(summary)
    }

    /// Pin a consistent cut; the caller holds the commit lock (`wal`).
    fn pin(&self, wal: &mut WalWriter) -> Result<Pin> {
        backup::pin(self.vfs.as_ref(), &self.dir, wal, self.epoch())
    }

    /// The most recent completed backup, if any, as `(completion time in
    /// milliseconds since the Unix epoch, summary)` — the `hylite.backups`
    /// system-view row.
    pub fn last_backup(&self) -> Option<(u64, BackupSummary)> {
        self.last_backup.lock().clone()
    }

    /// The archive watermark (highest archived LSN), or `None` when no
    /// archive is configured.
    pub fn archive_watermark(&self) -> Option<u64> {
        self.archive.lock().as_ref().map(WalArchive::watermark)
    }

    // -- replication ------------------------------------------------------

    /// The directory's current role. Starts as the role it was opened
    /// under; an in-place [`Durability::promote_to_primary`] flips a
    /// replica to primary without a restart.
    pub fn role(&self) -> ReplRole {
        if self.primary.load(Ordering::SeqCst) {
            ReplRole::Primary
        } else {
            ReplRole::Replica
        }
    }

    /// Promote this replica to a writable primary **in place**: mint a
    /// fresh epoch, durably persist the new role + epoch in
    /// `replstate.hylite`, and flip [`Durability::role`]. The fresh epoch
    /// fences everything that followed the *old* primary — any replica
    /// repointed here presents a foreign epoch and is re-bootstrapped
    /// instead of resuming over a potential fork.
    ///
    /// The caller must have stopped the apply loop first: no replicated
    /// frame may land after the flip. Holds the commit lock so the flip
    /// serializes against commits and checkpoints. Idempotent on a node
    /// that is already a primary (returns the current epoch unchanged).
    pub fn promote_to_primary(&self) -> Result<u64> {
        let _wal = self.wal.lock();
        if self.role() == ReplRole::Primary {
            return Ok(self.epoch());
        }
        let epoch = next_epoch(self.epoch());
        store_repl_state(
            self.vfs.as_ref(),
            &self.dir,
            ReplState {
                role: ReplRole::Primary,
                epoch,
            },
        )?;
        self.epoch.store(epoch, Ordering::SeqCst);
        self.primary.store(true, Ordering::SeqCst);
        self.metrics.counter("repl.promotions").inc();
        Ok(epoch)
    }

    /// The current replication epoch (see [`crate::repl`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bytes of the WAL known durable. Replicas use this as their
    /// checkpoint-pressure signal.
    pub fn wal_durable_len(&self) -> u64 {
        self.wal.lock().durable_len()
    }

    /// The next LSN the local WAL will assign (one past the last durable
    /// commit). A replica resumes replication at exactly this LSN.
    pub fn next_lsn(&self) -> u64 {
        self.wal.lock().next_lsn()
    }

    /// Read the WAL tail a replica resuming at `from_lsn` needs, at most
    /// `max_frames` frames per call. Serves only durable (flushed)
    /// frames; holds the commit lock for the duration so the tail is
    /// always a consistent prefix of the log.
    pub fn read_replication_tail(&self, from_lsn: u64, max_frames: usize) -> Result<ReplTail> {
        let mut wal = self.wal.lock();
        let next_lsn = wal.next_lsn();
        if from_lsn > next_lsn {
            return Ok(ReplTail::Diverged { next_lsn });
        }
        if from_lsn == next_lsn {
            return Ok(ReplTail::Frames {
                frames: Vec::new(),
                next_lsn,
            });
        }
        // The requested frames exist; make sure they are on disk (group
        // commit may still be buffering them) and serve from the file,
        // re-verifying each CRC on the way out.
        wal.flush()?;
        let frames = wal.frames()?;
        match frames.iter().position(|f| f.lsn == from_lsn) {
            Some(i) => {
                let upper = frames.len().min(i + max_frames.max(1));
                Ok(ReplTail::Frames {
                    frames: frames[i..upper].to_vec(),
                    next_lsn,
                })
            }
            // Truncated by a checkpoint: the history exists but not in
            // log form any more.
            None => Ok(ReplTail::NeedSnapshot),
        }
    }

    /// Encode a bootstrap snapshot for a replica: run a local checkpoint
    /// (sealing any resident delta — segment files are the shipping
    /// format) and pin the cut it published, both under the commit lock,
    /// then bundle the manifest plus every referenced segment file outside
    /// it (see [`read_pinned`]). As a side effect the primary gets a fresh
    /// checkpoint, which only advances its own recovery position.
    pub fn bootstrap_snapshot(&self, catalog: &Catalog) -> Result<(u64, Vec<u8>)> {
        let pin = {
            let mut wal = self.wal.lock();
            self.checkpoint_locked(catalog, &mut wal)?;
            self.pin(&mut wal)?
        };
        let bundle = |pin: &Pin| Ok((pin.base_lsn, bootstrap_bundle(&self.store, pin)?));
        read_pinned(pin, || self.pin(&mut self.wal.lock()), bundle)
    }

    /// Apply one replicated WAL frame: re-verify its CRC, require it to
    /// continue the local log exactly (LSN gap ⇒ error, see
    /// [`WalWriter::append_raw_frame`]), make it durable, then apply its
    /// ops through the normal redo path — all inside the commit-lock
    /// critical section, so a concurrent replica checkpoint observes the
    /// append and the publish atomically. Returns the number of redo ops
    /// applied.
    pub fn apply_replicated_frame(
        &self,
        catalog: &Catalog,
        lsn: u64,
        crc: u32,
        payload: &[u8],
    ) -> Result<u64> {
        // Decode before touching the file: a CRC-valid frame that fails
        // to parse is corruption and must not become durable here.
        let (payload_lsn, ops) = decode_commit_payload(payload)?;
        if payload_lsn != lsn {
            return Err(HyError::Storage(format!(
                "replicated frame header lsn {lsn} disagrees with payload lsn {payload_lsn}"
            )));
        }
        let mut wal = self.wal.lock();
        // A replica with a full disk degrades too: it keeps serving
        // reads but stops acknowledging frames it cannot persist.
        self.noted(wal.append_raw_frame(lsn, crc, payload))?;
        let mut applied = 0u64;
        for op in ops {
            if apply_op(catalog, op) {
                applied += 1;
            }
        }
        self.metrics.counter("repl.frames_applied").inc();
        Ok(applied)
    }

    /// Replace this replica's entire local state with a bootstrap
    /// bundle from its primary: write the shipped segment files under
    /// locally allocated ids (a fresh id can never collide with the
    /// replica's own files; a crash mid-install leaves only orphans the
    /// next recovery deletes), publish the remapped manifest, reset the
    /// WAL to restart at the bundle's base LSN, swap the catalog
    /// contents, and durably adopt the primary's epoch. The caller must
    /// hold the writer gate so no session observes the swap half-done.
    pub fn install_bootstrap(&self, catalog: &Catalog, epoch: u64, data: &[u8]) -> Result<u64> {
        let mut wal = self.wal.lock();
        let image = publish_bundle(self.vfs.as_ref(), &self.dir, &self.store, data)?;
        wal.reset()?;
        wal.set_next_lsn(image.base_lsn);
        catalog.clear();
        let referenced = image.referenced_segments();
        let rows = install_manifest(image, catalog, &self.store)?;
        // The replica's pre-bootstrap segment files are garbage now.
        self.store.gc(&referenced)?;
        store_repl_state(
            self.vfs.as_ref(),
            &self.dir,
            ReplState {
                role: self.role(),
                epoch,
            },
        )?;
        self.epoch.store(epoch, Ordering::SeqCst);
        self.metrics.counter("repl.bootstraps").inc();
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{Chunk, ColumnVector, DataType, FaultVfs, Field, Schema};
    use std::path::PathBuf;

    fn open_fault(
        fault: &FaultVfs,
        options: DurabilityOptions,
    ) -> (Durability, Catalog, RecoveryReport) {
        Durability::open(
            Arc::new(fault.clone()) as Arc<dyn Vfs>,
            &PathBuf::from("data"),
            options,
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap()
    }

    fn insert(v: i64) -> RedoOp {
        RedoOp::Insert {
            table: "t".into(),
            rows: Chunk::new(vec![ColumnVector::from_i64(vec![v])]),
        }
    }

    fn create() -> RedoOp {
        RedoOp::CreateTable {
            name: "t".into(),
            schema: Schema::new(vec![Field::new("x", DataType::Int64)]),
        }
    }

    #[test]
    fn commit_checkpoint_reopen_cycle() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        d.commit(&[create()], |_| ()).unwrap();
        d.commit(&[insert(1)], |_| ()).unwrap();
        // Mirror in memory so the checkpoint has something to snapshot.
        let t = catalog
            .create_table("t", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
        {
            let mut g = t.write();
            g.insert_rows(&[vec![hylite_common::Value::Int(1)]])
                .unwrap();
            g.commit();
        }
        let stats = d.checkpoint(&catalog).unwrap();
        assert_eq!(stats.tables, 1);
        assert!(stats.base_lsn >= 3);
        // Post-checkpoint commits land in the truncated WAL.
        d.commit(&[insert(2)], |_| ()).unwrap();
        drop(d);
        let (_, catalog, report) = open_fault(&fault, DurabilityOptions::default());
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed_records, 1);
        let t = catalog.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 2);
    }

    #[test]
    fn crash_points_list_is_exhaustive_and_ordered() {
        assert_eq!(CRASH_POINTS.len(), 11);
        let unique: std::collections::BTreeSet<_> = CRASH_POINTS.iter().collect();
        assert_eq!(unique.len(), CRASH_POINTS.len());
    }

    /// Commit a row durably *and* mirror it into the in-memory table, the
    /// way a real transaction's publication step does.
    fn committed_insert(d: &Durability, catalog: &Catalog, v: i64) -> u64 {
        let lsn = d.commit(&[insert(v)], |_| ()).unwrap();
        mirror_insert(catalog, v);
        lsn
    }

    #[test]
    fn checkpoint_archives_wal_and_watermark_tracks_truncations() {
        let fault = FaultVfs::new();
        let options = DurabilityOptions {
            archive_dir: Some(PathBuf::from("arch")),
            ..DurabilityOptions::default()
        };
        let (d, catalog, _) = open_fault(&fault, options.clone());
        d.commit(&[create()], |_| ()).unwrap();
        make_table(&catalog);
        committed_insert(&d, &catalog, 1);
        committed_insert(&d, &catalog, 2);
        d.checkpoint(&catalog).unwrap();
        assert_eq!(d.archive_watermark(), Some(3));
        committed_insert(&d, &catalog, 3);
        d.checkpoint(&catalog).unwrap();
        assert_eq!(d.archive_watermark(), Some(4));
        // Every truncated frame survives in the archive, contiguously.
        let frames = crate::archive::read_archived_frames(&fault, Path::new("arch")).unwrap();
        assert_eq!(frames.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // The watermark is durable across reopen.
        drop(d);
        let (d, _, _) = open_fault(&fault, options);
        assert_eq!(d.archive_watermark(), Some(4));
    }

    #[test]
    fn checkpoint_compacts_dead_heavy_quiescent_tables() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        d.commit(&[create()], |_| ()).unwrap();
        make_table(&catalog);
        for v in 0..10 {
            committed_insert(&d, &catalog, v);
        }
        d.checkpoint(&catalog).unwrap();
        // Kill 6 of 10 rows: dead fraction 0.6 >= the default 0.3.
        let dead: Vec<usize> = (0..6).collect();
        d.commit(
            &[RedoOp::Delete {
                table: "t".into(),
                row_ids: dead.iter().map(|&i| i as u64).collect(),
            }],
            |_| (),
        )
        .unwrap();
        {
            let t = catalog.get_table("t").unwrap();
            let mut g = t.write();
            g.delete_rows(&dead).unwrap();
            g.commit();
        }
        d.checkpoint(&catalog).unwrap();
        {
            let t = catalog.get_table("t").unwrap();
            let g = t.read();
            assert_eq!(g.committed_live_rows(), 4);
            // Compaction physically dropped the dead rows.
            assert_eq!(g.dead_fraction(), 0.0);
        }
        // The compacted manifest is what recovery loads.
        drop(d);
        let (_, catalog, report) = open_fault(&fault, DurabilityOptions::default());
        assert!(report.checkpoint_loaded);
        assert_eq!(report.checkpoint_rows, 4);
        let t = catalog.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 4);
        assert_eq!(t.read().dead_fraction(), 0.0);
    }

    #[test]
    fn compaction_skips_tables_with_staged_rows() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        d.commit(&[create()], |_| ()).unwrap();
        make_table(&catalog);
        for v in 0..4 {
            committed_insert(&d, &catalog, v);
        }
        d.commit(
            &[RedoOp::Delete {
                table: "t".into(),
                row_ids: vec![0, 1, 2],
            }],
            |_| (),
        )
        .unwrap();
        {
            let t = catalog.get_table("t").unwrap();
            let mut g = t.write();
            g.delete_rows(&[0, 1, 2]).unwrap();
            g.commit();
            // Stage (but do not commit) a row: the table is not quiescent.
            g.insert_rows(&[vec![hylite_common::Value::Int(99)]])
                .unwrap();
        }
        d.checkpoint(&catalog).unwrap();
        let t = catalog.get_table("t").unwrap();
        // Dead rows are still present — compaction must not renumber rows
        // underneath an in-flight transaction.
        assert!(t.read().dead_fraction() > 0.0);
    }

    #[test]
    fn backup_restore_roundtrip_with_pitr_cut() {
        let fault = FaultVfs::new();
        let options = DurabilityOptions {
            archive_dir: Some(PathBuf::from("arch")),
            ..DurabilityOptions::default()
        };
        let (d, catalog, _) = open_fault(&fault, options);
        d.commit(&[create()], |_| ()).unwrap();
        make_table(&catalog);
        committed_insert(&d, &catalog, 1);
        committed_insert(&d, &catalog, 2);
        d.checkpoint(&catalog).unwrap();
        committed_insert(&d, &catalog, 3);
        let summary = d.backup(Path::new("bkp"), None, true).unwrap();
        assert!(summary.verified);
        assert!(!summary.incremental);
        assert_eq!(summary.backup_lsn, 4);
        assert_eq!(d.last_backup().unwrap().1.backup_lsn, 4);
        // Traffic continues after the backup; a checkpoint archives it.
        let stop_lsn = committed_insert(&d, &catalog, 4);
        committed_insert(&d, &catalog, 5);
        d.checkpoint(&catalog).unwrap();

        // PITR: restore to just after value 4 landed, dropping value 5.
        let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
        crate::backup::restore_backup(
            &vfs,
            Path::new("bkp"),
            Some(Path::new("arch")),
            Path::new("restored"),
            Some(stop_lsn),
        )
        .unwrap();
        let (d2, catalog2, report) = Durability::open(
            Arc::clone(&vfs),
            &PathBuf::from("restored"),
            DurabilityOptions::default(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        assert!(report.checkpoint_loaded);
        let t = catalog2.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 4); // values 1..=4
                                                       // The restored node is re-epoched: it must not splice into the
                                                       // old fleet's replication timeline.
        assert!(d2.epoch() != d.epoch());
    }

    #[test]
    fn incremental_backup_copies_only_new_segments() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        d.commit(&[create()], |_| ()).unwrap();
        make_table(&catalog);
        committed_insert(&d, &catalog, 1);
        d.checkpoint(&catalog).unwrap();
        let full = d.backup(Path::new("b0"), None, false).unwrap();
        assert_eq!(full.segments_copied, 1);
        // No new sealed segments: the incremental copies zero files.
        let inc = d
            .backup(Path::new("b1"), Some(Path::new("b0")), false)
            .unwrap();
        assert!(inc.incremental);
        assert_eq!(inc.segments_copied, 0);
        assert!(inc.bytes < full.bytes);
        // A restore from the incremental pulls segments through the chain.
        let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
        let restored =
            crate::backup::restore_backup(&vfs, Path::new("b1"), None, Path::new("restored"), None)
                .unwrap();
        assert_eq!(restored.segments, 1);
        let (_, catalog2, _) = Durability::open(
            vfs,
            &PathBuf::from("restored"),
            DurabilityOptions::default(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        let t = catalog2.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 1);
    }

    fn replica_options() -> DurabilityOptions {
        DurabilityOptions {
            role: ReplRole::Replica,
            ..DurabilityOptions::default()
        }
    }

    fn mirror_insert(catalog: &Catalog, v: i64) {
        let t = catalog.get_table("t").unwrap();
        let mut g = t.write();
        g.insert_rows(&[vec![hylite_common::Value::Int(v)]])
            .unwrap();
        g.commit();
    }

    fn make_table(catalog: &Catalog) {
        catalog
            .create_table("t", Schema::new(vec![Field::new("x", DataType::Int64)]))
            .unwrap();
    }

    #[test]
    fn primary_open_mints_fresh_epoch_and_replica_open_keeps_it() {
        let fault = FaultVfs::new();
        let (d, _, _) = open_fault(&fault, DurabilityOptions::default());
        let e1 = d.epoch();
        assert_ne!(e1, 0);
        assert_eq!(d.role(), ReplRole::Primary);
        drop(d);
        let (d, _, _) = open_fault(&fault, DurabilityOptions::default());
        assert_ne!(d.epoch(), e1, "every primary incarnation is a new epoch");
        drop(d);

        let replica = FaultVfs::new();
        let (r, _, _) = open_fault(&replica, replica_options());
        assert_eq!(r.epoch(), 0, "fresh replica has no epoch");
        assert_eq!(r.role(), ReplRole::Replica);
        drop(r);
        let (r, _, _) = open_fault(&replica, replica_options());
        assert_eq!(r.epoch(), 0, "replica reopen preserves its epoch");
    }

    #[test]
    fn replica_dir_refuses_primary_open_without_promote() {
        let fault = FaultVfs::new();
        let (r, _, _) = open_fault(&fault, replica_options());
        drop(r);
        let err = Durability::open(
            Arc::new(fault.clone()) as Arc<dyn Vfs>,
            &PathBuf::from("data"),
            DurabilityOptions::default(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap_err();
        assert!(err.message().contains("--promote"), "{err}");
        // Promotion takes over with a fresh epoch.
        let (p, _, _) = open_fault(
            &fault,
            DurabilityOptions {
                promote: true,
                ..DurabilityOptions::default()
            },
        );
        assert_eq!(p.role(), ReplRole::Primary);
        assert_ne!(p.epoch(), 0);
    }

    #[test]
    fn in_place_promotion_flips_role_and_mints_fresh_epoch_durably() {
        let fault = FaultVfs::new();
        let (r, rcat, _) = open_fault(&fault, replica_options());
        // Give the replica a nonzero epoch as a bootstrap would.
        make_table(&rcat);
        let (p, pcat, _) = open_fault(&FaultVfs::new(), DurabilityOptions::default());
        make_table(&pcat);
        let (_, snap) = p.bootstrap_snapshot(&pcat).unwrap();
        r.install_bootstrap(&rcat, p.epoch(), &snap).unwrap();
        let old_epoch = r.epoch();
        assert_eq!(r.role(), ReplRole::Replica);

        let epoch = r.promote_to_primary().unwrap();
        assert_eq!(r.role(), ReplRole::Primary);
        assert_ne!(epoch, 0);
        assert_ne!(epoch, old_epoch, "promotion fences the old incarnation");
        // Idempotent on a primary: same epoch back, no re-mint.
        assert_eq!(r.promote_to_primary().unwrap(), epoch);
        // The flip is durable: a plain primary reopen needs no --promote.
        drop(r);
        let (reopened, _, _) = open_fault(&fault, DurabilityOptions::default());
        assert_eq!(reopened.role(), ReplRole::Primary);
    }

    #[test]
    fn replication_tail_serves_resume_points() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        make_table(&catalog);
        d.commit(&[create()], |_| ()).unwrap(); // lsn 1
        d.commit(&[insert(1)], |_| ()).unwrap(); // lsn 2
        d.commit(&[insert(2)], |_| ()).unwrap(); // lsn 3

        // Caught-up replica gets an empty tail.
        match d.read_replication_tail(4, 64).unwrap() {
            ReplTail::Frames { frames, next_lsn } => {
                assert!(frames.is_empty());
                assert_eq!(next_lsn, 4);
            }
            other => panic!("{other:?}"),
        }
        // Mid-log resume gets exactly the missing suffix.
        match d.read_replication_tail(2, 64).unwrap() {
            ReplTail::Frames { frames, next_lsn } => {
                assert_eq!(frames.iter().map(|f| f.lsn).collect::<Vec<_>>(), vec![2, 3]);
                assert_eq!(next_lsn, 4);
            }
            other => panic!("{other:?}"),
        }
        // max_frames bounds the batch.
        match d.read_replication_tail(1, 2).unwrap() {
            ReplTail::Frames { frames, .. } => {
                assert_eq!(frames.iter().map(|f| f.lsn).collect::<Vec<_>>(), vec![1, 2]);
            }
            other => panic!("{other:?}"),
        }
        // A replica ahead of the primary has forked.
        assert!(matches!(
            d.read_replication_tail(99, 64).unwrap(),
            ReplTail::Diverged { next_lsn: 4 }
        ));
        // After a checkpoint truncates the WAL, old LSNs need a snapshot.
        mirror_insert(&catalog, 1);
        mirror_insert(&catalog, 2);
        d.checkpoint(&catalog).unwrap();
        assert!(matches!(
            d.read_replication_tail(2, 64).unwrap(),
            ReplTail::NeedSnapshot
        ));
    }

    #[test]
    fn bootstrap_roundtrip_applies_frames_after_snapshot() {
        // Primary: two committed rows, then a snapshot, then one more row.
        let primary = FaultVfs::new();
        let (p, pcat, _) = open_fault(&primary, DurabilityOptions::default());
        make_table(&pcat);
        p.commit(&[create()], |_| ()).unwrap();
        p.commit(&[insert(1)], |_| ()).unwrap();
        mirror_insert(&pcat, 1);
        let (base_lsn, snapshot) = p.bootstrap_snapshot(&pcat).unwrap();
        assert_eq!(base_lsn, 3);
        p.commit(&[insert(2)], |_| ()).unwrap(); // lsn 3
        mirror_insert(&pcat, 2);

        // Replica: install the snapshot, then apply the tail.
        let replica = FaultVfs::new();
        let (r, rcat, _) = open_fault(&replica, replica_options());
        let rows = r.install_bootstrap(&rcat, p.epoch(), &snapshot).unwrap();
        assert_eq!(rows, 1);
        assert_eq!(r.epoch(), p.epoch(), "replica adopted the primary's epoch");
        let tail = match p.read_replication_tail(base_lsn, 64).unwrap() {
            ReplTail::Frames { frames, .. } => frames,
            other => panic!("{other:?}"),
        };
        assert_eq!(tail.len(), 1);
        for f in &tail {
            r.apply_replicated_frame(&rcat, f.lsn, f.crc, &f.payload)
                .unwrap();
        }
        let t = rcat.get_table("t").unwrap();
        assert_eq!(t.read().committed_live_rows(), 2);

        // A replica restart resumes from its durable LSN, not a snapshot.
        drop(r);
        let (r, rcat, report) = open_fault(&replica, replica_options());
        assert_eq!(r.epoch(), p.epoch(), "epoch survives the restart");
        assert_eq!(report.next_lsn, 4);
        assert_eq!(
            rcat.get_table("t").unwrap().read().committed_live_rows(),
            2,
            "checkpoint + applied frame both recovered"
        );
    }

    #[test]
    fn disk_full_degrades_node_and_probe_resumes_writes() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        make_table(&catalog);
        d.commit(&[create()], |_| ()).unwrap();
        assert!(!d.try_resume_writes().unwrap(), "healthy node: no-op");

        fault.set_disk_full(true);
        let err = d.commit(&[insert(1)], |_| ()).unwrap_err();
        assert!(matches!(err, HyError::DiskFull(_)), "{err}");
        assert!(d.degraded());
        assert_eq!(d.node_state(), "degraded");

        // Later writes are rejected up front, same typed error.
        let err = d.commit(&[insert(2)], |_| ()).unwrap_err();
        assert!(matches!(err, HyError::DiskFull(_)), "{err}");
        // Replication reads of the durable log still serve.
        match d.read_replication_tail(1, 64).unwrap() {
            ReplTail::Frames { frames, .. } => assert_eq!(frames.len(), 1),
            other => panic!("{other:?}"),
        }

        // The probe fails while the disk is still full...
        assert!(!d.try_resume_writes().unwrap());
        assert!(d.degraded());
        // ...and succeeds once space frees: writes resume, no restart.
        fault.set_disk_full(false);
        assert!(d.try_resume_writes().unwrap());
        assert_eq!(d.node_state(), "ok");
        d.commit(&[insert(3)], |_| ()).unwrap();
        match d.read_replication_tail(1, 64).unwrap() {
            ReplTail::Frames { frames, .. } => assert_eq!(frames.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn segment_seal_enospc_degrades_via_checkpoint() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        make_table(&catalog);
        d.commit(&[create()], |_| ()).unwrap();
        d.commit(&[insert(1)], |_| ()).unwrap();
        mirror_insert(&catalog, 1);
        fault.set_disk_full(true);
        let err = d.checkpoint(&catalog).unwrap_err();
        assert!(matches!(err, HyError::DiskFull(_)), "{err}");
        assert!(d.degraded());
        fault.set_disk_full(false);
        assert!(d.try_resume_writes().unwrap());
        // The interrupted checkpoint retries cleanly.
        let stats = d.checkpoint(&catalog).unwrap();
        assert_eq!(stats.tables, 1);
    }

    #[test]
    fn applied_frame_with_wrong_payload_lsn_is_rejected() {
        let fault = FaultVfs::new();
        let (d, catalog, _) = open_fault(&fault, DurabilityOptions::default());
        make_table(&catalog);
        let frame = crate::wal::encode_commit_frame(1, &[insert(1)]);
        let payload = frame[8..].to_vec();
        let crc = hylite_common::crc32(&payload);
        // Header lsn 2 vs payload lsn 1: refused before anything lands.
        assert!(d
            .apply_replicated_frame(&catalog, 2, crc, &payload)
            .is_err());
        assert_eq!(
            d.read_replication_tail(1, 64).ok().map(|t| match t {
                ReplTail::Frames { frames, .. } => frames.len(),
                _ => usize::MAX,
            }),
            Some(0)
        );
    }
}
