//! How this crate puts a whole file on disk, each way written once:
//!
//! * [`write_durable`] — create, write, fsync.
//! * [`publish_atomic`] — replace a file so that a crash at any instant
//!   leaves either the old content or the new, never a mixture.
//! * [`seal_framed`] / [`open_framed`] — the
//!   `[magic][version][record][crc32]` envelope shared by the checkpoint
//!   manifest, the bootstrap bundle, the backup metadata and the
//!   replication state; [`Signature`], its magic and version, also opens
//!   the WAL and every segment file.

use std::path::Path;

use hylite_common::codec::{At, ByteReader, Codec};
use hylite_common::faultfs::Vfs;
use hylite_common::{crc32, HyError, Result};

/// Create `path` (truncating any existing file), write `bytes`, fsync.
/// The file's *directory entry* is not synced: the caller does that once
/// per batch of files, or uses [`publish_atomic`].
pub fn write_durable(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<()> {
    let mut f = vfs.create(path)?;
    f.write_all(bytes)?;
    f.sync()
}

/// Atomically replace `dir/name` with `bytes`: write and fsync a scratch
/// file (`name` with its extension swapped for `.tmp`), fsync the
/// directory, rename over the destination, fsync the directory again.
///
/// The first directory sync makes the scratch file's entry durable —
/// some filesystems otherwise recover the rename with an empty or missing
/// source even though its data was fsynced. The second makes the rename
/// itself durable, so when this returns the caller may destroy whatever
/// the previous content was the only reference to (old segment files,
/// the WAL frames a checkpoint covers).
///
/// `crash_points` names the [`Vfs::crash_point`]s fired before the scratch
/// file is written, before the rename, and once the rename is durable.
pub fn publish_atomic(
    vfs: &dyn Vfs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
    crash_points: [Option<&str>; 3],
) -> Result<()> {
    let [before_write, before_rename, published] = crash_points;
    let crash_point = |point: Option<&str>| point.map_or(Ok(()), |p| vfs.crash_point(p));
    let tmp = dir.join(Path::new(name).with_extension("tmp"));
    crash_point(before_write)?;
    write_durable(vfs, &tmp, bytes)?;
    vfs.sync_dir(dir)?;
    crash_point(before_rename)?;
    vfs.rename(&tmp, &dir.join(name))?;
    vfs.sync_dir(dir)?;
    crash_point(published)
}

/// The `[u32 magic][u32 version]` every HyLite file opens with, and the
/// name its errors give the file — the one writer and checker of both.
pub struct Signature {
    magic: u32,
    version: u32,
    what: &'static str,
}

impl Signature {
    /// A file whose magic reads `magic` (`b"HYWL"` is `0x4859_574C`).
    pub const fn new(magic: &[u8; 4], version: u32, what: &'static str) -> Signature {
        let magic = u32::from_be_bytes(*magic);
        Signature {
            magic,
            version,
            what,
        }
    }

    /// Append the magic and the version.
    pub fn put(&self, buf: &mut Vec<u8>) {
        u32::put(&self.magic, buf);
        u32::put(&self.version, buf);
    }

    /// Read the magic and the version and refuse a foreign file or another
    /// version of this one.
    pub fn check(&self, r: &mut ByteReader<'_>) -> Result<()> {
        let magic = r.u32()?;
        if magic != self.magic {
            return Err(HyError::Storage(format!(
                "not a HyLite {} (magic {magic:#010x})",
                self.what
            )));
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(HyError::Storage(format!(
                "{} version {version} not supported (this build reads {})",
                self.what, self.version
            )));
        }
        Ok(())
    }
}

/// A record sealed in the `[magic][version][record][crc32]` envelope.
pub trait Sealed: Sized + Codec {
    /// The file's signature.
    const SIGNATURE: Signature;
}

/// Seal a record into its envelope:
/// `[u32 magic][u32 version][record][u32 crc32(everything before)]`.
pub fn seal_framed<T: Sealed>(record: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    T::SIGNATURE.put(&mut buf);
    T::put(record, &mut buf);
    let crc = crc32(&buf);
    u32::put(&crc, &mut buf);
    buf
}

/// Open a [`seal_framed`] envelope: verify the length, the signature and
/// the CRC, decode the record, and reject any byte it leaves unread.
/// Every failure is a hard error naming the file — unlike a torn WAL
/// tail, a damaged sealed file means real data loss and must not be
/// papered over.
pub fn open_framed<T: Sealed>(bytes: &[u8]) -> Result<T> {
    let what = T::SIGNATURE.what;
    if bytes.len() < 12 {
        return Err(HyError::Storage(format!(
            "{what} is {} bytes — too short to be valid",
            bytes.len()
        )));
    }
    let (framed, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let mut r = ByteReader::new(framed);
    T::SIGNATURE.check(&mut r)?;
    if crc32(framed).to_le_bytes() != crc_bytes {
        return Err(HyError::Storage(format!(
            "{what} failed its CRC check (corrupted)"
        )));
    }
    let record = T::get(&mut r, At(what, "", ""))?;
    if !r.is_empty() {
        return Err(HyError::Storage(format!("{what} has trailing bytes")));
    }
    Ok(record)
}

#[cfg(test)]
mod tests {
    // Every file this crate replaces atomically — checkpoint manifest,
    // backup metadata, archive span, archive watermark, replication state —
    // must go through the same six file-system steps, and a checkpoint must
    // destroy nothing (unreferenced segment files, WAL frames) before its
    // manifest rename is durable.
    //
    // `FaultVfs` models directory entries as always durable, so the crash
    // matrix cannot see a missing directory fsync; this test watches the
    // *sequence of operations* through a recording decorator instead.

    use std::collections::BTreeSet;
    use std::path::{Path, PathBuf};
    use std::sync::{Arc, Mutex};

    use crate::checkpoint::{publish_checkpoint, CHECKPOINT_FILE, CHECKPOINT_TMP_FILE};
    use crate::repl::{store_repl_state, REPL_STATE_FILE};
    use crate::wal::encode_commit_frame;
    use crate::{Durability, DurabilityOptions, RawFrame, RedoOp, ReplRole, ReplState, WalArchive};
    use hylite_common::faultfs::{Vfs, VfsFile};
    use hylite_common::{
        crc32, Chunk, ColumnVector, DataType, FaultVfs, Field, MetricsRegistry, Result, Schema,
        Value,
    };

    type Log = Arc<Mutex<Vec<String>>>;

    /// A [`Vfs`] decorator that logs every mutating operation as
    /// `"<op> <path>"` before passing it on.
    #[derive(Debug, Clone)]
    struct RecordingVfs {
        inner: FaultVfs,
        log: Log,
    }

    struct RecordingFile {
        inner: Box<dyn VfsFile>,
        path: PathBuf,
        log: Log,
    }

    fn record(log: &Log, op: &str, path: &Path) {
        log.lock().unwrap().push(format!("{op} {}", path.display()));
    }

    impl VfsFile for RecordingFile {
        fn write_all(&mut self, data: &[u8]) -> Result<()> {
            record(&self.log, "write", &self.path);
            self.inner.write_all(data)
        }

        fn sync(&mut self) -> Result<()> {
            record(&self.log, "sync", &self.path);
            self.inner.sync()
        }
    }

    impl RecordingVfs {
        fn file(&self, inner: Box<dyn VfsFile>, path: &Path) -> Box<dyn VfsFile> {
            Box::new(RecordingFile {
                inner,
                path: path.to_owned(),
                log: Arc::clone(&self.log),
            })
        }
    }

    impl Vfs for RecordingVfs {
        fn create_dir_all(&self, dir: &Path) -> Result<()> {
            self.inner.create_dir_all(dir)
        }

        fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
            record(&self.log, "create", path);
            Ok(self.file(self.inner.create(path)?, path))
        }

        fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
            Ok(self.file(self.inner.open_append(path)?, path))
        }

        fn read(&self, path: &Path) -> Result<Vec<u8>> {
            self.inner.read(path)
        }

        fn list_dir(&self, dir: &Path) -> Result<Vec<String>> {
            self.inner.list_dir(dir)
        }

        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> Result<()> {
            let entry = format!("rename {} -> {}", from.display(), to.display());
            self.log.lock().unwrap().push(entry);
            Vfs::rename(&self.inner, from, to)
        }

        fn remove(&self, path: &Path) -> Result<()> {
            record(&self.log, "remove", path);
            self.inner.remove(path)
        }

        fn truncate(&self, path: &Path, len: u64) -> Result<()> {
            record(&self.log, "truncate", path);
            self.inner.truncate(path, len)
        }

        fn len(&self, path: &Path) -> Result<u64> {
            self.inner.len(path)
        }

        fn sync_dir(&self, dir: &Path) -> Result<()> {
            record(&self.log, "sync_dir", dir);
            self.inner.sync_dir(dir)
        }

        fn crash_point(&self, name: &str) -> Result<()> {
            self.inner.crash_point(name)
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int64)])
    }

    fn insert(v: i64) -> RedoOp {
        RedoOp::Insert {
            table: "t".into(),
            rows: Chunk::new(vec![ColumnVector::from_i64(vec![v])]),
        }
    }

    fn raw_frame(lsn: u64) -> RawFrame {
        let payload = encode_commit_frame(lsn, &[insert(lsn as i64)])[8..].to_vec();
        RawFrame {
            lsn,
            crc: crc32(&payload),
            payload,
        }
    }

    #[test]
    fn every_publisher_takes_the_same_six_steps_and_checkpoints_destroy_nothing_early() {
        let rec = RecordingVfs {
            inner: FaultVfs::new(),
            log: Log::default(),
        };
        let vfs: Arc<dyn Vfs> = Arc::new(rec.clone());
        let metrics = Arc::new(MetricsRegistry::new());

        // Checkpoint manifest and replication state, published directly.
        let plain = Path::new("plain");
        publish_checkpoint(&rec, plain, b"snapshot-v1").unwrap();
        assert_eq!(
            rec.read(&plain.join(CHECKPOINT_FILE)).unwrap(),
            b"snapshot-v1"
        );
        publish_checkpoint(&rec, plain, b"snapshot-v2").unwrap();
        assert_eq!(
            rec.read(&plain.join(CHECKPOINT_FILE)).unwrap(),
            b"snapshot-v2",
            "a second publish replaces the first"
        );
        let state = ReplState {
            role: ReplRole::Primary,
            epoch: 7,
        };
        store_repl_state(&rec, plain, state).unwrap();

        // Archive span and watermark.
        let arch = PathBuf::from("arch");
        let mut archive =
            WalArchive::open(Arc::clone(&vfs), arch.clone(), Arc::clone(&metrics)).unwrap();
        archive
            .archive_frames(&[raw_frame(1), raw_frame(2)])
            .unwrap();

        // A full checkpoint that seals a segment, a backup (its metadata is
        // the fifth publisher), then a checkpoint that GCs that segment and
        // truncates a non-empty WAL.
        let data = Path::new("data");
        let (d, catalog, _) = Durability::open(
            Arc::clone(&vfs),
            data,
            DurabilityOptions::default(),
            metrics,
        )
        .unwrap();
        let create = RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        };
        d.commit(&[create, insert(1)], |_| ()).unwrap();
        let t = catalog.create_table("t", schema()).unwrap();
        {
            let mut g = t.write();
            g.insert_rows(&[vec![Value::Int(1)]]).unwrap();
            g.commit();
        }
        drop(t);
        assert_eq!(d.checkpoint(&catalog).unwrap().segments_sealed, 1);
        let backup = Path::new("bkp");
        d.backup(backup, None, false).unwrap();
        d.commit(&[RedoOp::DropTable { name: "t".into() }], |_| ())
            .unwrap();
        catalog.drop_table("t", false).unwrap();
        d.checkpoint(&catalog).unwrap();

        let log = rec.log.lock().unwrap().clone();

        // Every rename in the log is step five of the one publish sequence.
        let mut published = BTreeSet::new();
        for (i, entry) in log.iter().enumerate() {
            let Some((tmp, dest)) = entry
                .strip_prefix("rename ")
                .and_then(|r| r.split_once(" -> "))
            else {
                continue;
            };
            let dir = Path::new(dest).parent().unwrap().display();
            let want = [
                format!("create {tmp}"),
                format!("write {tmp}"),
                format!("sync {tmp}"),
                format!("sync_dir {dir}"),
                entry.clone(),
                format!("sync_dir {dir}"),
            ];
            assert!(i >= 4 && i + 1 < log.len(), "{dest}: publish cut short");
            assert_eq!(log[i - 4..=i + 1], want, "publish of {dest}");
            assert!(!rec.exists(Path::new(tmp)), "{tmp} left behind");
            if dest.ends_with(CHECKPOINT_FILE) {
                // Recovery sweeps a leftover scratch manifest by this name.
                assert!(tmp.ends_with(CHECKPOINT_TMP_FILE), "{tmp}");
            }
            published.insert(dest.to_owned());
        }
        let want: BTreeSet<String> = [
            plain.join(CHECKPOINT_FILE),
            plain.join(REPL_STATE_FILE),
            arch.join(crate::archive::span_file_name(1, 2)),
            arch.join(crate::archive::ARCHIVE_WATERMARK_FILE),
            data.join(CHECKPOINT_FILE),
            data.join(REPL_STATE_FILE),
            backup.join(crate::backup::BACKUP_META_FILE),
        ]
        .iter()
        .map(|p| p.display().to_string())
        .collect();
        assert_eq!(published, want);

        // Nothing the old manifest was the only reference to is destroyed
        // while the new manifest's rename is not yet durable.
        let manifest = data.join(CHECKPOINT_FILE).display().to_string();
        let segments = format!("remove {}", data.join("segments").display());
        let wal = format!("truncate {}", data.join("wal.hylite").display());
        let (mut rename_pending, mut removes, mut truncates) = (false, 0, 0);
        for entry in &log {
            if entry.starts_with("rename ") && entry.ends_with(&manifest) {
                rename_pending = true;
            } else if *entry == format!("sync_dir {}", data.display()) {
                rename_pending = false;
            } else if entry.starts_with(&segments) {
                assert!(!rename_pending, "segment GC before the manifest is durable");
                removes += 1;
            } else if *entry == wal {
                assert!(
                    !rename_pending,
                    "WAL truncated before the manifest is durable"
                );
                truncates += 1;
            }
        }
        assert_eq!((removes, truncates), (1, 2), "one GC'd segment, two resets");
    }
}
