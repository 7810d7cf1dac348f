//! Online backup, WAL archiving, and point-in-time recovery, end to
//! end: a live server backed up over the wire while writers race the
//! cut, incremental chains driven through SQL `BACKUP TO`, archived-WAL
//! PITR to an exact target, and crash-points inside the backup and
//! archive paths ([`FaultVfs`]-driven) proving a half-written artifact
//! is never restorable and a torn archive span is never visible.
//!
//! The invariant under test: **a restored directory contains exactly
//! the acknowledged commits up to the requested point in time — a
//! consistent cut, never a hole — and starts a fresh timeline the old
//! fleet refuses to resume.**

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hylite_client::{request_backup, HyliteClient};
use hylite_common::faultfs::{CrashSpec, FaultVfs, Vfs, VfsFile};
use hylite_common::wire::{self, Frame, PROTOCOL_VERSION};
use hylite_common::Value;
use hylite_core::{restore_backup, Database, DurabilityOptions, ReplRole};
use hylite_server::{Server, ServerConfig};
use hylite_storage::archive::{read_archived_frames, CP_ARCHIVE_ROTATE};
use hylite_storage::backup::CP_BACKUP_SEG_COPY;
use hylite_storage::wal::WAL_FILE;
use hylite_storage::SEGMENT_DIR;

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

fn open(fault: &FaultVfs) -> Database {
    open_at(fault, &data_dir(), DurabilityOptions::default())
}

fn open_at(fault: &FaultVfs, dir: &Path, options: DurabilityOptions) -> Database {
    Database::open_with(Arc::new(fault.clone()) as Arc<dyn Vfs>, dir, options)
        .expect("open durable database")
}

fn archived_options() -> DurabilityOptions {
    DurabilityOptions {
        archive_dir: Some(PathBuf::from("archive")),
        ..DurabilityOptions::default()
    }
}

/// Seed table `t` with x = 1, 2, 3 (three acknowledged autocommits).
fn seed(fault: &FaultVfs) -> Database {
    let db = open(fault);
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 1..=3 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    db
}

/// All values of `t.x` in ascending order.
fn values(db: &Database) -> Vec<i64> {
    let r = db.execute("SELECT x FROM t ORDER BY x").expect("dump t");
    (0..r.row_count())
        .map(|i| match r.value(i, 0).unwrap() {
            Value::Int(v) => v,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

fn restore(
    fault: &FaultVfs,
    backup: &str,
    archive: Option<&str>,
    dest: &str,
    to_lsn: Option<u64>,
) -> hylite_core::RestoreSummary {
    let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
    restore_backup(
        &vfs,
        Path::new(backup),
        archive.map(Path::new),
        Path::new(dest),
        to_lsn,
    )
    .expect("restore backup")
}

// ---------------------------------------------------------------------
// The wire path: a live server is backed up while writers race the cut.
// ---------------------------------------------------------------------

/// `hylite-cli --backup` semantics over real TCP: the backup pins a
/// consistent cut while concurrent sessions keep committing, the
/// restored directory holds every pre-backup ack plus a subset of the
/// racing writes (no duplicates, no phantoms), and `hylite.backups`
/// reports the run.
#[test]
fn online_backup_over_the_wire_is_a_consistent_cut_under_concurrent_writes() {
    let fault = FaultVfs::new();
    let db = Arc::new(seed(&fault));
    db.checkpoint().unwrap(); // sealed segments for the copy phase
    let handle = Server::start(ServerConfig::ephemeral(), Arc::clone(&db)).unwrap();
    let addr = handle.local_addr().to_string();

    // Two sessions race the backup with disjoint value ranges.
    let writers: Vec<_> = [100i64, 200]
        .into_iter()
        .map(|base| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = HyliteClient::connect(&addr).expect("writer connect");
                for v in base..base + 20 {
                    client
                        .query(&format!("INSERT INTO t VALUES ({v})"))
                        .expect("racing insert");
                }
                client.close().expect("writer close");
            })
        })
        .collect();

    let report = request_backup(&addr, "backup", None, true).expect("wire backup");
    assert!(report.lsn >= 4, "backup cut before the seed: {report:?}");
    assert!(report.segments >= 1, "no segments copied: {report:?}");
    assert!(report.bytes > 0, "empty backup: {report:?}");
    for w in writers {
        w.join().unwrap();
    }

    // The system view reports the backup the server just took.
    let mut client = HyliteClient::connect(&addr).unwrap();
    let r = client
        .query("SELECT dest, backup_lsn, verified FROM hylite.backups")
        .unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::from("backup"));
    assert_eq!(r.value(0, 1).unwrap(), Value::Int(report.lsn as i64));
    assert_eq!(r.value(0, 2).unwrap(), Value::Bool(true));
    client.close().unwrap();
    handle.shutdown();

    let summary = restore(&fault, "backup", None, "restored", None);
    assert_eq!(summary.restored_lsn, report.lsn);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    let rows = values(&restored);

    // Consistent cut: every seed row present, every extra row comes from
    // a racing writer, and nothing appears twice.
    assert_eq!(&rows[..3], &[1, 2, 3], "seed rows missing: {rows:?}");
    let mut seen = std::collections::HashSet::new();
    for &v in &rows[3..] {
        assert!(
            (100..120).contains(&v) || (200..220).contains(&v),
            "phantom row {v} in the restored backup"
        );
        assert!(seen.insert(v), "row {v} restored twice");
    }
    // And the cut respects each session's commit order: a present value
    // implies every earlier value of the same session is present.
    for base in [100i64, 200] {
        let session: Vec<i64> = rows
            .iter()
            .copied()
            .filter(|v| (base..base + 20).contains(v))
            .collect();
        let want: Vec<i64> = (base..base + session.len() as i64).collect();
        assert_eq!(session, want, "hole in session {base}'s restored prefix");
    }
}

/// The restored node starts a fresh timeline: its epoch differs from
/// the source, and the old primary answers its handshake with a
/// snapshot re-bootstrap offer — never a WAL resume into the old
/// history.
#[test]
fn restored_node_starts_a_fresh_timeline_the_old_fleet_will_not_resume() {
    let fault = FaultVfs::new();
    let db = Arc::new(seed(&fault));
    let old_epoch = db.durability().unwrap().epoch();
    db.durability()
        .unwrap()
        .backup(Path::new("backup"), None, true)
        .unwrap();

    restore(&fault, "backup", None, "restored", None);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    let restored_d = restored.durability().unwrap();
    assert_ne!(
        restored_d.epoch(),
        old_epoch,
        "a restored node must mint a fresh epoch"
    );

    // Handshake the old fleet's primary as if the restored node tried to
    // rejoin: the epoch mismatch must fence it into a snapshot offer.
    let handle = Server::start(ServerConfig::ephemeral(), Arc::clone(&db)).unwrap();
    let mut sock = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::write_frame(
        &mut sock,
        &Frame::Replicate {
            version: PROTOCOL_VERSION,
            epoch: restored_d.epoch(),
            last_lsn: restored_d.next_lsn().saturating_sub(1),
        },
    )
    .unwrap();
    let offer = wire::read_frame(&mut sock).unwrap();
    assert!(
        matches!(offer, Frame::SnapshotOffer { .. }),
        "old primary must refuse to resume a restored timeline, got {offer:?}"
    );
    drop(sock);
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Incremental chains through SQL.
// ---------------------------------------------------------------------

/// `BACKUP TO ... FROM ...` copies only segments the base chain does not
/// already hold, and a restore from the chain's tip replays the whole
/// history.
#[test]
fn sql_incremental_backup_copies_only_new_segments() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.checkpoint().unwrap();
    db.execute("BACKUP TO 'full' VERIFY").unwrap();
    let full_files = fault.list_dir(Path::new("full/segments")).unwrap().len();
    assert!(full_files >= 1, "full backup copied no segments");

    // New sealed data → the incremental copies exactly the new segments.
    db.execute("INSERT INTO t VALUES (10), (11)").unwrap();
    db.checkpoint().unwrap();
    db.execute("BACKUP TO 'inc' FROM 'full'").unwrap();
    let inc_files = fault.list_dir(Path::new("inc/segments")).unwrap().len();
    assert!(
        inc_files < full_files + 1,
        "incremental re-copied the base's segments: {inc_files} vs {full_files} in the base"
    );

    // Nothing new sealed → a further link copies nothing at all.
    db.execute("BACKUP TO 'inc2' FROM 'inc'").unwrap();
    assert_eq!(
        fault.list_dir(Path::new("inc2/segments")).unwrap().len(),
        0,
        "an up-to-date incremental must copy zero segments"
    );

    // The chain's tip restores the full history.
    restore(&fault, "inc2", None, "restored", None);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    assert_eq!(values(&restored), vec![1, 2, 3, 10, 11]);
}

// ---------------------------------------------------------------------
// Point-in-time recovery from backup + archived WAL.
// ---------------------------------------------------------------------

/// With continuous archiving on, a restore can stop at an LSN that the
/// live WAL has long since truncated: post-target traffic is cut away
/// exactly, and overshooting the archived history is a typed error.
#[test]
fn pitr_replays_archived_wal_to_the_exact_target() {
    let fault = FaultVfs::new();
    let db = open_at(&fault, &data_dir(), archived_options());
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 1..=3 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    db.checkpoint().unwrap();
    db.execute("BACKUP TO 'full'").unwrap();

    // Write past the backup, pin the target, then checkpoint so the
    // pinned frames survive only in the archive.
    db.execute("INSERT INTO t VALUES (10)").unwrap();
    db.execute("INSERT INTO t VALUES (11)").unwrap();
    let target = db.durability().unwrap().next_lsn() - 1;
    db.checkpoint().unwrap();
    db.execute("INSERT INTO t VALUES (99)").unwrap();
    let highest = db.durability().unwrap().next_lsn() - 1;
    db.checkpoint().unwrap();

    let summary = restore(&fault, "full", Some("archive"), "restored", Some(target));
    assert_eq!(summary.restored_lsn, target);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    assert_eq!(
        values(&restored),
        vec![1, 2, 3, 10, 11],
        "post-target traffic must be cut away"
    );

    // A target past the archived history is refused, not silently
    // rounded down.
    let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
    let err = restore_backup(
        &vfs,
        Path::new("full"),
        Some(Path::new("archive")),
        Path::new("restored2"),
        Some(highest + 7),
    )
    .unwrap_err();
    assert!(
        err.message().contains("contiguously"),
        "overshoot must name the reachable LSN: {err}"
    );
}

// ---------------------------------------------------------------------
// Crash points inside the new paths.
// ---------------------------------------------------------------------

/// A crash mid-copy leaves no `backup.hylite`, so the half-written
/// directory can never be restored — and the live database is
/// untouched.
#[test]
fn crash_during_segment_copy_leaves_no_restorable_artifact() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.checkpoint().unwrap();

    fault.arm_crash(CrashSpec::first(CP_BACKUP_SEG_COPY));
    let err = db
        .durability()
        .unwrap()
        .backup(Path::new("backup"), None, false);
    assert!(err.is_err(), "backup must fail at the crash point");
    assert!(fault.crashed());
    drop(db);

    fault.reboot();
    assert!(
        !fault.exists(Path::new("backup/backup.hylite")),
        "an interrupted backup must not look completed"
    );
    let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
    let err =
        restore_backup(&vfs, Path::new("backup"), None, Path::new("restored"), None).unwrap_err();
    assert!(
        err.message().contains("not a completed backup"),
        "restore must refuse the torn artifact: {err}"
    );

    // The live database recovered untouched and can still be backed up.
    let db = open(&fault);
    assert_eq!(values(&db), vec![1, 2, 3]);
    db.execute("BACKUP TO 'backup2' VERIFY").unwrap();
    restore(&fault, "backup2", None, "restored", None);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    assert_eq!(values(&restored), vec![1, 2, 3]);
}

/// A crash mid-rotation never publishes a torn span: after reboot the
/// archive reads cleanly, and the next checkpoint re-archives the frames
/// the crash interrupted (the WAL was not truncated).
#[test]
fn crash_during_archive_rotation_hides_the_torn_span() {
    let fault = FaultVfs::new();
    let db = open_at(&fault, &data_dir(), archived_options());
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    fault.arm_crash(CrashSpec::first(CP_ARCHIVE_ROTATE));
    let err = db.checkpoint();
    assert!(err.is_err(), "checkpoint must fail at the crash point");
    assert!(fault.crashed());
    drop(db);

    fault.reboot();
    let archive = Path::new("archive");
    let frames = read_archived_frames(&fault, archive).expect("no torn span may be visible");
    assert!(
        frames.is_empty(),
        "the interrupted rotation must not have published: {:?}",
        frames.keys()
    );

    // Recovery replays the untruncated WAL; the next checkpoint archives
    // everything the crash interrupted plus the new commit.
    let db = open_at(&fault, &data_dir(), archived_options());
    assert_eq!(values(&db), vec![1]);
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let last = db.durability().unwrap().next_lsn() - 1;
    db.checkpoint().unwrap();
    let frames = read_archived_frames(&fault, archive).unwrap();
    let lsns: Vec<u64> = frames.keys().copied().collect();
    assert_eq!(
        lsns,
        (1..=last).collect::<Vec<u64>>(),
        "the archive must cover the whole history contiguously"
    );
}

// ---------------------------------------------------------------------
// Every WAL reader applies recovery's rules.
// ---------------------------------------------------------------------

/// A `wal.hylite` whose header declares a version this build does not
/// read is refused by restore and by `BACKUP … VERIFY` with recovery's
/// own error — never streamed on and rewritten under version 1.
#[test]
fn restore_and_verify_refuse_a_wal_recovery_refuses() {
    const REFUSED: &str = "WAL version 2 not supported";
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.execute("BACKUP TO 'good'").unwrap();
    let version_one_to_two = |path: &Path| fault.corrupt(path, 4, 0x03).unwrap();

    version_one_to_two(&Path::new("good").join(WAL_FILE));
    let vfs = Arc::new(fault.clone()) as Arc<dyn Vfs>;
    let err =
        restore_backup(&vfs, Path::new("good"), None, Path::new("restored"), None).unwrap_err();
    assert!(err.message().contains(REFUSED), "restore: {err}");

    version_one_to_two(&data_dir().join(WAL_FILE));
    let err = db.execute("BACKUP TO 'verified' VERIFY").unwrap_err();
    assert!(err.to_string().contains(REFUSED), "verify: {err}");
    assert!(!fault.exists(Path::new("verified/backup.hylite")));
    drop(db);
    let err = Database::open_with(vfs, &data_dir(), DurabilityOptions::default())
        .err()
        .expect("recovery refuses the same WAL");
    assert!(err.to_string().contains(REFUSED), "recovery: {err}");
}

// ---------------------------------------------------------------------
// One consistent cut: a segment collected between pin and read re-pins.
// ---------------------------------------------------------------------

type Hook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// A [`Vfs`] over a [`FaultVfs`] that runs a one-shot hook the first time
/// a live segment file is read whole — which backup and bootstrap do only
/// after their cut is pinned and the commit lock released.
#[derive(Clone)]
struct HookVfs {
    inner: FaultVfs,
    hook: Hook,
}

impl std::fmt::Debug for HookVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookVfs").finish_non_exhaustive()
    }
}

impl Vfs for HookVfs {
    fn create_dir_all(&self, dir: &Path) -> hylite_common::Result<()> {
        Vfs::create_dir_all(&self.inner, dir)
    }

    fn create(&self, path: &Path) -> hylite_common::Result<Box<dyn VfsFile>> {
        Vfs::create(&self.inner, path)
    }

    fn open_append(&self, path: &Path) -> hylite_common::Result<Box<dyn VfsFile>> {
        Vfs::open_append(&self.inner, path)
    }

    fn read(&self, path: &Path) -> hylite_common::Result<Vec<u8>> {
        if path.starts_with(data_dir().join(SEGMENT_DIR)) {
            let hook = self.hook.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
        }
        Vfs::read(&self.inner, path)
    }

    fn read_range(&self, path: &Path, offset: u64, len: u64) -> hylite_common::Result<Vec<u8>> {
        Vfs::read_range(&self.inner, path, offset, len)
    }

    fn list_dir(&self, dir: &Path) -> hylite_common::Result<Vec<String>> {
        Vfs::list_dir(&self.inner, dir)
    }

    fn exists(&self, path: &Path) -> bool {
        Vfs::exists(&self.inner, path)
    }

    fn rename(&self, from: &Path, to: &Path) -> hylite_common::Result<()> {
        Vfs::rename(&self.inner, from, to)
    }

    fn remove(&self, path: &Path) -> hylite_common::Result<()> {
        Vfs::remove(&self.inner, path)
    }

    fn truncate(&self, path: &Path, len: u64) -> hylite_common::Result<()> {
        Vfs::truncate(&self.inner, path, len)
    }

    fn len(&self, path: &Path) -> hylite_common::Result<u64> {
        Vfs::len(&self.inner, path)
    }

    fn sync_dir(&self, dir: &Path) -> hylite_common::Result<()> {
        Vfs::sync_dir(&self.inner, dir)
    }

    fn crash_point(&self, name: &str) -> hylite_common::Result<()> {
        Vfs::crash_point(&self.inner, name)
    }
}

/// At the next live segment read, run `work` on `db` and collect the
/// segment files a compaction leaves behind: the compacting checkpoint
/// still holds the old files open, the one after it deletes them.
fn arm(hook: &Hook, db: &Arc<Database>, work: &'static str) {
    let db = Arc::clone(db);
    *hook.lock().unwrap() = Some(Box::new(move || {
        if !work.is_empty() {
            db.execute(work).unwrap();
        }
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
    }));
}

fn segment_files(fault: &FaultVfs, dir: &Path) -> Vec<String> {
    fault.list_dir(&dir.join(SEGMENT_DIR)).unwrap()
}

/// Backup and replica bootstrap read the segment files of a pinned cut
/// outside the commit lock. A checkpoint whose compaction collects a
/// pinned segment in between makes both re-pin and succeed: the backup
/// restores the newer cut, and the installed replica matches the primary.
#[test]
fn a_segment_collected_between_pin_and_read_makes_backup_and_bootstrap_re_pin() {
    let fault = FaultVfs::new();
    let hook = Hook::default();
    let vfs = Arc::new(HookVfs {
        inner: fault.clone(),
        hook: Arc::clone(&hook),
    });
    let db = Arc::new(Database::open_with(vfs, &data_dir(), DurabilityOptions::default()).unwrap());
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8), (9), (10)")
        .unwrap();
    db.checkpoint().unwrap();
    // 60 % dead: the next checkpoint compacts `t` and collects its segment.
    db.execute("DELETE FROM t WHERE x <= 6").unwrap();

    let pinned = segment_files(&fault, &data_dir());
    arm(&hook, &db, "");
    let summary = db
        .durability()
        .unwrap()
        .backup(Path::new("backup"), None, true)
        .unwrap();
    assert!(hook.lock().unwrap().is_none(), "the hook ran");
    let copied = segment_files(&fault, Path::new("backup"));
    assert_eq!(summary.segments_copied, 1);
    assert!(
        copied.iter().all(|f| !pinned.contains(f)),
        "the backup copied the re-pinned cut: {copied:?}, first pin {pinned:?}"
    );
    restore(&fault, "backup", None, "restored", None);
    let restored = open_at(&fault, Path::new("restored"), DurabilityOptions::default());
    assert_eq!(values(&restored), vec![7, 8, 9, 10]);

    // Bootstrap pins the cut its own checkpoint published; the hook then
    // kills half the rows and compacts again before the segment is read.
    let pinned = segment_files(&fault, &data_dir());
    arm(&hook, &db, "DELETE FROM t WHERE x <= 8");
    let primary = db.durability().unwrap();
    let (base_lsn, bundle) = primary.bootstrap_snapshot(db.catalog()).unwrap();
    assert!(hook.lock().unwrap().is_none(), "the hook ran");
    assert!(segment_files(&fault, &data_dir())
        .iter()
        .all(|f| !pinned.contains(f)));
    assert_eq!(base_lsn, primary.next_lsn(), "the re-pinned cut");
    let replica = open_at(
        &fault,
        Path::new("replica"),
        DurabilityOptions {
            role: ReplRole::Replica,
            ..DurabilityOptions::default()
        },
    );
    {
        let _gate = replica.catalog().writer_gate().lock();
        let d = replica.durability().unwrap();
        d.install_bootstrap(replica.catalog(), primary.epoch(), &bundle)
            .unwrap();
    }
    assert_eq!(values(&replica), vec![9, 10]);
    assert_eq!(values(&replica), values(&db));
}
