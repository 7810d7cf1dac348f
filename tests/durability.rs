//! Crash-safety integration tests: the crash-point matrix, torn writes,
//! failing fsyncs, kill-9 semantics, and the governor × durability
//! interaction — all driven deterministically through [`FaultVfs`].
//!
//! The core invariant under test: **after any crash and recovery, the
//! database contains exactly the acknowledged commits.** The one
//! documented exception is a crash *after* the WAL fsync but *before*
//! the acknowledgement reaches the client (`wal.post_fsync`): the commit
//! is durable but unacknowledged — the classic indeterminate window every
//! WAL-based system has.

use std::path::PathBuf;
use std::sync::Arc;

use hylite_common::faultfs::{CrashSpec, FaultVfs, KeepUnsynced, Vfs};
use hylite_common::Value;
use hylite_core::{Database, DurabilityOptions, SyncMode, CRASH_POINTS};
use hylite_storage::archive::CP_ARCHIVE_ROTATE;
use hylite_storage::backup::CP_BACKUP_SEG_COPY;
use hylite_storage::wal::{
    CP_WAL_AFTER_WRITE, CP_WAL_APPEND, CP_WAL_POST_FSYNC, CP_WAL_PRE_FSYNC, WAL_FILE,
};

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

fn open(fault: &FaultVfs) -> Database {
    open_with(fault, DurabilityOptions::default())
}

fn open_with(fault: &FaultVfs, options: DurabilityOptions) -> Database {
    Database::open_with(
        Arc::new(fault.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        options,
    )
    .expect("open durable database")
}

/// Sum of `t.x`, or a description of the failure.
fn sum(db: &Database) -> Result<i64, String> {
    match db.execute("SELECT sum(x) FROM t") {
        Ok(r) => match r.scalar() {
            Ok(Value::Int(v)) => Ok(v),
            Ok(v) if v.is_null() => Ok(0),
            other => Err(format!("unexpected scalar {other:?}")),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// Seed a database with table `t` holding x = 1, 2, 3 (three separate
/// acknowledged autocommits) and return it.
fn seed(fault: &FaultVfs) -> Database {
    let db = open(fault);
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 1..=3 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    db
}

/// What the matrix expects to find after crashing at a point and
/// recovering.
fn expected_sum_after(point: &str) -> i64 {
    match point {
        // The crash preempts the fsync: the in-flight commit was never
        // acknowledged and must be absent.
        "wal.append" | "wal.after_write" | "wal.pre_fsync" => 6,
        // The frame was fsynced before the crash: durable but
        // unacknowledged — the indeterminate window. Recovery replays it.
        "wal.post_fsync" => 106,
        // Checkpoint-path crashes happen after the commit workload
        // completed; every acknowledged commit must survive, exactly once.
        "checkpoint.segment_write"
        | "checkpoint.write"
        | "checkpoint.rename"
        | "checkpoint.after_rename"
        | "wal.truncate" => 106,
        // A crash inside a backup's segment copy aborts the backup but
        // never touches the live data dir; a crash inside the archive
        // span rotation happens after the checkpoint published, so the
        // commit survives and the torn span is invisible after reboot.
        "backup.segment_copy" | "archive.rotate" => 106,
        other => panic!("crash point {other} not in the matrix — extend expected_sum_after"),
    }
}

/// THE matrix: for every registered crash point, crash there under the
/// strict power-loss model, reboot, recover, and verify the database
/// contains exactly the acknowledged commits (modulo the documented
/// post-fsync window). Then verify the recovered database still accepts
/// and persists new commits.
#[test]
fn crash_point_matrix_recovers_exactly_the_acknowledged_commits() {
    for &point in CRASH_POINTS {
        let fault = FaultVfs::new();
        let mut db = seed(&fault);
        if point == CP_ARCHIVE_ROTATE {
            // Archiving only runs when an archive dir is configured.
            drop(db);
            db = open_with(
                &fault,
                DurabilityOptions {
                    archive_dir: Some(PathBuf::from("archive")),
                    ..DurabilityOptions::default()
                },
            );
        }

        fault.arm_crash(CrashSpec::first(point));
        if point == CP_BACKUP_SEG_COPY {
            // Backup-path point: commit and checkpoint first (a backup
            // copies sealed segments), then crash inside the copy. The
            // live database is untouched.
            db.execute("INSERT INTO t VALUES (100)").unwrap();
            db.checkpoint().unwrap();
            let err = db.durability().expect("durable database").backup(
                &PathBuf::from("backup"),
                None,
                false,
            );
            assert!(err.is_err(), "{point}: backup should fail at the crash");
        } else if point.starts_with("wal.") && point != "wal.truncate" {
            // Commit-path points: crash inside the WAL append of x=100.
            let err = db.execute("INSERT INTO t VALUES (100)");
            assert!(err.is_err(), "{point}: commit should fail at the crash");
        } else {
            // Checkpoint-path points (incl. wal.truncate, which only runs
            // as the checkpoint's last step, and archive.rotate, which
            // runs just before it): commit x=100 first, then crash inside
            // the checkpoint.
            db.execute("INSERT INTO t VALUES (100)").unwrap();
            let err = db.checkpoint();
            assert!(err.is_err(), "{point}: checkpoint should fail at the crash");
        }
        assert!(fault.crashed(), "{point}: the crash must have fired");
        assert_eq!(fault.hits(point), 1, "{point}: fired exactly once");
        drop(db);

        fault.reboot();
        let db = open(&fault);
        assert_eq!(
            sum(&db).unwrap(),
            expected_sum_after(point),
            "{point}: wrong surviving commits after recovery"
        );

        // Recovered databases are not read-only artifacts: they must keep
        // accepting commits that survive the *next* restart too.
        db.execute("INSERT INTO t VALUES (1000)").unwrap();
        drop(db);
        let db = open(&fault);
        assert_eq!(
            sum(&db).unwrap(),
            expected_sum_after(point) + 1000,
            "{point}: post-recovery commit lost"
        );
    }
}

/// A torn final WAL frame (partial write that made it to disk) is
/// detected by the CRC scan and discarded without failing recovery.
#[test]
fn torn_final_frame_is_discarded_without_error() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    // Crash before the fsync, but let a 7-byte prefix of the unsynced
    // frame reach the platter — a torn write.
    fault.arm_crash(CrashSpec::first_keeping(
        CP_WAL_PRE_FSYNC,
        KeepUnsynced::Prefix(7),
    ));
    assert!(db.execute("INSERT INTO t VALUES (100)").is_err());
    drop(db);
    fault.reboot();

    let wal = data_dir().join(WAL_FILE);
    let torn_len = fault.file_len(&wal).unwrap();
    let db = open(&fault);
    let report = db.recovery_report().unwrap();
    assert!(report.discarded_bytes > 0, "the torn tail was measured");
    assert_eq!(sum(&db).unwrap(), 6, "torn commit must not surface");
    assert!(
        fault.file_len(&wal).unwrap() < torn_len,
        "recovery truncates the torn tail in place"
    );
    // The WAL stays appendable at the truncated boundary.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 10);
}

/// A bit flip inside the last WAL frame fails its CRC: recovery keeps
/// every frame before it and discards the corrupt tail, without error.
#[test]
fn bit_flipped_tail_frame_is_dropped_by_crc() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    drop(db);
    let wal = data_dir().join(WAL_FILE);
    let len = fault.file_len(&wal).unwrap();
    // Flip a bit in the last frame's payload (well past its header).
    fault.corrupt(&wal, len - 3, 0x10).unwrap();
    let db = open(&fault);
    let report = db.recovery_report().unwrap();
    assert!(report.discarded_bytes > 0);
    assert_eq!(sum(&db).unwrap(), 3, "x=3 lived in the corrupted frame");
}

/// A failing fsync must not acknowledge the commit, must not leave ghost
/// bytes that a *later* fsync would make durable, and must leave the WAL
/// usable for the next commit.
#[test]
fn failed_fsync_rejects_commit_and_later_commits_survive() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    fault.fail_fsyncs(1);
    let err = db.execute("INSERT INTO t VALUES (100)").unwrap_err();
    assert!(
        err.to_string().contains("fsync"),
        "commit surfaced the fsync failure: {err}"
    );
    // The engine rolled the row back in memory too.
    assert_eq!(sum(&db).unwrap(), 6);
    // The WAL is not poisoned: the next commit (with working fsyncs)
    // succeeds and survives restart; the failed one stays gone.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 10);
}

/// kill -9 (process death without power loss): the page cache survives,
/// so even unsynced WAL bytes reach disk. Everything written — acked or
/// in-flight — is recovered. This is the Buffered-mode story too.
#[test]
fn kill_minus_nine_keeps_page_cache_and_buffered_mode_bounds_loss() {
    let fault = FaultVfs::new();
    let db = open_with(
        &fault,
        DurabilityOptions {
            sync_mode: SyncMode::Buffered,
            ..DurabilityOptions::default()
        },
    );
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 1..=3 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    // Buffered mode: commits are acknowledged from the group-commit
    // buffer, which lives in *process* memory — kill -9 loses it no
    // matter what the page cache holds. Dropping the database without a
    // close models exactly that.
    drop(db);
    let db = open(&fault);
    // The buffered commits (the DDL and 1..=3) are gone — the documented
    // loss window of Buffered mode. The database recovers to empty,
    // cleanly.
    let report = db.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 0);
    assert!(
        db.execute("SELECT * FROM t").is_err(),
        "t never became durable"
    );

    // Same scenario in Commit mode: every ack carried an fsync, so
    // kill -9 loses nothing.
    let fault = FaultVfs::new();
    let db = seed(&fault);
    fault.arm_crash(CrashSpec::first_keeping(
        CP_WAL_PRE_FSYNC,
        KeepUnsynced::All,
    ));
    assert!(db.execute("INSERT INTO t VALUES (100)").is_err());
    drop(db);
    fault.reboot();
    let db = open(&fault);
    // Unsynced-but-written bytes survive a mere process kill: the
    // in-flight frame is complete on disk and replays.
    assert_eq!(sum(&db).unwrap(), 106);
}

/// Buffered mode: an explicit checkpoint flushes the group-commit buffer,
/// after which a power-loss crash loses nothing.
#[test]
fn buffered_mode_checkpoint_makes_commits_durable() {
    let fault = FaultVfs::new();
    let db = open_with(
        &fault,
        DurabilityOptions {
            sync_mode: SyncMode::Buffered,
            ..DurabilityOptions::default()
        },
    );
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = open(&fault);
    assert!(db.recovery_report().unwrap().checkpoint_loaded);
    assert_eq!(sum(&db).unwrap(), 6);
}

/// Governor × durability: a transaction aborted mid-commit (its WAL
/// append fails) must be *fully* discarded — in memory immediately, and
/// on disk after recovery. A transaction that was acknowledged must be
/// *fully* present. No half-replayed transactions, ever.
#[test]
fn aborted_commit_is_all_or_nothing_after_recovery() {
    let fault = FaultVfs::new();
    let db = seed(&fault);

    // Multi-statement transaction whose commit record fails to persist.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (10)").unwrap();
    db.execute("INSERT INTO t VALUES (20)").unwrap();
    db.execute("UPDATE t SET x = x + 1 WHERE x = 10").unwrap();
    fault.fail_fsyncs(1);
    assert!(
        db.execute("COMMIT").is_err(),
        "commit must surface the failure"
    );
    // Fully discarded in memory: the session rolled the transaction back.
    assert_eq!(sum(&db).unwrap(), 6);

    // The same shape, acknowledged this time.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (10)").unwrap();
    db.execute("INSERT INTO t VALUES (20)").unwrap();
    db.execute("UPDATE t SET x = x + 1 WHERE x = 10").unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(sum(&db).unwrap(), 37);

    drop(db);
    let db = open(&fault);
    // After recovery: the aborted transaction contributes nothing, the
    // acknowledged one contributes everything — 6 + 11 + 20.
    assert_eq!(sum(&db).unwrap(), 37);
}

/// Governor × durability: a statement cancelled before execution leaves
/// no WAL trace; the session and the database stay consistent across
/// recovery.
#[test]
fn cancelled_statement_leaves_no_wal_trace() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.cancel_handle().cancel();
    let err = db.execute("INSERT INTO t VALUES (100)").unwrap_err();
    assert_eq!(err.stage(), "cancelled");
    // Session recovered; a normal statement follows.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 10, "cancelled insert must not replay");
}

/// Statement timeout firing inside a transaction: the failed statement
/// contributes nothing, the committed remainder survives recovery.
#[test]
fn timeout_inside_transaction_keeps_commit_atomic() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (50)").unwrap();
    db.execute("SET statement_timeout_ms = 30").unwrap();
    let err = db
        .execute(
            "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 5000000))",
        )
        .unwrap_err();
    assert!(err.is_governed_abort(), "got: {err}");
    db.execute("SET statement_timeout_ms = 0").unwrap();
    db.execute("COMMIT").unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 56, "committed work survives, no more");
}

/// DDL + DML interleaving across checkpoint and replay: CREATE, INSERT,
/// DROP, re-CREATE survive in order. Replay skips ops against dropped
/// tables instead of failing.
#[test]
fn ddl_dml_interleaving_replays_in_order() {
    let fault = FaultVfs::new();
    let db = open(&fault);
    db.execute("CREATE TABLE a (x BIGINT)").unwrap();
    db.execute("INSERT INTO a VALUES (1)").unwrap();
    db.execute("DROP TABLE a").unwrap();
    db.execute("CREATE TABLE a (x BIGINT, y BIGINT)").unwrap();
    db.execute("INSERT INTO a VALUES (7, 8)").unwrap();
    drop(db);
    let db = open(&fault);
    let r = db.execute("SELECT x, y FROM a").unwrap();
    assert_eq!(r.row_count(), 1);
    assert_eq!(r.value(0, 0).unwrap(), Value::Int(7));
    assert_eq!(r.value(0, 1).unwrap(), Value::Int(8));
}

/// Row-id stability across a checkpoint: deletes logged *after* the
/// checkpoint must land on the same physical rows when replayed on top
/// of the restored image.
#[test]
fn post_checkpoint_deletes_hit_the_right_rows() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.execute("DELETE FROM t WHERE x = 1").unwrap();
    db.checkpoint().unwrap();
    // These deletes replay against the checkpoint image's row ids.
    db.execute("DELETE FROM t WHERE x = 2").unwrap();
    db.execute("INSERT INTO t VALUES (9)").unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 12, "3 + 9 survive; 1 and 2 are deleted");
}

/// CSV ingestion is one atomic WAL record: after recovery the load is
/// fully present.
#[test]
fn copy_csv_is_one_atomic_commit() {
    let fault = FaultVfs::new();
    let db = open(&fault);
    db.execute("CREATE TABLE m (id BIGINT, v DOUBLE)").unwrap();
    let csv = "id,v\n1,0.5\n2,1.5\n3,2.5\n";
    let n = db
        .copy_csv("m", csv, &hylite_core::CsvOptions::default())
        .unwrap();
    assert_eq!(n, 3);
    drop(db);
    let db = open(&fault);
    assert_eq!(db.recovery_report().unwrap().replayed_records, 2);
    assert_eq!(
        db.execute("SELECT count(*) FROM m")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(3)
    );
}

/// The real-filesystem backend: a full write → close → reopen cycle on a
/// temp dir, exercising `StdVfs` end to end (creation, append, fsync,
/// atomic rename, truncate).
#[test]
fn std_vfs_roundtrip_on_a_real_directory() {
    let dir = std::env::temp_dir().join(format!("hylite-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (x BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (4)").unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(sum_path(&db), 10);
        db.close().unwrap();
    }
    {
        // After close() the WAL is empty; recovery is checkpoint-only.
        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(sum_path(&db), 10);
    }
    let _ = std::fs::remove_dir_all(&dir);

    fn sum_path(db: &Database) -> i64 {
        match db
            .execute("SELECT sum(x) FROM t")
            .unwrap()
            .scalar()
            .unwrap()
        {
            Value::Int(v) => v,
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Recovery metrics reach the shared registry, as the observability layer
/// expects.
#[test]
fn durability_metrics_are_published() {
    let fault = FaultVfs::new();
    let db = seed(&fault);
    db.checkpoint().unwrap();
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    let snapshot = db.metrics_snapshot().render_text();
    for name in [
        "wal.commits",
        "wal.bytes_written",
        "wal.fsyncs",
        "checkpoint.count",
        "checkpoint.bytes_written",
    ] {
        assert!(snapshot.contains(name), "missing {name} in:\n{snapshot}");
    }
    drop(db);
    let db = open(&fault);
    let snapshot = db.metrics_snapshot().render_text();
    assert!(
        snapshot.contains("recovery.replayed_records"),
        "missing recovery metric in:\n{snapshot}"
    );
}

/// The crash points the matrix iterates are exactly the ones the
/// subsystem registers — adding a new point without extending the matrix
/// fails here.
#[test]
fn crash_point_matrix_is_complete() {
    assert_eq!(
        CRASH_POINTS,
        &[
            CP_WAL_APPEND,
            CP_WAL_AFTER_WRITE,
            CP_WAL_PRE_FSYNC,
            CP_WAL_POST_FSYNC,
            "checkpoint.segment_write",
            "checkpoint.write",
            "checkpoint.rename",
            "checkpoint.after_rename",
            "wal.truncate",
            CP_BACKUP_SEG_COPY,
            CP_ARCHIVE_ROTATE,
        ]
    );
    // And every one of them has an expectation in the matrix.
    for &p in CRASH_POINTS {
        expected_sum_after(p);
    }
}

/// Concurrent autocommit writers racing checkpoints. The writer gate
/// serializes the writers (WAL frame order == physical append order, so
/// replayed positional row ids match), and the commit mutex makes each
/// WAL append + in-memory publish atomic with respect to a checkpoint's
/// `base_lsn` capture — an acknowledged commit can never fall between a
/// checkpoint's snapshot and its WAL truncation. After a restart the
/// database must hold exactly the acknowledged state.
#[test]
fn concurrent_writers_and_checkpoints_survive_restart() {
    const WRITERS: usize = 4;
    const ROWS_PER_WRITER: i64 = 40;

    let fault = FaultVfs::new();
    let db = Arc::new(open(&fault));
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();

    std::thread::scope(|s| {
        for w in 0..WRITERS as i64 {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let mut session = db.session();
                for i in 0..ROWS_PER_WRITER {
                    let v = w * 1000 + i;
                    session
                        .execute(&format!("INSERT INTO t VALUES ({v})"))
                        .unwrap();
                }
                // Deletes exercise positional row ids under concurrency:
                // if WAL order diverged from append order, replay would
                // renumber rows and these would hit the wrong ones.
                for i in (0..ROWS_PER_WRITER).step_by(4) {
                    let v = w * 1000 + i;
                    session
                        .execute(&format!("DELETE FROM t WHERE x = {v}"))
                        .unwrap();
                }
            });
        }
        let db = Arc::clone(&db);
        s.spawn(move || {
            for _ in 0..10 {
                db.checkpoint().unwrap();
                std::thread::yield_now();
            }
        });
    });

    let expected_rows: i64 = WRITERS as i64 * (ROWS_PER_WRITER - (ROWS_PER_WRITER + 3) / 4);
    let mut expected_sum: i64 = 0;
    for w in 0..WRITERS as i64 {
        for i in 0..ROWS_PER_WRITER {
            if i % 4 != 0 {
                expected_sum += w * 1000 + i;
            }
        }
    }
    let count = |db: &Database| -> i64 {
        match db
            .execute("SELECT count(*) FROM t")
            .unwrap()
            .scalar()
            .unwrap()
        {
            Value::Int(v) => v,
            other => panic!("unexpected count {other:?}"),
        }
    };
    assert_eq!(count(&db), expected_rows);
    assert_eq!(sum(&db).unwrap(), expected_sum);

    // Everything was acknowledged, so everything must survive a restart —
    // whether a row's commit landed before a checkpoint's base_lsn (in
    // the image) or after it (replayed from the WAL).
    drop(db);
    let db = open(&fault);
    assert_eq!(count(&db), expected_rows);
    assert_eq!(sum(&db).unwrap(), expected_sum);
}

/// An open transaction holds the writer gate, so another session's
/// autocommit write waits instead of getting swept into (or destroyed
/// by) the transaction's commit or rollback.
#[test]
fn open_transaction_excludes_concurrent_autocommit_writes() {
    let fault = FaultVfs::new();
    let db = Arc::new(open(&fault));
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();

    let mut tx_session = db.session();
    tx_session.execute("BEGIN").unwrap();
    tx_session.execute("INSERT INTO t VALUES (1)").unwrap();
    tx_session.execute("INSERT INTO t VALUES (2)").unwrap();

    // A second session's write must block on the gate until ROLLBACK.
    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            db.session().execute("INSERT INTO t VALUES (100)").unwrap();
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert_eq!(
        sum(&db).unwrap(),
        0,
        "neither the staged transaction nor the gated writer is visible"
    );

    tx_session.execute("ROLLBACK").unwrap();
    writer.join().unwrap();

    // The rollback discarded exactly the transaction's own rows; the
    // concurrent autocommit landed untouched — in memory and on disk.
    assert_eq!(sum(&db).unwrap(), 100);
    drop(tx_session);
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 100);
}

/// A transaction whose COMMIT fails at the WAL rolls back only itself:
/// a concurrent writer that was waiting on the gate commits cleanly
/// afterwards, unaffected by the failed session's rollback.
#[test]
fn failed_commit_rolls_back_only_its_own_session() {
    let fault = FaultVfs::new();
    let db = Arc::new(open(&fault));
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();

    let mut tx_session = db.session();
    tx_session.execute("BEGIN").unwrap();
    tx_session.execute("INSERT INTO t VALUES (1)").unwrap();

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            // Blocks on the gate until the failed COMMIT releases it.
            db.session().execute("INSERT INTO t VALUES (100)").unwrap();
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    fault.fail_fsyncs(1);
    assert!(tx_session.execute("COMMIT").is_err());
    writer.join().unwrap();

    assert_eq!(sum(&db).unwrap(), 100);
    drop(tx_session);
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 100);
}

// ---------------------------------------------------------------------
// Disk pressure: ENOSPC degrades the node to read-only, and writes
// resume — without a restart — once space frees.
// ---------------------------------------------------------------------

#[test]
fn disk_full_degrades_to_read_only_and_probe_resumes_writes() {
    use hylite_common::wire::ErrorCode;

    let fault = FaultVfs::new();
    let db = seed(&fault);
    fault.set_disk_full(true);

    // The write fails with the typed, retryable DiskFull error (5005).
    let err = db.execute("INSERT INTO t VALUES (100)").unwrap_err();
    assert_eq!(ErrorCode::from_error(&err), ErrorCode::DiskFull, "{err}");
    assert!(ErrorCode::DiskFull.is_retryable());
    assert_eq!(ErrorCode::DiskFull.as_u16(), 5005);

    // The node is degraded: reads keep serving, writes are rejected up
    // front with the same code.
    let d = db.durability().unwrap();
    assert_eq!(d.node_state(), "degraded");
    assert_eq!(sum(&db).unwrap(), 6, "reads unaffected");
    let err = db.execute("INSERT INTO t VALUES (101)").unwrap_err();
    assert_eq!(ErrorCode::from_error(&err), ErrorCode::DiskFull);

    // While the disk is still full the probe refuses to resume.
    assert!(!d.try_resume_writes().unwrap());

    // Space frees: the probe re-enables writes in place.
    fault.set_disk_full(false);
    assert!(d.try_resume_writes().unwrap());
    assert_eq!(d.node_state(), "ok");
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    assert_eq!(sum(&db).unwrap(), 13);

    // Everything acknowledged — before and after the episode — survives
    // a restart; nothing from the rejected writes leaked in.
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 13);
}

/// A crash between sealing segment files and publishing the manifest
/// leaves orphaned `segments/seg_*` files no manifest references.
/// Recovery's GC must delete them — and must not touch live data.
#[test]
fn orphan_segments_from_a_checkpoint_crash_are_garbage_collected() {
    use hylite_storage::checkpoint::CP_SEG_WRITE;

    let fault = FaultVfs::new();
    let db = seed(&fault);
    // A second table so the checkpoint seals more than one segment: the
    // crash at the *second* seal leaves the first segment file durable
    // but unreferenced (the manifest publish never ran).
    db.execute("CREATE TABLE u (y BIGINT)").unwrap();
    db.execute("INSERT INTO u VALUES (10)").unwrap();
    fault.arm_crash(CrashSpec {
        point: CP_SEG_WRITE.into(),
        hit: 2,
        keep: KeepUnsynced::All,
    });
    assert!(
        db.checkpoint().is_err(),
        "checkpoint crashes at second seal"
    );
    assert!(fault.crashed());
    drop(db);

    fault.reboot();
    let segments_dir = data_dir().join("segments");
    let before = fault.list_dir(&segments_dir).unwrap().len();
    assert!(
        before >= 1,
        "the crash left at least one sealed file behind"
    );
    let db = open(&fault);
    let report = db.recovery_report().unwrap();
    assert!(
        report.orphan_segments_removed >= 1,
        "recovery deleted the unreferenced segment files: {report:?}"
    );
    // Data is exactly the acknowledged commits, from the WAL.
    assert_eq!(sum(&db).unwrap(), 6);
    assert_eq!(
        db.execute("SELECT sum(y) FROM u")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(10)
    );
    // And the next checkpoint + restart still work on the cleaned store.
    db.checkpoint().unwrap();
    drop(db);
    let db = open(&fault);
    assert_eq!(sum(&db).unwrap(), 6);
}

/// Values of `table.x`, ascending.
fn column(db: &Database, table: &str) -> Vec<i64> {
    let r = db
        .execute(&format!("SELECT x FROM {table} ORDER BY x"))
        .unwrap();
    (0..r.row_count())
        .map(|i| match r.value(i, 0).unwrap() {
            Value::Int(v) => v,
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

/// Compaction edits the manifest list the seal phase published in place:
/// two dead-heavy tables compacted by one checkpoint each replace only
/// their own entry, and the untouched table keeps its own.
#[test]
fn one_checkpoint_compacts_two_tables_beside_an_untouched_one() {
    let fault = FaultVfs::new();
    let db = open(&fault);
    for name in ["a", "b", "c"] {
        db.execute(&format!("CREATE TABLE {name} (x BIGINT)"))
            .unwrap();
        let rows: Vec<String> = (0..10).map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO {name} VALUES {}", rows.join(", ")))
            .unwrap();
    }
    db.checkpoint().unwrap();
    db.execute("DELETE FROM a WHERE x < 6").unwrap();
    db.execute("DELETE FROM c WHERE x >= 3 AND x < 7").unwrap();
    db.checkpoint().unwrap();
    drop(db);

    let db = open(&fault);
    let report = db.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 0, "everything is in the manifest");
    assert_eq!(
        report.checkpoint_rows,
        4 + 10 + 6,
        "compacted layouts loaded"
    );
    assert_eq!(column(&db, "a"), vec![6, 7, 8, 9]);
    assert_eq!(column(&db, "b"), (0..10).collect::<Vec<_>>());
    assert_eq!(column(&db, "c"), vec![0, 1, 2, 7, 8, 9]);
    for name in ["a", "b", "c"] {
        let t = db.catalog().get_table(name).unwrap();
        assert_eq!(t.read().dead_fraction(), 0.0, "{name}");
    }
}

/// A crash at `checkpoint.segment_write` inside compaction — after the
/// seal phase published — leaves the compaction's first segment file
/// behind unreferenced; recovery deletes it and loads the pre-compaction
/// rows.
#[test]
fn crash_sealing_a_compaction_leaves_only_orphans() {
    use hylite_storage::checkpoint::CP_SEG_WRITE;

    const ROWS: i64 = 100_000;
    let fault = FaultVfs::new();
    let db = open(&fault);
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    let csv: Vec<String> = std::iter::once("x".to_string())
        .chain((0..ROWS).map(|v| v.to_string()))
        .collect();
    db.copy_csv("t", &csv.join("\n"), &hylite_core::CsvOptions::default())
        .unwrap();
    db.checkpoint().unwrap();
    // 31 % dead: compaction seals the 69,000 live rows as two segments,
    // and the seal phase before it has nothing to seal.
    db.execute("DELETE FROM t WHERE x < 31000").unwrap();
    fault.arm_crash(CrashSpec {
        point: CP_SEG_WRITE.into(),
        hit: 2,
        keep: KeepUnsynced::Nothing,
    });
    assert!(db.checkpoint().is_err(), "the compaction's second seal");
    assert!(fault.crashed());
    drop(db);

    fault.reboot();
    let db = open(&fault);
    let report = db.recovery_report().unwrap();
    assert_eq!(report.orphan_segments_removed, 1, "{report:?}");
    assert_eq!(column(&db, "t"), (31_000..ROWS).collect::<Vec<_>>());
    let t = db.catalog().get_table("t").unwrap();
    assert_eq!(t.read().total_rows(), ROWS as usize, "not compacted");
}
