//! WAL-shipping replication, end to end: a primary [`Server`] streaming
//! its redo WAL to a [`Replica`] over real TCP, with both sides backed by
//! [`FaultVfs`] so crashes land deterministically at registered crash
//! points.
//!
//! The invariant under test mirrors the durability matrix one level up:
//! **after any crash on either side, a restarted replica converges to
//! exactly the primary's acknowledged commits** — no loss, no
//! duplication, and never a silent fork (a replica that cannot vouch for
//! its state stops serving instead).

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_client::{HyliteClient, RetryPolicy};
use hylite_common::faultfs::{CrashSpec, FaultVfs, KeepUnsynced, Vfs};
use hylite_common::faultnet::{FaultNet, NP_CLIENT_CONNECT};
use hylite_common::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use hylite_common::{crc32, HyError, NetHandle, Value};
use hylite_core::{Database, DurabilityOptions, ReplRole, CRASH_POINTS};
use hylite_server::{Replica, ReplicaConfig, ReplicaHandle, Server, ServerConfig, ServerHandle};
use hylite_storage::archive::CP_ARCHIVE_ROTATE;
use hylite_storage::backup::CP_BACKUP_SEG_COPY;
use hylite_storage::wal::{CP_WAL_AFTER_WRITE, CP_WAL_APPEND, CP_WAL_POST_FSYNC, CP_WAL_PRE_FSYNC};

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

fn open_primary(fault: &FaultVfs) -> Database {
    Database::open_with(
        Arc::new(fault.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        DurabilityOptions::default(),
    )
    .expect("open primary database")
}

fn open_replica(fault: &FaultVfs) -> Database {
    Database::open_with(
        Arc::new(fault.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        DurabilityOptions {
            role: ReplRole::Replica,
            ..DurabilityOptions::default()
        },
    )
    .expect("open replica database")
}

/// A server config with replication knobs tightened for fast tests.
fn fast_server_config() -> ServerConfig {
    ServerConfig {
        repl_poll_interval: Duration::from_millis(1),
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::ephemeral()
    }
}

/// A replica config that reconnects aggressively (tests kill the primary
/// and want the reconnect to land within milliseconds, not seconds).
fn fast_replica_config(primary_addr: impl Into<String>) -> ReplicaConfig {
    let mut config = ReplicaConfig::new(primary_addr);
    config.retry = RetryPolicy {
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        ..RetryPolicy::default()
    };
    config
}

fn start_replica(db: &Arc<Database>, primary_addr: &str) -> ReplicaHandle {
    Replica::start(
        Arc::clone(db),
        fast_server_config(),
        fast_replica_config(primary_addr),
    )
    .expect("start replica")
}

/// Start a server on `config.addr`, retrying briefly — rebinding a fixed
/// port right after a shutdown can race the kernel releasing it.
fn start_server_retrying(config: &ServerConfig, db: &Arc<Database>) -> ServerHandle {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Server::start(config.clone(), Arc::clone(db)) {
            Ok(handle) => return handle,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("could not rebind {}: {e}", config.addr),
        }
    }
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// Canonical rendering of table `t` — byte-identical on two databases
/// iff they hold exactly the same committed rows.
fn dump(db: &Database) -> String {
    db.execute("SELECT x FROM t ORDER BY x")
        .expect("dump t")
        .to_table_string()
}

/// Like [`dump`] but tolerant of a database that is mid-bootstrap (the
/// table may not exist yet); errors render as a non-matching string.
fn try_dump(db: &Database) -> String {
    match db.execute("SELECT x FROM t ORDER BY x") {
        Ok(r) => r.to_table_string(),
        Err(e) => format!("<unavailable: {e}>"),
    }
}

fn converged(primary: &Database, replica: &Database) -> bool {
    try_dump(replica) == dump(primary)
}

fn seed_primary(fault: &FaultVfs) -> Arc<Database> {
    let db = Arc::new(open_primary(fault));
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 1..=3 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    db
}

/// SplitMix64 — drives the deterministic chaos schedule.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reserve a localhost port the test can rebind after restarting the
/// primary (std listeners set SO_REUSEADDR, so TIME_WAIT remnants from
/// the previous incarnation don't block the rebind).
fn reserved_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

// ---------------------------------------------------------------------
// The happy path: bootstrap, live streaming, read-only serving.
// ---------------------------------------------------------------------

#[test]
fn replica_bootstraps_streams_live_and_rejects_writes_naming_the_primary() {
    let pf = FaultVfs::new();
    let primary = seed_primary(&pf);
    let p_handle = Server::start(fast_server_config(), Arc::clone(&primary)).unwrap();
    let primary_addr = p_handle.local_addr().to_string();

    let rf = FaultVfs::new();
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &primary_addr);

    // A fresh replica (epoch 0) must bootstrap from a snapshot, then hold
    // exactly the primary's committed rows.
    wait_until("initial catch-up", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    assert_eq!(replica.status().bootstraps(), 1);
    assert!(replica.status().is_connected());

    // Live streaming: a commit after catch-up arrives without any
    // reconnect or re-bootstrap.
    primary.execute("INSERT INTO t VALUES (100)").unwrap();
    wait_until("live frame to apply", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    assert_eq!(
        replica.status().bootstraps(),
        1,
        "live frames, not snapshots"
    );

    // The replica serves ordinary read-only sessions over the wire.
    let mut client = HyliteClient::connect(replica.local_addr()).unwrap();
    let r = client.query("SELECT sum(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(106));

    // Writes are rejected with the typed retryable code, naming the
    // primary so the client knows where to go.
    let err = client.query("INSERT INTO t VALUES (7)").unwrap_err();
    assert!(matches!(err, HyError::ReadOnly(_)), "{err}");
    assert_eq!(client.last_error_code(), Some(ErrorCode::ReadOnlyReplica));
    assert!(ErrorCode::ReadOnlyReplica.is_retryable());
    assert!(
        err.to_string().contains(&primary_addr),
        "error must name the primary: {err}"
    );
    // DDL is a write too.
    let err = client.query("CREATE TABLE nope (x BIGINT)").unwrap_err();
    assert!(matches!(err, HyError::ReadOnly(_)), "{err}");

    // The rejection is per-statement: the session keeps working.
    let r = client.query("SELECT count(*) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(4));
    client.close().unwrap();

    // The rejected write never leaked into either side.
    assert!(
        !dump(&primary).contains('7'),
        "rejected write must not apply"
    );

    replica.shutdown();
    p_handle.shutdown();
}

// ---------------------------------------------------------------------
// Graceful restart: an intact replica resumes, it never re-bootstraps.
// ---------------------------------------------------------------------

#[test]
fn replica_restart_resumes_from_its_wal_without_rebootstrap() {
    let pf = FaultVfs::new();
    let primary = seed_primary(&pf);
    let p_handle = Server::start(fast_server_config(), Arc::clone(&primary)).unwrap();
    let primary_addr = p_handle.local_addr().to_string();

    let rf = FaultVfs::new();
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &primary_addr);
    wait_until("initial catch-up", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    replica.shutdown();
    drop(replica_db);

    // The primary keeps committing while the replica is down.
    for v in 4..=6 {
        primary
            .execute(&format!("INSERT INTO t VALUES ({v})"))
            .unwrap();
    }

    // Restart: same epoch, intact local WAL — the primary must accept the
    // resume position and stream only the missing frames.
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &primary_addr);
    wait_until("resume catch-up", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    assert_eq!(
        replica.status().bootstraps(),
        0,
        "an intact replica resumes; re-bootstrapping would discard durable state"
    );

    replica.shutdown();
    p_handle.shutdown();
}

// ---------------------------------------------------------------------
// The crash matrix, replica side: kill -9 at every registered crash
// point while frames are applying; after reboot the replica converges.
// ---------------------------------------------------------------------

#[test]
fn replica_crash_at_every_point_reconverges_after_restart() {
    for &point in CRASH_POINTS {
        // Backup copies and archive rotations never run on a following
        // replica (nothing takes a backup here and replicas do not
        // archive), so these points could never fire; their crash
        // semantics are covered in `tests/backup.rs`.
        if point == CP_BACKUP_SEG_COPY || point == CP_ARCHIVE_ROTATE {
            continue;
        }
        let pf = FaultVfs::new();
        let primary = seed_primary(&pf);
        let p_handle = Server::start(fast_server_config(), Arc::clone(&primary)).unwrap();
        let primary_addr = p_handle.local_addr().to_string();

        let rf = FaultVfs::new();
        let replica_db = Arc::new(open_replica(&rf));
        // Arm before the replica ever connects: the crash lands inside
        // the bootstrap install (checkpoint.* / wal.truncate points) or
        // inside a streamed frame's redo append (wal.* points).
        rf.arm_crash(CrashSpec::first(point));
        let mut config = fast_replica_config(&primary_addr);
        // Aggressive local checkpoints so the post-restart phase also
        // exercises the replica's own compaction path.
        config.checkpoint_wal_bytes = 256;
        let replica = Replica::start(
            Arc::clone(&replica_db),
            fast_server_config(),
            config.clone(),
        )
        .expect("start replica");

        // Commit until the crash fires on the replica.
        let mut v = 100i64;
        wait_until(
            &format!("{point}: replica crash to fire"),
            Duration::from_secs(10),
            || {
                if rf.crashed() {
                    return true;
                }
                primary
                    .execute(&format!("INSERT INTO t VALUES ({v})"))
                    .unwrap();
                v += 1;
                false
            },
        );
        assert!(rf.hits(point) >= 1, "{point}: crash point never hit");

        // One more acknowledged commit guarantees a frame arrives after
        // the crash, forcing the apply loop to observe the dead VFS. A
        // crashed replica must refuse to continue, never ack-and-skip.
        primary
            .execute(&format!("INSERT INTO t VALUES ({v})"))
            .unwrap();
        wait_until(
            &format!("{point}: replica to stop serving"),
            Duration::from_secs(10),
            || replica.status().has_failed(),
        );
        replica.shutdown();
        drop(replica_db);

        // Reboot, recover, re-follow: whether it resumes or re-bootstraps
        // is the protocol's choice — converging exactly is not optional.
        rf.reboot();
        let replica_db = Arc::new(open_replica(&rf));
        let replica = Replica::start(Arc::clone(&replica_db), fast_server_config(), config)
            .expect("restart replica");
        wait_until(
            &format!("{point}: post-crash convergence"),
            Duration::from_secs(10),
            || converged(&primary, &replica_db),
        );
        assert!(
            !replica.status().has_failed(),
            "{point}: recovered replica must serve again"
        );

        replica.shutdown();
        p_handle.shutdown();
    }
}

// ---------------------------------------------------------------------
// Primary kill -9: the restart mints a fresh epoch, which must fence the
// replica into a re-bootstrap — never a silent resume over a possibly
// forked history.
// ---------------------------------------------------------------------

#[test]
fn primary_restart_fences_replica_into_rebootstrap() {
    let addr = reserved_addr();
    let pf = FaultVfs::new();
    let primary = seed_primary(&pf);
    let epoch_a = primary.durability().unwrap().epoch();
    let mut p_config = fast_server_config();
    p_config.addr = addr.clone();
    let p_handle = Server::start(p_config.clone(), Arc::clone(&primary)).unwrap();

    let rf = FaultVfs::new();
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &addr);
    wait_until("initial catch-up", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    assert_eq!(replica.status().bootstraps(), 1);

    // Kill -9 the primary mid-commit: the in-flight insert of 999 was
    // never acknowledged and must not survive anywhere.
    pf.arm_crash(CrashSpec::first(CP_WAL_APPEND));
    assert!(primary.execute("INSERT INTO t VALUES (999)").is_err());
    assert!(pf.crashed());
    p_handle.shutdown();
    drop(primary);

    // While the primary is down the replica retries quietly — downtime is
    // a network fault, not a local one.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!replica.status().has_failed(), "downtime must not be fatal");

    // Restart the primary on the same address under a fresh epoch.
    pf.reboot();
    let primary = Arc::new(open_primary(&pf));
    let epoch_b = primary.durability().unwrap().epoch();
    assert_ne!(
        epoch_a, epoch_b,
        "a primary restart must mint a fresh epoch"
    );
    primary.execute("INSERT INTO t VALUES (1000)").unwrap();
    let p_handle = start_server_retrying(&p_config, &primary);

    // The epoch mismatch forces a snapshot re-bootstrap (the conservative
    // answer: the restart may have lost tail state the replica applied).
    wait_until("fenced re-bootstrap", Duration::from_secs(10), || {
        replica.status().bootstraps() >= 2
    });
    wait_until("post-failover convergence", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    let replica_rows = dump(&replica_db);
    assert!(
        !replica_rows.contains("999"),
        "lost commit resurrected: {replica_rows}"
    );
    assert!(
        replica_rows.contains("1000"),
        "new-epoch commit missing: {replica_rows}"
    );

    replica.shutdown();
    p_handle.shutdown();
}

// ---------------------------------------------------------------------
// The chaos soak (deterministic seed): kill -9 either side mid-stream,
// restart, repeat — the end state must be byte-identical.
// ---------------------------------------------------------------------

#[test]
fn chaos_soak_kill_both_sides_repeatedly_converges_byte_identical() {
    const WAL_POINTS: [&str; 4] = [
        CP_WAL_APPEND,
        CP_WAL_AFTER_WRITE,
        CP_WAL_PRE_FSYNC,
        CP_WAL_POST_FSYNC,
    ];
    let mut seed = 0x5EED_50AC_u64; // fixed: the whole schedule is replayable

    let addr = reserved_addr();
    let pf = FaultVfs::new();
    let mut primary = seed_primary(&pf);
    let mut p_config = fast_server_config();
    p_config.addr = addr.clone();
    let mut p_handle = Server::start(p_config.clone(), Arc::clone(&primary)).unwrap();

    let rf = FaultVfs::new();
    let mut replica_db = Arc::new(open_replica(&rf));
    let mut r_config = fast_replica_config(&addr);
    r_config.checkpoint_wal_bytes = 0; // restarts replay the full local WAL
    let mut replica = Replica::start(
        Arc::clone(&replica_db),
        fast_server_config(),
        r_config.clone(),
    )
    .unwrap();

    fn insert_batch(primary: &Database, next_val: &mut i64, n: usize) {
        for _ in 0..n {
            *next_val += 1;
            primary
                .execute(&format!("INSERT INTO t VALUES ({next_val})"))
                .unwrap();
        }
    }
    let mut next_val = 1000i64;

    for round in 0u64..6 {
        insert_batch(&primary, &mut next_val, 15);
        seed = splitmix64(seed ^ round);
        if round % 2 == 0 {
            // Kill -9 the replica at a seeded WAL point (page cache
            // survives a process kill, hence KeepUnsynced::All).
            let point = WAL_POINTS[(seed % 4) as usize];
            rf.arm_crash(CrashSpec::first_keeping(point, KeepUnsynced::All));
            wait_until("soak: replica crash", Duration::from_secs(10), || {
                if rf.crashed() {
                    return true;
                }
                insert_batch(&primary, &mut next_val, 1);
                false
            });
            insert_batch(&primary, &mut next_val, 1); // force a frame onto the dead VFS
            wait_until("soak: replica failure", Duration::from_secs(10), || {
                replica.status().has_failed()
            });
            replica.shutdown();
            drop(replica_db);
            rf.reboot();
            replica_db = Arc::new(open_replica(&rf));
            replica = Replica::start(
                Arc::clone(&replica_db),
                fast_server_config(),
                r_config.clone(),
            )
            .unwrap();
        } else {
            // Kill -9 the primary before the frame hits its WAL: the
            // failed commit was never acknowledged and must stay lost.
            pf.arm_crash(CrashSpec::first(CP_WAL_APPEND));
            next_val += 1;
            assert!(primary
                .execute(&format!("INSERT INTO t VALUES ({next_val})"))
                .is_err());
            p_handle.shutdown();
            drop(primary);
            pf.reboot();
            primary = Arc::new(open_primary(&pf));
            p_handle = start_server_retrying(&p_config, &primary);
        }
    }

    insert_batch(&primary, &mut next_val, 5);
    wait_until("soak: final convergence", Duration::from_secs(20), || {
        converged(&primary, &replica_db)
    });
    assert_eq!(
        dump(&primary),
        dump(&replica_db),
        "replica must converge byte-identically to the primary"
    );
    assert!(!replica.status().has_failed());

    replica.shutdown();
    p_handle.shutdown();
}

// ---------------------------------------------------------------------
// Flow control: a replica that stops acking is shed; primary commits
// never stall on it.
// ---------------------------------------------------------------------

#[test]
fn slow_replica_is_shed_while_primary_commits_proceed() {
    let pf = FaultVfs::new();
    let primary = seed_primary(&pf);
    let mut config = fast_server_config();
    config.repl_max_unacked_bytes = 256; // a handful of frames
    config.repl_ack_timeout = Duration::from_millis(100);
    let p_handle = Server::start(config, Arc::clone(&primary)).unwrap();

    // A hand-rolled replica that handshakes and then never acks.
    let mut sock = TcpStream::connect(p_handle.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::write_frame(
        &mut sock,
        &Frame::Replicate {
            version: PROTOCOL_VERSION,
            epoch: 0,
            last_lsn: 0,
        },
    )
    .unwrap();
    let offer = wire::read_frame(&mut sock).unwrap();
    assert!(
        matches!(offer, Frame::SnapshotOffer { .. }),
        "an epoch-0 replica always gets a snapshot, got {offer:?}"
    );

    // Commits on the primary must never wait for the stalled replica.
    let started = Instant::now();
    for v in 0..40 {
        primary
            .execute(&format!("INSERT INTO t VALUES ({})", 200 + v))
            .unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "primary commits stalled behind a dead replica"
    );

    // The stream delivers some frames, then a typed shed notice.
    let shed_code = loop {
        match wire::read_frame(&mut sock) {
            Ok(Frame::WalFrame { .. }) => continue,
            Ok(Frame::Error { code, .. }) => break ErrorCode::from_u16(code),
            Ok(other) => panic!("unexpected frame while stalled: {other:?}"),
            Err(e) => panic!("shed must be announced with an Error frame, got {e}"),
        }
    };
    assert!(
        shed_code.is_retryable(),
        "shed must be retryable: {shed_code:?}"
    );
    wait_until("shed metric", Duration::from_secs(5), || {
        primary.metrics().counter("server.replicas_shed").get() >= 1
    });
    wait_until("replica gauge to drop", Duration::from_secs(5), || {
        primary.metrics().gauge("server.replicas_connected").get() == 0
    });

    p_handle.shutdown();
}

// ---------------------------------------------------------------------
// Divergence: a stream that does not continue the replica's history is
// refused — the replica stops serving rather than forking silently.
// ---------------------------------------------------------------------

#[test]
fn diverged_stream_is_refused_and_the_replica_stops_serving() {
    // A fake primary that accepts the handshake and then ships a frame
    // from the future (an LSN gap = a history this replica never had).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let rf = FaultVfs::new();
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &addr);

    let (mut sock, _) = listener.accept().unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = wire::read_frame(&mut sock).unwrap();
    let Frame::Replicate {
        epoch, last_lsn, ..
    } = hello
    else {
        panic!("expected a Replicate handshake, got {hello:?}");
    };
    assert_eq!(epoch, 0, "a fresh replica has no epoch");
    assert_eq!(last_lsn, 0, "a fresh replica has no history");

    wire::write_frame(
        &mut sock,
        &Frame::ReplicateOk {
            epoch: 0xBAD,
            next_lsn: 1,
        },
    )
    .unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&99u64.to_le_bytes()); // lsn 99: a 98-commit gap
    payload.extend_from_slice(&0u32.to_le_bytes()); // zero ops
    wire::write_frame(
        &mut sock,
        &Frame::WalFrame {
            lsn: 99,
            crc: crc32(&payload),
            payload,
        },
    )
    .unwrap();

    // The replica must go fatal — and it must never have acked the frame.
    wait_until("refusal", Duration::from_secs(10), || {
        replica.status().has_failed()
    });
    assert_eq!(
        replica.status().last_applied_lsn(),
        0,
        "gap frame must not apply"
    );
    assert!(replica_db.metrics().counter("repl.fatal_errors").get() >= 1);

    // "Refuses to serve" is literal: the SQL side shuts down too.
    wait_until("serving side to stop", Duration::from_secs(10), || {
        HyliteClient::connect(replica.local_addr()).is_err()
    });

    replica.shutdown();
}

// ---------------------------------------------------------------------
// Promotion: a caught-up replica becomes a writable primary under a
// fresh epoch; without --promote the replica dir refuses to open
// writable.
// ---------------------------------------------------------------------

#[test]
fn promotion_turns_a_caught_up_replica_into_a_writable_primary() {
    let pf = FaultVfs::new();
    let primary = seed_primary(&pf);
    let old_epoch = primary.durability().unwrap().epoch();
    let p_handle = Server::start(fast_server_config(), Arc::clone(&primary)).unwrap();
    let primary_addr = p_handle.local_addr().to_string();

    let rf = FaultVfs::new();
    let replica_db = Arc::new(open_replica(&rf));
    let replica = start_replica(&replica_db, &primary_addr);
    wait_until("catch-up before failover", Duration::from_secs(10), || {
        converged(&primary, &replica_db)
    });
    let expected = dump(&primary);
    replica.shutdown();
    drop(replica_db);
    p_handle.shutdown(); // the old primary is confirmed dead

    // The fence: a replica dir will not open writable by accident.
    let err = match Database::open_with(
        Arc::new(rf.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        DurabilityOptions::default(),
    ) {
        Err(e) => e,
        Ok(_) => panic!("a replica dir must refuse to open writable without --promote"),
    };
    assert!(err.to_string().contains("--promote"), "{err}");

    // Deliberate promotion: writable, fresh epoch, all replicated data.
    let promoted = Database::open_with(
        Arc::new(rf.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        DurabilityOptions {
            promote: true,
            ..DurabilityOptions::default()
        },
    )
    .unwrap();
    assert!(!promoted.is_replica());
    assert_ne!(
        promoted.durability().unwrap().epoch(),
        old_epoch,
        "promotion must mint its own epoch, fencing stale followers"
    );
    assert_eq!(
        dump(&promoted),
        expected,
        "promotion must not lose replicated rows"
    );
    promoted.execute("INSERT INTO t VALUES (4242)").unwrap();
    drop(promoted);

    // The promoted primary is an ordinary primary from here on: it
    // restarts without --promote and keeps its commits.
    let reopened = open_primary(&rf);
    assert!(
        dump(&reopened).contains("4242"),
        "promoted commit lost on restart"
    );
}

// ---------------------------------------------------------------------
// Satellite: per-statement panic isolation.
// ---------------------------------------------------------------------

#[test]
fn statement_panic_kills_only_its_own_connection() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let mut config = ServerConfig::ephemeral();
    config.panic_on_sql = Some("SELECT 666".into());
    let handle = Server::start(config, Arc::new(db)).unwrap();

    let mut victim = HyliteClient::connect(handle.local_addr()).unwrap();
    let mut bystander = HyliteClient::connect(handle.local_addr()).unwrap();

    let err = victim.query("SELECT 666").unwrap_err();
    assert!(matches!(err, HyError::Internal(_)), "{err}");
    assert!(err.to_string().contains("panicked"), "{err}");
    // Session state after a panic is unknown, so that connection dies...
    assert!(
        victim.query("SELECT 1").is_err(),
        "panicked session must close"
    );

    // ...but the server and every other connection are unharmed.
    let r = bystander.query("SELECT sum(x) FROM t").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(1));
    assert_eq!(handle.metrics().counter("server.panics").get(), 1);

    // Still accepting fresh connections.
    let mut late = HyliteClient::connect(handle.local_addr()).unwrap();
    assert_eq!(
        late.query("SELECT 2").unwrap().scalar().unwrap(),
        Value::Int(2)
    );

    late.close().unwrap();
    bystander.close().unwrap();
    handle.shutdown();
}

// ---------------------------------------------------------------------
// Satellite: streamed queries retry only before the first chunk.
// ---------------------------------------------------------------------

#[test]
fn query_streamed_with_retry_retries_until_a_slot_frees() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    for v in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
    }
    let config = ServerConfig {
        max_active_statements: 1,
        statement_queue_depth: 0,
        ..ServerConfig::ephemeral()
    };
    let handle = Server::start(config, Arc::new(db)).unwrap();
    let addr = handle.local_addr();

    // Occupy the only execution slot with a long ITERATE.
    let mut occupant = HyliteClient::connect(addr).unwrap();
    let cancel = occupant.cancel_handle();
    let occupant_thread = std::thread::spawn(move || {
        let _ = occupant.query(
            "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 5000000))",
        );
    });

    let mut client = HyliteClient::connect(addr).unwrap();
    wait_until("slot to be occupied", Duration::from_secs(10), || {
        matches!(client.query("SELECT 1"), Err(HyError::Unavailable(_)))
    });

    // Free the slot shortly — the streamed query's early retries will
    // collide with the occupant, then succeed.
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        cancel.cancel().expect("cancel the occupant");
    });

    let policy = RetryPolicy {
        max_attempts: 100,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(50),
        deadline: Duration::from_secs(20),
    };
    let mut stream = client
        .query_streamed_with_retry("SELECT x FROM t ORDER BY x", &policy)
        .unwrap();
    let mut rows = 0usize;
    while let Some(chunk) = stream.next_chunk().unwrap() {
        rows += chunk.len();
    }
    drop(stream);
    assert_eq!(rows, 10);
    assert!(
        client.retries() >= 1,
        "the first attempts must have been shed"
    );

    canceller.join().unwrap();
    occupant_thread.join().unwrap();
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn connect_with_retry_counts_its_failed_attempts_once_connected() {
    let handle = Server::start(ServerConfig::ephemeral(), Arc::new(Database::new())).unwrap();
    let addr = handle.local_addr();
    let fault = FaultNet::new(7);
    let net = NetHandle::new(fault.clone());
    let policy = RetryPolicy {
        max_attempts: 4,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(20),
    };

    fault.refuse_connects(NP_CLIENT_CONNECT, 2);
    let mut client = HyliteClient::connect_with_retry_via(&net, addr, &policy).unwrap();
    assert_eq!(client.retries(), 2, "two refused attempts, then connected");
    assert_eq!(
        client.query("SELECT 1").unwrap().scalar().unwrap(),
        Value::Int(1)
    );

    fault.refuse_connects(NP_CLIENT_CONNECT, 9);
    let err = HyliteClient::connect_with_retry_via(&net, addr, &policy).unwrap_err();
    assert!(matches!(err, HyError::Unavailable(_)), "{err}");
    assert!(err.to_string().ends_with("(after 4 attempts)"), "{err}");

    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn query_with_retry_counts_each_retry() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let config = ServerConfig {
        max_active_statements: 1,
        statement_queue_depth: 0,
        ..ServerConfig::ephemeral()
    };
    let handle = Server::start(config, Arc::new(db)).unwrap();
    let addr = handle.local_addr();
    let fault = FaultNet::new(7);
    let mut client = HyliteClient::connect_via(&NetHandle::new(fault.clone()), addr).unwrap();
    let policy = RetryPolicy {
        max_attempts: 3,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        deadline: Duration::from_secs(20),
    };
    let sum = "SELECT sum(x) FROM t";

    // A broken connection is re-opened, and the statement re-sent once.
    fault.reset_after(NP_CLIENT_CONNECT, 0);
    let r = client.query_with_retry(sum, &policy).unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
    assert_eq!(client.retries(), 1);

    // An error that is not retryable comes back at once, as it is.
    let err = client
        .query_with_retry("SELECT nope FROM t", &policy)
        .unwrap_err();
    assert_eq!(err.to_string(), "bind error: unknown column 'nope'");
    assert_eq!(client.retries(), 1);

    // A shed statement is retried until the policy runs out.
    let mut occupant = HyliteClient::connect(addr).unwrap();
    let cancel = occupant.cancel_handle();
    let occupant_thread = std::thread::spawn(move || {
        let endless = "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
                       (SELECT x FROM iterate WHERE x >= 50000000))";
        // Shed while the poller's `SELECT 1` holds the only slot: sent
        // again until it runs, and so ends on the cancel.
        while let Err(HyError::Unavailable(_)) = occupant.query(endless) {}
    });
    wait_until("slot to be occupied", Duration::from_secs(10), || {
        matches!(client.query("SELECT 1"), Err(HyError::Unavailable(_)))
    });
    let err = client.query_with_retry(sum, &policy).unwrap_err();
    assert!(matches!(err, HyError::Unavailable(_)), "{err}");
    assert!(err.to_string().ends_with("(after 3 attempts)"), "{err}");
    assert_eq!(client.retries(), 3, "two more retries");

    cancel.cancel().expect("cancel the occupant");
    occupant_thread.join().unwrap();
    wait_until("slot to be free", Duration::from_secs(10), || {
        client.query("SELECT 1").is_ok()
    });
    let r = client.query_with_retry(sum, &policy).unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
    assert_eq!(
        client.retries(),
        3,
        "a first attempt that succeeds is no retry"
    );
    client.close().unwrap();
    handle.shutdown();
}
