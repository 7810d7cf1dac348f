//! The network server, end to end over real TCP: handshake, streamed
//! results identical to the embedded API, snapshot isolation across
//! connections, out-of-band cancellation, admission control, governor
//! defaults, stable wire error codes, and graceful shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite::{Database, ErrorCode, HyError, Server, ServerConfig, ServerHandle, Value};
use hylite_client::HyliteClient;

const CHUNK_ROWS: usize = hylite::common::CHUNK_ROWS;

fn start(db: Database, config: ServerConfig) -> ServerHandle {
    Server::start(config, Arc::new(db)).expect("server start")
}

fn start_default(db: Database) -> ServerHandle {
    start(db, ServerConfig::ephemeral())
}

/// An ITERATE that counts to five million — far longer than any test
/// waits, so only a cancel/timeout/drain can end it.
fn long_iterate_sql() -> &'static str {
    "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
     (SELECT x FROM iterate WHERE x >= 5000000))"
}

fn setup_edges(db: &Database, n: usize) {
    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")
        .unwrap();
    let mut values = Vec::with_capacity(n * 2);
    for i in 0..n as i64 {
        values.push(format!("({i},{})", (i + 1) % n as i64));
        values.push(format!("({i},{})", (i * 7 + 3) % n as i64));
    }
    db.execute(&format!("INSERT INTO edges VALUES {}", values.join(",")))
        .unwrap();
}

#[test]
fn handshake_and_simple_query() {
    let handle = start_default(Database::new());
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();
    assert!(client.session_id() > 0);
    let r = client.query("SELECT 1 + 1").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2));
    client.close().unwrap();
    handle.shutdown();
}

/// Results crossing the wire in multiple streamed chunks must equal the
/// embedded API's result byte for byte — including NULLs, floats, and
/// strings, whose encodings exercise every codec path.
#[test]
fn streamed_results_match_embedded() {
    let db = Database::new();
    db.execute("CREATE TABLE wide (id BIGINT, f DOUBLE, s VARCHAR, flag BOOLEAN)")
        .unwrap();
    let n = CHUNK_ROWS * 2 + 500; // forces at least three DataChunk frames
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        if i % 7 == 0 {
            values.push(format!("({i}, NULL, NULL, NULL)"));
        } else {
            values.push(format!("({i}, {}.5, 'row-{i}', {})", i, i % 2 == 0));
        }
    }
    for batch in values.chunks(4096) {
        db.execute(&format!("INSERT INTO wide VALUES {}", batch.join(",")))
            .unwrap();
    }
    let sql = "SELECT * FROM wide w WHERE w.id % 3 = 0";
    let embedded = db.execute(sql).unwrap().to_chunk().unwrap();

    let handle = start_default(db);
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();

    // Count the chunks as they stream to prove the result really crossed
    // the wire incrementally.
    let mut stream = client.query_streamed(sql).unwrap();
    let mut chunks = Vec::new();
    while let Some(chunk) = stream.next_chunk().unwrap() {
        assert!(chunk.len() <= CHUNK_ROWS, "server must re-slice to chunks");
        chunks.push(chunk);
    }
    let total: u64 = stream.summary().unwrap().total_rows;
    let schema = stream.schema().clone();
    drop(stream);
    assert!(chunks.len() > 1, "expected a multi-chunk stream");
    assert_eq!(total as usize, embedded.len());

    let remote = hylite::Chunk::concat(&schema.types(), &chunks).unwrap();
    assert_eq!(remote, embedded, "wire result differs from embedded result");
    client.close().unwrap();
    handle.shutdown();
}

/// Each connection is its own engine session: uncommitted writes are
/// visible only to their own connection, commits become visible to
/// others, and dropping a connection mid-transaction rolls back.
#[test]
fn transaction_isolation_across_connections() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    let handle = start_default(db);

    let count = |c: &mut HyliteClient| c.query("SELECT count(*) FROM t").unwrap().scalar().unwrap();
    let mut a = HyliteClient::connect(handle.local_addr()).unwrap();
    let mut b = HyliteClient::connect(handle.local_addr()).unwrap();
    a.query("BEGIN").unwrap();
    a.query("INSERT INTO t VALUES (3)").unwrap();
    assert_eq!(
        count(&mut a),
        Value::Int(3),
        "own uncommitted write visible"
    );
    assert_eq!(
        count(&mut b),
        Value::Int(2),
        "uncommitted write must be invisible to other connections"
    );
    a.query("COMMIT").unwrap();
    assert_eq!(count(&mut b), Value::Int(3), "commit becomes visible");

    // A dropped connection rolls its open transaction back.
    b.query("BEGIN").unwrap();
    b.query("INSERT INTO t VALUES (4)").unwrap();
    assert_eq!(count(&mut b), Value::Int(4));
    b.close().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if count(&mut a) == Value::Int(3) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect must roll back the open transaction"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    a.close().unwrap();
    handle.shutdown();
}

/// A second connection cancels the ITERATE running on the first; the
/// statement aborts promptly with `Cancelled` (retryable, code 3000) and
/// the session stays usable.
#[test]
fn over_the_wire_cancel_stops_running_iterate() {
    let handle = start_default(Database::new());
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();
    let cancel = client.cancel_handle();

    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        cancel.cancel().expect("cancel delivery")
    });
    let started = Instant::now();
    let err = client.query(long_iterate_sql()).unwrap_err();
    let elapsed = started.elapsed();
    assert!(watchdog.join().unwrap(), "server must find the session");
    assert!(matches!(err, HyError::Cancelled(_)), "{err}");
    assert_eq!(client.last_error_code(), Some(ErrorCode::Cancelled));
    assert!(ErrorCode::Cancelled.is_retryable());
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation took {elapsed:?}"
    );

    // Same connection keeps working after the abort.
    let r = client.query("SELECT 40 + 2").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(42));
    client.close().unwrap();
    handle.shutdown();
}

/// Cancelling with a wrong secret must not kill anyone's statement.
#[test]
fn cancel_requires_the_right_secret() {
    let handle = start_default(Database::new());
    let client = HyliteClient::connect(handle.local_addr()).unwrap();
    let good = client.cancel_handle();
    // A handle for a session that does not exist.
    let other = HyliteClient::connect(handle.local_addr()).unwrap();
    let stale = other.cancel_handle();
    other.close().unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the server unregister it
    assert!(!stale.cancel().unwrap(), "dead session: not delivered");
    assert!(good.cancel().unwrap(), "live session: delivered");
    handle.shutdown();
}

/// Startup frames beyond `max_connections` are rejected with the typed
/// `Overloaded` error; closing a connection frees the slot.
#[test]
fn connection_cap_rejects_and_recovers() {
    let db = Database::new();
    let handle = start(
        db,
        ServerConfig {
            max_connections: 2,
            ..ServerConfig::ephemeral()
        },
    );
    let a = HyliteClient::connect(handle.local_addr()).unwrap();
    let b = HyliteClient::connect(handle.local_addr()).unwrap();
    let err = HyliteClient::connect(handle.local_addr()).unwrap_err();
    assert!(matches!(err, HyError::Unavailable(_)), "{err}");
    assert!(err.message().contains("connection cap"), "{err}");

    a.close().unwrap();
    // The slot frees asynchronously as the connection thread unwinds.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut again = None;
    while Instant::now() < deadline {
        match HyliteClient::connect(handle.local_addr()) {
            Ok(c) => {
                again = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut again = again.expect("slot must free after close");
    assert_eq!(
        again.query("SELECT 1").unwrap().scalar().unwrap(),
        Value::Int(1)
    );
    again.close().unwrap();
    b.close().unwrap();
    let metrics = handle.metrics().snapshot();
    assert!(
        metrics.counter("server.connections_rejected") >= 1,
        "{:?}",
        metrics.counters
    );
    handle.shutdown();
}

/// With one execution slot and no queue, a concurrent statement is shed
/// immediately with `Overloaded`; with a queue it waits its turn.
#[test]
fn admission_backpressure_and_shedding() {
    let handle = start(
        Database::new(),
        ServerConfig {
            max_active_statements: 1,
            statement_queue_depth: 0,
            ..ServerConfig::ephemeral()
        },
    );
    let mut a = HyliteClient::connect(handle.local_addr()).unwrap();
    let cancel = a.cancel_handle();
    let runner = std::thread::spawn(move || {
        let err = a.query(long_iterate_sql()).unwrap_err();
        assert!(matches!(err, HyError::Cancelled(_)), "{err}");
        a
    });

    // Wait until the statement actually holds the execution slot.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let active = *handle
            .metrics()
            .snapshot()
            .gauges
            .get("server.active_statements")
            .unwrap_or(&0);
        if active >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "statement never became active");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut b = HyliteClient::connect(handle.local_addr()).unwrap();
    let err = b.query("SELECT 1").unwrap_err();
    assert!(matches!(err, HyError::Unavailable(_)), "{err}");
    assert_eq!(b.last_error_code(), Some(ErrorCode::Overloaded));
    assert!(ErrorCode::Overloaded.is_retryable());

    cancel.cancel().unwrap();
    let mut a = runner.join().unwrap();
    // The cancelled statement's slot frees on its own server thread;
    // wait for the gauge before asserting recovery.
    let deadline = Instant::now() + Duration::from_secs(5);
    while *handle
        .metrics()
        .snapshot()
        .gauges
        .get("server.active_statements")
        .unwrap_or(&0)
        > 0
    {
        assert!(Instant::now() < deadline, "slot never freed after cancel");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Slot free again: the same connection now gets through.
    assert_eq!(
        b.query("SELECT 2").unwrap().scalar().unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        a.query("SELECT 3").unwrap().scalar().unwrap(),
        Value::Int(3)
    );
    let metrics = handle.metrics().snapshot();
    assert!(metrics.counter("server.stmt_rejected_queue_full") >= 1);
    a.close().unwrap();
    b.close().unwrap();
    handle.shutdown();
}

/// Server-level governor defaults apply to fresh sessions; a client `SET`
/// overrides them.
#[test]
fn server_governor_defaults_and_set_override() {
    let db = Database::new();
    setup_edges(&db, 64);
    let handle = start(
        db,
        ServerConfig {
            statement_timeout_ms: 150,
            ..ServerConfig::ephemeral()
        },
    );
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();
    let long_pagerank =
        "SELECT count(*) FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0, 1000000)";
    let err = client.query(long_pagerank).unwrap_err();
    assert!(matches!(err, HyError::Timeout(_)), "{err}");
    assert_eq!(client.last_error_code(), Some(ErrorCode::Timeout));
    assert!(ErrorCode::Timeout.is_retryable());

    // Override the default: the same statement with few iterations now
    // has unlimited time and succeeds.
    client.query("SET statement_timeout_ms = 0").unwrap();
    let r = client
        .query("SELECT count(*) FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0, 3)")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(64));
    client.close().unwrap();
    handle.shutdown();
}

/// Every error family keeps its stable numeric code across the wire.
#[test]
fn wire_error_codes_are_stable_and_typed() {
    let handle = start_default(Database::new());
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();

    let err = client.query("SELEC 1").unwrap_err();
    assert!(matches!(err, HyError::Parse(_)), "{err}");
    assert_eq!(client.last_error_code(), Some(ErrorCode::Parse));
    assert_eq!(ErrorCode::Parse.as_u16(), 1000);
    assert!(!ErrorCode::Parse.is_retryable(), "semantic, not transient");

    let err = client.query("SELECT * FROM no_such_table").unwrap_err();
    let code = client.last_error_code().unwrap();
    assert!(
        matches!(code, ErrorCode::Bind | ErrorCode::Catalog),
        "unknown table should be a semantic code, got {code:?} ({err})"
    );
    assert!(!code.is_retryable());

    // The session survives every semantic error.
    assert_eq!(
        client.query("SELECT 7").unwrap().scalar().unwrap(),
        Value::Int(7)
    );
    client.close().unwrap();
    handle.shutdown();
}

/// A session can ask for the shutdown itself: the server stops accepting,
/// the accept loop ends, and `join` (which requests nothing) returns.
#[test]
fn client_shutdown_server_stops_the_server() {
    let handle = start_default(Database::new());
    let addr = handle.local_addr();
    let mut client = HyliteClient::connect(addr).unwrap();
    assert_eq!(
        client.query("SELECT 20 + 22").unwrap().scalar().unwrap(),
        Value::Int(42)
    );
    client.shutdown_server().unwrap();
    handle.join();
    assert!(HyliteClient::connect(addr).is_err(), "still accepting");
}

/// Graceful shutdown lets an in-flight statement finish (drain), then the
/// server refuses new connections and stops.
#[test]
fn graceful_shutdown_drains_in_flight_statement() {
    let db = Database::new();
    setup_edges(&db, 64);
    let handle = start(
        db,
        ServerConfig {
            drain_timeout: Duration::from_secs(30),
            ..ServerConfig::ephemeral()
        },
    );
    let addr = handle.local_addr();
    let metrics = Arc::clone(handle.metrics());
    let mut client = HyliteClient::connect(addr).unwrap();
    // Enough iterations that the statement is still running when the poll
    // below observes it, even in release builds.
    let runner = std::thread::spawn(move || {
        client.query(
            "SELECT count(*) FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0, 100000)",
        )
    });
    // Wait for the statement to be on the engine before draining.
    let deadline = Instant::now() + Duration::from_secs(5);
    while *metrics
        .snapshot()
        .gauges
        .get("server.active_statements")
        .unwrap_or(&0)
        < 1
    {
        assert!(Instant::now() < deadline, "statement never became active");
        std::thread::sleep(Duration::from_millis(2));
    }
    handle.shutdown(); // blocks until drained

    let result = runner.join().unwrap().expect("drained statement completes");
    assert_eq!(result.scalar().unwrap(), Value::Int(64));
    assert_eq!(
        metrics
            .snapshot()
            .counter("server.shutdown_cancelled_statements"),
        0,
        "nothing should have been cancelled within the drain window"
    );
    // The listener is gone: new connections fail outright.
    assert!(HyliteClient::connect(addr).is_err());
}

/// When the drain deadline passes, stragglers are cancelled instead of
/// holding the shutdown hostage.
#[test]
fn shutdown_cancels_stragglers_after_deadline() {
    let handle = start(
        Database::new(),
        ServerConfig {
            drain_timeout: Duration::from_millis(100),
            ..ServerConfig::ephemeral()
        },
    );
    let metrics = Arc::clone(handle.metrics());
    let mut client = HyliteClient::connect(handle.local_addr()).unwrap();
    let runner = std::thread::spawn(move || client.query(long_iterate_sql()).unwrap_err());
    let deadline = Instant::now() + Duration::from_secs(5);
    while *metrics
        .snapshot()
        .gauges
        .get("server.active_statements")
        .unwrap_or(&0)
        < 1
    {
        assert!(Instant::now() < deadline, "statement never became active");
        std::thread::sleep(Duration::from_millis(2));
    }
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not hang on a runaway statement"
    );
    let err = runner.join().unwrap();
    assert!(matches!(err, HyError::Cancelled(_)), "{err}");
    assert!(
        metrics
            .snapshot()
            .counter("server.shutdown_cancelled_statements")
            >= 1
    );
}

/// New Startup frames during a drain are refused with `ShuttingDown`.
#[test]
fn draining_server_refuses_new_sessions() {
    let handle = start(
        Database::new(),
        ServerConfig {
            drain_timeout: Duration::from_millis(200),
            ..ServerConfig::ephemeral()
        },
    );
    let addr = handle.local_addr();
    let mut client = HyliteClient::connect(addr).unwrap();
    let runner = std::thread::spawn(move || client.query(long_iterate_sql()).unwrap_err());
    let shutdown_thread = std::thread::spawn(move || handle.shutdown());
    // During the drain window, a new connection is either refused at the
    // socket (listener closed) or with the typed ShuttingDown error.
    std::thread::sleep(Duration::from_millis(50));
    match HyliteClient::connect(addr) {
        Err(HyError::Unavailable(_)) | Err(HyError::Protocol(_)) => {}
        Err(other) => panic!("unexpected rejection: {other}"),
        Ok(_) => panic!("draining server accepted a new session"),
    }
    shutdown_thread.join().unwrap();
    let err = runner.join().unwrap();
    assert!(matches!(err, HyError::Cancelled(_)), "{err}");
}

/// The ISSUE's scale floor: 32 concurrent wire connections with a mixed
/// SQL + k-Means/PageRank stream, every result correct, zero errors.
#[test]
fn thirty_two_concurrent_clients_mixed_workload() {
    let report = hylite_bench::concurrent::run(hylite_bench::concurrent::ConcurrentConfig {
        clients: 32,
        statements_per_client: 5,
        tuples: 2_000,
        dims: 2,
        clusters: 2,
        edges: 512,
        max_active: 8,
    })
    .expect("storm");
    assert_eq!(report.completed, 32 * 5, "errors: {}", report.errors);
    assert_eq!(report.errors, 0);
}
