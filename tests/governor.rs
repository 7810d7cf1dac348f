//! The per-statement resource governor, end to end: cooperative
//! cancellation, statement timeouts, and memory budgets each abort a
//! long-running statement with the right error variant — and the session
//! stays usable afterwards.

use std::time::Duration;

use hylite::{Database, HyError, Value};

/// A PageRank with ε = 0 so it always runs the full iteration count —
/// far too many iterations to finish before the governor steps in.
fn long_pagerank_sql() -> &'static str {
    "SELECT count(*) FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0, 1000000)"
}

fn setup_edges(db: &Database, n: usize) {
    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")
        .unwrap();
    // A ring plus chords: every vertex reachable, no dangling shortcuts.
    let mut values = Vec::with_capacity(n * 2);
    for i in 0..n as i64 {
        let next = (i + 1) % n as i64;
        let chord = (i * 7 + 3) % n as i64;
        values.push(format!("({i},{next})"));
        values.push(format!("({i},{chord})"));
    }
    db.execute(&format!("INSERT INTO edges VALUES {}", values.join(",")))
        .unwrap();
}

/// The session must answer simple queries normally after a governed abort.
fn assert_session_usable(db: &Database) {
    let r = db.execute("SELECT 1 + 1").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2));
}

#[test]
fn cancel_before_first_morsel_aborts_immediately() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    // Pre-cancel: the statement must die at its very first check point.
    db.cancel_handle().cancel();
    let err = db.execute("SELECT count(*) FROM t").unwrap_err();
    assert!(matches!(err, HyError::Cancelled(_)), "{err}");
    assert_eq!(err.stage(), "cancelled");
    // The cancel fired once; the session resumes normal service.
    assert_session_usable(&db);
}

#[test]
fn cancel_from_another_thread_stops_long_pagerank() {
    let db = std::sync::Arc::new(Database::new());
    setup_edges(&db, 2000);
    let handle = db.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        handle.cancel();
    });
    let started = std::time::Instant::now();
    let err = db.execute(long_pagerank_sql()).unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, HyError::Cancelled(_)), "{err}");
    // Cooperative checks fire within one iteration/morsel — the query
    // must stop far before running its 2000 iterations to completion.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "cancellation took {:?}",
        started.elapsed()
    );
    assert_session_usable(&db);
}

#[test]
fn statement_timeout_aborts_iterate_mid_loop() {
    let db = Database::new();
    db.execute("SET statement_timeout_ms = 50").unwrap();
    // An ITERATE that would run 5M iterations without the deadline.
    let err = db
        .execute(
            "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 5000000))",
        )
        .unwrap_err();
    assert!(matches!(err, HyError::Timeout(_)), "{err}");
    assert_eq!(err.stage(), "timeout");
    assert!(err.to_string().contains("50 ms"), "{err}");
    // 0 disables the deadline again; the same loop shape (shortened)
    // completes.
    db.execute("SET statement_timeout_ms = 0").unwrap();
    let r = db
        .execute(
            "SELECT * FROM ITERATE((SELECT 0 \"x\"), (SELECT x + 1 FROM iterate), \
             (SELECT x FROM iterate WHERE x >= 100))",
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(100));
}

#[test]
fn statement_timeout_aborts_long_pagerank() {
    let db = Database::new();
    setup_edges(&db, 2000);
    db.execute("SET statement_timeout_ms = 40").unwrap();
    let err = db.execute(long_pagerank_sql()).unwrap_err();
    assert!(matches!(err, HyError::Timeout(_)), "{err}");
    db.execute("SET statement_timeout_ms = 0").unwrap();
    assert_session_usable(&db);
}

#[test]
fn budget_exceeded_inside_parallel_aggregation() {
    let db = Database::new();
    // Build a wide working set FIRST (unbudgeted): ~128k distinct keys
    // via ITERATE doubling.
    db.execute("CREATE TABLE big (k BIGINT)").unwrap();
    db.execute(
        "INSERT INTO big SELECT * FROM ITERATE((SELECT 1 \"x\"), \
         (SELECT x * 2 FROM iterate UNION ALL SELECT x * 2 + 1 FROM iterate), \
         (SELECT x FROM iterate WHERE x >= 131072))",
    )
    .unwrap();
    let n = db
        .execute("SELECT count(*) FROM big")
        .unwrap()
        .scalar()
        .unwrap();
    assert_eq!(n, Value::Int(131072));
    // A 1 MiB budget cannot hold ~128k group states (~48+ bytes each).
    db.execute("SET memory_budget_mb = 1").unwrap();
    let err = db
        .execute("SELECT k, count(*) FROM big GROUP BY k")
        .unwrap_err();
    assert!(matches!(err, HyError::BudgetExceeded(_)), "{err}");
    assert_eq!(err.stage(), "budget");
    // Small statements still fit under the same budget, and lifting it
    // restores the big aggregation.
    assert_session_usable(&db);
    db.execute("SET memory_budget_mb = 0").unwrap();
    let r = db
        .execute("SELECT count(*) FROM (SELECT k, count(*) FROM big GROUP BY k) g")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(131072));
}

#[test]
fn a_group_is_charged_once_however_many_chunks_touch_it() {
    let db = Database::new();
    db.execute("CREATE TABLE t (g BIGINT, x BIGINT)").unwrap();
    // 64 inserts of 4,096 rows: 64 input chunks, each touching all 4,096
    // groups. The aggregate's state is about half a megabyte.
    let rows: Vec<String> = (0..4096).map(|g| format!("({g},{})", g % 7)).collect();
    let insert = format!("INSERT INTO t VALUES {}", rows.join(","));
    for _ in 0..64 {
        db.execute(&insert).unwrap();
    }
    db.execute("SET memory_budget_mb = 8").unwrap();
    for sql in [
        "SELECT count(*) FROM (SELECT DISTINCT g FROM t) d",
        "SELECT count(*) FROM (SELECT g, sum(x) FROM t GROUP BY g) a",
        "SELECT count(*) FROM (SELECT g, avg(x), min(x), count(*) FROM t GROUP BY g) a",
    ] {
        let n = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(n.scalar().unwrap(), Value::Int(4096), "{sql}");
    }
}

#[test]
fn budget_exceeded_aborts_pagerank() {
    let db = Database::new();
    setup_edges(&db, 50000);
    db.execute("SET memory_budget_mb = 1").unwrap();
    let err = db.execute(long_pagerank_sql()).unwrap_err();
    assert!(matches!(err, HyError::BudgetExceeded(_)), "{err}");
    db.execute("SET memory_budget_mb = 0").unwrap();
    assert_session_usable(&db);
}

#[test]
fn governed_aborts_are_observable_in_metrics() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.cancel_handle().cancel();
    db.execute("SELECT * FROM t").unwrap_err();
    let snapshot = db.metrics_snapshot();
    let cancelled = snapshot
        .counters
        .iter()
        .find(|(name, _)| name.as_str() == "query.cancelled")
        .map(|(_, v)| *v);
    assert_eq!(cancelled, Some(1), "counters: {:?}", snapshot.counters);
}

#[test]
fn set_statement_validation() {
    let db = Database::new();
    // Unknown knob: bind error, settings unchanged.
    let err = db.execute("SET not_a_setting = 1").unwrap_err();
    assert!(matches!(err, HyError::Bind(_)), "{err}");
    assert!(err.to_string().contains("unknown session setting"), "{err}");
    // Negative values rejected at bind time.
    let err = db.execute("SET statement_timeout_ms = -5").unwrap_err();
    assert!(matches!(err, HyError::Bind(_)), "{err}");
    // `SET x TO v` is accepted alongside `=`.
    db.execute("SET statement_timeout_ms TO 1000").unwrap();
    db.execute("SET statement_timeout_ms = 0").unwrap();
    // Every setting takes the kind of value its row in the session's table
    // says: a switch on/off or 1/0, a number an integer.
    let err = db.execute("SET statement_timeout_ms = on").unwrap_err();
    assert_eq!(
        err.to_string(),
        "bind error: SET statement_timeout_ms: expected an integer, got on"
    );
    let err = db.execute("SET plan_reuse = 2").unwrap_err();
    assert_eq!(
        err.to_string(),
        "bind error: SET plan_reuse: expected on, off, 1 or 0, got 2"
    );
    for set in [
        "SET plan_reuse = off",
        "SET plan_reuse TO 1",
        "SET plan_reuse = on",
    ] {
        db.execute(set).unwrap();
    }
    // The whole list, in the table's order. The rewrite rules are not in
    // it: a test switches them with `Session::set_rules`.
    let available = "(available: statement_timeout_ms, memory_budget_mb, slow_query_ms, \
                     slow_query_log_size, plan_reuse, encoded_scan, threads)";
    for (set, name) in [
        ("SET not_a_setting = off", "not_a_setting"),
        ("SET groupjoin = off", "groupjoin"),
        ("SET broadcast_cross = off", "broadcast_cross"),
        ("SET join_reorder = on", "join_reorder"),
    ] {
        let err = db.execute(set).unwrap_err();
        assert!(matches!(err, HyError::Bind(_)), "{err}");
        let want = format!("bind error: unknown session setting '{name}' {available}");
        assert_eq!(err.to_string(), want);
    }
    assert_session_usable(&db);
}

#[test]
fn session_settings_are_independent_per_session() {
    let db = Database::new();
    let mut a = db.session();
    let mut b = db.session();
    a.execute("SET statement_timeout_ms = 77").unwrap();
    assert_eq!(a.settings().statement_timeout_ms, 77);
    assert_eq!(b.settings().statement_timeout_ms, 0, "b is untouched");
    b.execute("SET memory_budget_mb = 12").unwrap();
    assert_eq!(b.settings().memory_budget_mb, 12);
    assert_eq!(a.settings().memory_budget_mb, 0);
}
