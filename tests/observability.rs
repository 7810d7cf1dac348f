//! EXPLAIN ANALYZE and the engine-wide metrics registry, end to end.

use hylite::{Database, Value};

fn plan_text(db: &Database, sql: &str) -> String {
    db.execute(sql).unwrap().to_table_string()
}

/// Pull `key=value` integers out of an annotated plan line.
fn extract_u64(text: &str, key: &str) -> Vec<u64> {
    let needle = format!("{key}=");
    text.match_indices(&needle)
        .map(|(i, _)| {
            let rest = &text[i + needle.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().unwrap()
        })
        .collect()
}

#[test]
fn explain_analyze_reports_actual_rows_for_join_and_aggregate() {
    let db = Database::new();
    db.execute("CREATE TABLE orders (id BIGINT, cust BIGINT, total DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE customers (id BIGINT, name VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    db.execute("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 2, 1.0), (13, 9, 2.0)")
        .unwrap();

    let sql = "SELECT c.name, sum(o.total) FROM orders o \
               JOIN customers c ON o.cust = c.id GROUP BY c.name";
    // The query itself: 3 orders match a customer, 2 output groups.
    let r = db.execute(sql).unwrap();
    assert_eq!(r.row_count(), 2);

    let text = plan_text(&db, &format!("EXPLAIN ANALYZE {sql}"));
    assert!(text.contains("Join kind=Inner"), "{text}");
    assert!(text.contains("Aggregate"), "{text}");
    assert!(text.contains("est_rows="), "estimates present: {text}");
    assert!(text.contains("Execution: total="), "{text}");

    // Actual cardinalities in the annotations match what really flowed:
    // the join emits 3 rows, the aggregate 2, and the scans 4 and 3.
    let actuals = extract_u64(&text, "actual rows");
    assert!(actuals.contains(&3), "join rows in {actuals:?}\n{text}");
    assert!(actuals.contains(&2), "group rows in {actuals:?}\n{text}");
    assert!(actuals.contains(&4), "orders scan in {actuals:?}\n{text}");
}

#[test]
fn plain_explain_has_estimates_but_no_actuals() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1),(2),(3),(4),(5),(6),(7),(8)")
        .unwrap();
    let text = plan_text(&db, "EXPLAIN SELECT x FROM t WHERE x > 3");
    assert!(text.contains("est_rows="), "{text}");
    assert!(!text.contains("actual rows"), "{text}");
    // The scan estimate uses live table cardinality: 8 rows × the
    // default filter selectivity (0.25) = 2.
    let ests = extract_u64(&text, "est_rows");
    assert!(ests.contains(&2), "{ests:?}\n{text}");
}

#[test]
fn explain_analyze_iterate_reports_iteration_count() {
    let db = Database::new();
    let text = plan_text(
        &db,
        "EXPLAIN ANALYZE SELECT * FROM ITERATE ((SELECT 1 \"x\"), \
         (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x >= 10))",
    );
    assert!(text.contains("Iterate"), "{text}");
    assert!(text.contains("[iterations=9]"), "{text}");
    assert!(
        text.contains("calls=9"),
        "loop body folded into one span: {text}"
    );
    assert!(text.contains("iterations=9"), "{text}");

    // The same count is queryable, not just printable.
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("iterate.iterations_total"), 9);
}

#[test]
fn explain_analyze_kmeans_exposes_per_iteration_metrics() {
    let db = Database::new();
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("CREATE TABLE ctr (x DOUBLE, y DOUBLE)").unwrap();
    db.execute("INSERT INTO pts VALUES (0.0,0.0),(0.5,0.5),(10.0,10.0),(10.5,10.5)")
        .unwrap();
    db.execute("INSERT INTO ctr VALUES (1.0,1.0),(9.0,9.0)")
        .unwrap();

    let text = plan_text(
        &db,
        "EXPLAIN ANALYZE SELECT * FROM KMEANS((SELECT x, y FROM pts), \
         (SELECT x, y FROM ctr), λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, 10)",
    );
    assert!(text.contains("KMeans"), "{text}");
    assert!(text.contains("[iterations="), "{text}");
    assert!(text.contains("[converged=true]"), "{text}");
    assert!(text.contains("[final_centroid_shift="), "{text}");

    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("kmeans.runs"), 1);
    let iters = snap.counter("kmeans.iterations_total");
    assert!(iters >= 1, "at least one iteration recorded");
    // Per-iteration wall-time histogram has one sample per iteration.
    let h = snap
        .histogram("kmeans.iteration_us")
        .expect("histogram exists");
    assert_eq!(h.count, iters);
    let shifts = snap
        .histogram("kmeans.centroid_shift_micro")
        .expect("shift histogram exists");
    assert_eq!(shifts.count, iters);
    // Converged: the final recorded centroid shift is zero.
    assert_eq!(shifts.min, 0);
}

#[test]
fn query_result_stats_carry_iterations_and_peak_memory() {
    let db = Database::new();
    db.execute("CREATE TABLE base (v BIGINT)").unwrap();
    db.execute("INSERT INTO base VALUES (1),(2),(3),(4)")
        .unwrap();

    let it = db
        .execute(
            "SELECT count(*) FROM ITERATE ((SELECT v, 0 AS i FROM base), \
             (SELECT v + 1, i + 1 FROM iterate), (SELECT i FROM iterate WHERE i >= 20))",
        )
        .unwrap();
    let cte = db
        .execute(
            "WITH RECURSIVE r (v, i) AS (SELECT v, 0 FROM base \
             UNION ALL SELECT v + 1, i + 1 FROM r WHERE i < 20) \
             SELECT count(*) FROM r",
        )
        .unwrap();
    assert_eq!(it.stats.iterations, 20);
    assert!(it.stats.peak_working_rows > 0);
    // The paper's §5.1 ablation: ITERATE keeps only the working set live,
    // the recursive CTE accumulates every iteration's tuples.
    assert!(
        cte.stats.peak_working_rows > 5 * it.stats.peak_working_rows,
        "ITERATE {} vs CTE {}",
        it.stats.peak_working_rows,
        cte.stats.peak_working_rows
    );
}

#[test]
fn metrics_snapshot_counters_are_monotonic() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    let before = db.metrics_snapshot();
    db.execute("SELECT x FROM t").unwrap();
    db.execute("SELECT x FROM t").unwrap();
    let _ = db.execute("SELECT nope FROM t");
    let after = db.metrics_snapshot();

    assert_eq!(
        after.counter("query.executed"),
        before.counter("query.executed") + 2
    );
    assert_eq!(
        after.counter("query.failed"),
        before.counter("query.failed") + 1
    );
    // Wall-time histogram saw every statement, pass or fail.
    let seen =
        |s: &hylite::MetricsSnapshot| s.histogram("query.wall_us").map(|h| h.count).unwrap_or(0);
    assert_eq!(seen(&after), seen(&before) + 3);

    // Sessions share the registry: a second session's queries land in the
    // same counters.
    let mut other = db.session();
    other.execute("SELECT x FROM t").unwrap();
    assert_eq!(
        db.metrics_snapshot().counter("query.executed"),
        after.counter("query.executed") + 1
    );

    // Transactions count too.
    db.execute("BEGIN").unwrap();
    db.execute("COMMIT").unwrap();
    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("tx.begin"), 1);
    assert_eq!(snap.counter("tx.commit"), 1);
}

#[test]
fn metrics_snapshot_renders_text_and_json() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1),(2)").unwrap();
    db.execute("SELECT sum(x) FROM t").unwrap();

    let snap = db.metrics_snapshot();
    let text = snap.render_text();
    assert!(text.contains("query.executed"), "{text}");
    assert!(text.contains("query.wall_us"), "{text}");

    let json = snap.render_json();
    assert!(json.contains("\"counters\""), "{json}");
    assert!(json.contains("\"query.executed\""), "{json}");
    // Valid enough to round-trip the counter value.
    assert!(json.contains(&format!(
        "\"query.executed\":{}",
        snap.counter("query.executed")
    )));
}

#[test]
fn explain_analyze_pagerank_reports_residual() {
    let db = Database::new();
    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1,2),(2,3),(3,1)")
        .unwrap();
    let text = plan_text(
        &db,
        "EXPLAIN ANALYZE SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0001)",
    );
    assert!(text.contains("PageRank"), "{text}");
    assert!(text.contains("[converged=true]"), "{text}");
    assert!(text.contains("[final_residual="), "{text}");

    let snap = db.metrics_snapshot();
    assert_eq!(snap.counter("pagerank.runs"), 1);
    assert!(snap.counter("pagerank.iterations_total") >= 1);
    assert!(snap.histogram("pagerank.residual_nano").is_some());
}

#[test]
fn explain_analyze_result_carries_exec_stats() {
    let db = Database::new();
    let r = db
        .execute(
            "EXPLAIN ANALYZE SELECT * FROM ITERATE ((SELECT 1 \"x\"), \
             (SELECT x + 1 FROM iterate), (SELECT x FROM iterate WHERE x >= 5))",
        )
        .unwrap();
    assert_eq!(r.stats.iterations, 4);
    assert!(r.stats.peak_working_rows > 0);
}

#[test]
fn explain_analyze_non_query_statement_executes() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    let r = db
        .execute("EXPLAIN ANALYZE INSERT INTO t VALUES (1), (2)")
        .unwrap();
    let text = r.to_table_string();
    assert!(text.contains("rows_affected=2"), "{text}");
    // The insert really happened.
    assert_eq!(
        db.execute("SELECT count(*) FROM t")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(2)
    );
}

/// Work the reuse table saved shows up where an operator looks for it: on
/// the plan node that did the work once (`calls=1 [reused=N]`, joins
/// `[build_reused=N]`), and as counters in the registry.
#[test]
fn explain_analyze_and_the_registry_show_reuse() {
    use hylite_bench::{queries, workloads};
    let d = 10;
    let nb = workloads::setup_naive_bayes(300, d, 1).unwrap();
    let explain = format!("EXPLAIN ANALYZE {}", queries::naive_bayes_sql(d));

    // Ten UNION ALL branches over the same three sub-queries: the first
    // branch computes their join, the other nine are served from it.
    let text = plan_text(&nb.db, &explain);
    assert_eq!(extract_u64(&text, "reused"), vec![9], "{text}");
    let owner = text.lines().find(|l| l.contains("[reused=9]")).unwrap();
    assert!(
        owner.contains("Join") && owner.contains("calls=1 "),
        "{owner}"
    );
    assert_eq!(text.matches("[from_reuse=yes]").count(), 9, "{text}");
    let hits = |db: &Database, name: &str| db.metrics_snapshot().counter(name);
    assert_eq!(hits(&nb.db, "exec.subplan_reuse_hits"), 9);
    let listed = nb
        .db
        .execute("SELECT value FROM hylite.metrics WHERE name = 'exec.subplan_reuse_hits'")
        .unwrap();
    assert_eq!(listed.scalar().unwrap(), Value::Int(9));

    // Switched off, nothing is reused and nothing says so.
    nb.db.execute("SET plan_reuse = off").unwrap();
    let text = plan_text(&nb.db, &explain);
    assert_eq!(
        extract_u64(&text, "reused").iter().sum::<u64>(),
        0,
        "{text}"
    );
    assert!(!text.contains("from_reuse") && !text.contains("never executed"));
    assert_eq!(hits(&nb.db, "exec.subplan_reuse_hits"), 9);

    // A loop: the degree sub-query and the hash table over `edges` are
    // built in the first iteration and kept for the other five.
    let graph = workloads::setup_pagerank(&hylite_graph::LdbcConfig {
        vertices: 60,
        edges: 300,
        triangle_fraction: 0.2,
        seed: 2,
    })
    .unwrap();
    let sql = queries::pagerank_iterate(graph.vertices, 0.85, 6);
    let text = plan_text(&graph.db, &format!("EXPLAIN ANALYZE {sql}"));
    assert_eq!(extract_u64(&text, "build_reused"), vec![5, 5], "{text}");
    let degree = text.lines().find(|l| l.contains("count(*)")).unwrap();
    assert!(degree.contains("calls=1 "), "{degree}");
    assert_eq!(hits(&graph.db, "exec.join_build_reuse_hits"), 10);
}

/// Which key layout a hash operator ran on is on its plan node
/// (`[keys=fixed|bytes]`, with `[groups=N]` or `[build_rows=N]`), and a
/// statement that fell off the fixed layout counts in the registry.
#[test]
fn explain_analyze_and_the_registry_show_key_layouts() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT, name VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (1, 'b'), (3, 'a'), (3, 'c')")
        .unwrap();
    let bytes_layouts = |db: &Database| {
        let sql = "SELECT value FROM hylite.metrics WHERE name = 'exec.hash_keys_bytes_layout'";
        let listed = db.execute(sql).unwrap();
        (listed.row_count() > 0).then(|| listed.scalar().unwrap())
    };
    let node = |text: &str, op: &str| -> String {
        let is_op = |l: &&str| l.trim_start_matches(['|', ' ']).starts_with(op);
        let line = text.lines().find(is_op);
        line.unwrap_or_else(|| panic!("no {op} in {text}")).into()
    };

    let by_id = "EXPLAIN ANALYZE SELECT id, count(*) FROM t GROUP BY id";
    let line = node(&plan_text(&db, by_id), "Aggregate");
    assert!(
        line.contains("[keys=fixed]") && line.contains("[groups=3]"),
        "{line}"
    );
    let join = "EXPLAIN ANALYZE SELECT count(*) FROM t a JOIN t b ON a.id = b.id";
    let line = node(&plan_text(&db, join), "Join");
    assert!(
        line.contains("[keys=fixed]") && line.contains("[build_rows=5]"),
        "{line}"
    );
    assert_eq!(bytes_layouts(&db), None, "every key so far was fixed-width");

    let by_name = "EXPLAIN ANALYZE SELECT name, count(*) FROM t GROUP BY name";
    let line = node(&plan_text(&db, by_name), "Aggregate");
    assert!(
        line.contains("[keys=bytes]") && line.contains("[groups=3]"),
        "{line}"
    );
    let distinct = "EXPLAIN ANALYZE SELECT DISTINCT name FROM t";
    let line = node(&plan_text(&db, distinct), "Distinct");
    assert!(
        line.contains("[keys=bytes]") && line.contains("[groups=3]"),
        "{line}"
    );
    assert_eq!(bytes_layouts(&db), Some(Value::Int(2)));
}

#[test]
fn explain_analyze_and_the_registry_show_what_a_scan_selected() {
    // A checkpointed table on a real directory: its scans read encoded
    // disk segments.
    let dir = std::env::temp_dir().join(format!("hylite-obs-scan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE t (id BIGINT, tag VARCHAR, v DOUBLE)")
        .unwrap();
    let rows: Vec<String> = (0..10_000)
        .map(|i| format!("({i}, 'g{}', {i}.5)", i / 2500))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(",")))
        .unwrap();
    db.checkpoint().unwrap();

    // 'g1' is rows 2500..5000: blocks 0 and 1 of three hold some, block 2
    // ('g2'..'g3') is pruned by its zone map. With the switch off (the
    // default) every row of the two blocks reaches the filter.
    let sql = "SELECT sum(v) FROM t WHERE tag = 'g1'";
    let text = plan_text(&db, &format!("EXPLAIN ANALYZE {sql}"));
    let scan = text.lines().find(|l| l.contains("TableScan")).unwrap();
    assert_eq!(extract_u64(scan, "rows_selected"), vec![8192], "{scan}");
    db.execute("SET encoded_scan = on").unwrap();
    let before = db.metrics_snapshot().counter("scan.rows_selected");
    let text = plan_text(&db, &format!("EXPLAIN ANALYZE {sql}"));
    let scan = text.lines().find(|l| l.contains("TableScan")).unwrap();
    assert!(scan.contains("cols=[1, 2]"), "{scan}");
    assert_eq!(extract_u64(scan, "rows_selected"), vec![2500], "{scan}");
    assert_eq!(extract_u64(scan, "blocks_scanned"), vec![2], "{scan}");
    assert_eq!(extract_u64(scan, "blocks_pruned"), vec![1], "{scan}");
    assert_eq!(
        extract_u64(scan, "blocks_skipped_encoded"),
        vec![0],
        "{scan}"
    );
    // A tag no block holds, inside every zone map: all three blocks are
    // skipped on their dictionaries and `v` is never read.
    let absent = "EXPLAIN ANALYZE SELECT sum(v) FROM t WHERE tag > 'g0' AND tag < 'g1'";
    let text = plan_text(&db, absent);
    let scan_absent = text.lines().find(|l| l.contains("TableScan")).unwrap();
    let skipped = extract_u64(scan_absent, "blocks_skipped_encoded")[0];
    assert_eq!(
        skipped,
        extract_u64(scan_absent, "blocks_scanned")[0],
        "{scan_absent}"
    );
    assert!(skipped > 0, "{scan_absent}");
    assert_eq!(
        extract_u64(scan_absent, "rows_selected"),
        vec![0],
        "{scan_absent}"
    );

    // The same counts are in the registry, `hylite.metrics` included.
    let m = db.metrics_snapshot();
    assert_eq!(m.counter("scan.rows_selected"), before + 2500);
    assert_eq!(m.counter("scan.blocks_skipped_encoded"), skipped);
    let listed = db
        .execute("SELECT value FROM hylite.metrics WHERE name = 'scan.rows_selected'")
        .unwrap();
    assert_eq!(listed.scalar().unwrap(), Value::Int(before as i64 + 2500));
    // The pool holds encoded blocks: the whole table is far smaller than
    // its 10,000 decoded (id, tag, v) rows.
    let pool_bytes = db
        .execute("SELECT value FROM hylite.metrics WHERE name = 'storage.pool.bytes'")
        .unwrap()
        .scalar()
        .unwrap()
        .as_int()
        .unwrap();
    assert!(pool_bytes > 0 && pool_bytes < 10_000 * 10, "{pool_bytes}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A loop body's hash table sizes are the largest over its rounds: the
/// last round of this recursive CTE runs the body on an empty working
/// table, and its aggregate and join must not report that round's zero.
#[test]
fn explain_analyze_sizes_are_the_largest_over_a_loops_rounds() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (2), (3)")
        .unwrap();
    let text = plan_text(
        &db,
        "EXPLAIN ANALYZE WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL \
         SELECT w.n + 1 FROM t JOIN (SELECT * FROM r WHERE n < 3) w ON t.id = w.n \
         GROUP BY w.n) SELECT * FROM r",
    );
    let line = |op: &str| {
        let mut lines = text.lines();
        let found = lines.find(|l| l.trim_start_matches(['|', ' ']).starts_with(op));
        found
            .unwrap_or_else(|| panic!("no {op}:\n{text}"))
            .to_string()
    };
    let (aggregate, join) = (line("Aggregate"), line("Join"));
    assert_eq!(extract_u64(&aggregate, "calls"), vec![3], "{text}");
    assert_eq!(extract_u64(&aggregate, "[groups"), vec![1], "{text}");
    assert_eq!(extract_u64(&join, "[build_rows"), vec![1], "{text}");
}
