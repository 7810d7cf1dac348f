//! `SET plan_reuse = on` against `off`: the reuse table may only change how
//! often work is done, never a bit of the answer — not the values, not the
//! NULLs, not the chunk boundaries — with and without a memory budget.

use hylite::common::{Chunk, Result, Value};
use hylite::Database;
use hylite_bench::{queries, workloads};
use hylite_datagen::table1::KMeansExperiment;
use hylite_graph::LdbcConfig;

fn try_run(db: &Database, sql: &str, reuse: bool, budget_mb: u64) -> Result<Vec<Chunk>> {
    let mut session = db.session();
    let switch = if reuse { "on" } else { "off" };
    session.execute(&format!("SET plan_reuse = {switch}"))?;
    session.execute(&format!("SET memory_budget_mb = {budget_mb}"))?;
    Ok(session.execute(sql)?.into_chunks())
}

fn run(db: &Database, sql: &str, reuse: bool, budget_mb: u64) -> Vec<Chunk> {
    try_run(db, sql, reuse, budget_mb)
        .unwrap_or_else(|e| panic!("plan_reuse={reuse} budget={budget_mb}: {e}\n{sql}"))
}

/// Every cell of every chunk, floats as their bit patterns.
fn cells(chunks: &[Chunk]) -> Vec<Vec<Vec<String>>> {
    let cell = |v: Value| match v {
        Value::Float(f) => format!("f64:{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    chunks
        .iter()
        .map(|chunk| {
            (0..chunk.len())
                .map(|row| chunk.columns().iter().map(|c| cell(c.value(row))).collect())
                .collect()
        })
        .collect()
}

fn reuse_hits(db: &Database) -> u64 {
    let snapshot = db.metrics_snapshot();
    snapshot.counter("exec.subplan_reuse_hits") + snapshot.counter("exec.join_build_reuse_hits")
}

/// Runs `sql` both ways, unbudgeted and under a roomy budget (which turns
/// the governor's accounting on), and returns how many times the reuse
/// table served something during the unbudgeted `on` run.
fn assert_same_answer(db: &Database, sql: &str) -> u64 {
    let before = reuse_hits(db);
    let on = cells(&run(db, sql, true, 0));
    let hits = reuse_hits(db) - before;
    assert!(!on.is_empty() || hits == 0);
    let off = cells(&run(db, sql, false, 0));
    assert_eq!(reuse_hits(db) - before, hits, "off must not reuse: {sql}");
    assert_eq!(on, off, "plan_reuse changed the answer of: {sql}");
    for reuse in [true, false] {
        let budgeted = cells(&run(db, sql, reuse, 1024));
        assert_eq!(budgeted, off, "reuse={reuse}, budgeted: {sql}");
    }
    hits
}

#[test]
fn analytics_statement_shapes() {
    let d = 3;
    let kmeans = workloads::setup_kmeans(
        KMeansExperiment {
            n: 500,
            d,
            k: 3,
            iterations: 3,
        },
        11,
    )
    .unwrap();
    assert!(assert_same_answer(&kmeans.db, &queries::kmeans_iterate(d, 3)) > 0);
    assert!(assert_same_answer(&kmeans.db, &queries::kmeans_recursive_cte(d, 3)) > 0);
    assert_same_answer(&kmeans.db, &queries::kmeans_operator(d, 3));

    let nb = workloads::setup_naive_bayes(800, d, 11).unwrap();
    // One hit per UNION ALL branch after the first.
    assert_eq!(
        assert_same_answer(&nb.db, &queries::naive_bayes_sql(d)),
        d as u64 - 1
    );

    let graph = workloads::setup_pagerank(&LdbcConfig {
        vertices: 120,
        edges: 700,
        triangle_fraction: 0.25,
        seed: 5,
    })
    .unwrap();
    let iterations = 6;
    // Both joins keep their build side from the second iteration on.
    assert_eq!(
        assert_same_answer(
            &graph.db,
            &queries::pagerank_iterate(graph.vertices, 0.85, iterations)
        ),
        2 * (iterations as u64 - 1)
    );
    assert!(
        assert_same_answer(
            &graph.db,
            &queries::pagerank_recursive_cte(graph.vertices, 0.85, iterations)
        ) > 0
    );
}

#[test]
fn paper_listings() {
    let db = Database::new();
    assert_same_answer(
        &db,
        "SELECT * FROM ITERATE ((SELECT 7 \"x\"), (SELECT x+7 FROM iterate), \
         (SELECT x FROM iterate WHERE x >= 100))",
    );

    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT, weight DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO edges VALUES (1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (1, 3, 2.0)")
        .unwrap();
    assert_same_answer(
        &db,
        "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0001)",
    );

    db.execute("CREATE TABLE data (x FLOAT, y INTEGER, z FLOAT, desc2 VARCHAR(500))")
        .unwrap();
    db.execute("CREATE TABLE center (x FLOAT, y INTEGER, z FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO data VALUES (0.1, 0, 9.0, 'a'), (0.2, 1, 8.0, 'b'), \
         (5.1, 10, 1.0, 'c'), (5.3, 11, 2.0, 'd')",
    )
    .unwrap();
    db.execute("INSERT INTO center VALUES (1.0, 1, 0.0), (4.0, 9, 0.0)")
        .unwrap();
    assert_same_answer(
        &db,
        "SELECT * FROM KMEANS((SELECT x, y FROM data), (SELECT x, y FROM center), \
         λ(a, b) (a.x - b.x)^2 + (a.y - b.y)^2, 3)",
    );

    db.execute("CREATE TABLE base (v BIGINT)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO base VALUES {}", rows.join(",")))
        .unwrap();
    assert_same_answer(
        &db,
        "SELECT count(*) FROM ITERATE ((SELECT v, 0 AS i FROM base), \
         (SELECT v + 1, i + 1 FROM iterate), (SELECT i FROM iterate WHERE i >= 50))",
    );
    assert_same_answer(
        &db,
        "WITH RECURSIVE r (v, i) AS (SELECT v, 0 FROM base \
         UNION ALL SELECT v + 1, i + 1 FROM r WHERE i < 50) SELECT count(*) FROM r",
    );
}

fn base_table() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE base (k BIGINT, v DOUBLE)")
        .unwrap();
    let rows: Vec<String> = (0..40)
        .map(|i| format!("({}, {}.5)", i % 7, i - 20))
        .collect();
    db.execute(&format!("INSERT INTO base VALUES {}", rows.join(",")))
        .unwrap();
    db
}

#[test]
fn sub_plan_equal_in_init_and_step() {
    let db = base_table();
    let hits = assert_same_answer(
        &db,
        "SELECT * FROM ITERATE(\
           (SELECT s.m AS x, 0 AS i FROM (SELECT max(v) AS m FROM base) s), \
           (SELECT it.x + s.m AS x, it.i + 1 AS i \
            FROM iterate it, (SELECT max(v) AS m FROM base) s), \
           (SELECT i FROM iterate WHERE i >= 5))",
    );
    assert!(hits >= 4, "init computes it, every step reuses it: {hits}");
}

#[test]
fn nested_iterate_inside_recursive_cte() {
    let db = base_table();
    // The inner loop reads neither `r` nor anything that changes: it runs
    // once for the whole recursion.
    let inner = "SELECT * FROM ITERATE((SELECT 0.5 AS x, 0 AS j), \
                 (SELECT x * 2 + 1, j + 1 FROM iterate), (SELECT j FROM iterate WHERE j >= 3))";
    let hits = assert_same_answer(
        &db,
        &format!(
            "WITH RECURSIVE r (n, acc) AS (SELECT 1, 0.0 UNION ALL \
             SELECT q.n + 1, q.acc + z.x FROM (SELECT * FROM r WHERE n < 6) q, ({inner}) z) \
             SELECT * FROM r"
        ),
    );
    assert!(hits >= 4, "{hits}");
}

#[test]
fn inner_body_invariant_to_inner_table_reads_outer_table() {
    let db = base_table();
    // `o` does not change while the inner loop runs, but does from one
    // round of `r` to the next.
    let inner = "SELECT * FROM ITERATE((SELECT 0 AS x, 0 AS j), \
                 (SELECT it.x + o.s AS x, it.j + 1 AS j \
                  FROM iterate it, (SELECT sum(w.n) AS s FROM r w) o), \
                 (SELECT j FROM iterate WHERE j >= 4))";
    let hits = assert_same_answer(
        &db,
        &format!(
            "WITH RECURSIVE r (n, acc) AS (SELECT 1, 0 UNION ALL \
             SELECT q.n + 1, q.acc + z.x FROM (SELECT * FROM r WHERE n < 5) q, ({inner}) z) \
             SELECT * FROM r"
        ),
    );
    assert!(hits > 0);
}

#[test]
fn working_table_reached_only_through_a_sub_query() {
    let db = base_table();
    assert_same_answer(
        &db,
        "SELECT * FROM ITERATE((SELECT 1 AS x, 0 AS i), \
           (SELECT s.x * 2 + b.c AS x, s.i + 1 AS i \
            FROM (SELECT u.x, u.i FROM (SELECT * FROM iterate) u) s, \
                 (SELECT count(*) AS c FROM base) b), \
           (SELECT i FROM iterate WHERE i >= 6))",
    );
    // The same reading twice in one step: shared within a round, never
    // across rounds.
    assert_same_answer(
        &db,
        "SELECT * FROM ITERATE((SELECT 1 AS x, 0 AS i), \
           (SELECT a.x + b.x AS x, a.i + 1 AS i \
            FROM (SELECT max(x) AS x, max(i) AS i FROM iterate) a, \
                 (SELECT max(x) AS x, max(i) AS i FROM iterate) b), \
           (SELECT i FROM iterate WHERE i >= 6))",
    );
}

#[test]
fn system_views_are_never_shared() {
    let db = base_table();
    let sql = "SELECT count(*) FROM (SELECT name FROM hylite.metrics) a, \
               (SELECT name FROM hylite.metrics) a2";
    let before = reuse_hits(&db);
    db.execute(sql).unwrap();
    let plan = db
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .to_table_string();
    assert_eq!(reuse_hits(&db), before, "{plan}");
    assert_eq!(plan.matches("SystemScan").count(), 2, "{plan}");
    assert!(
        !plan.contains("reuse") && !plan.contains("never executed"),
        "{plan}"
    );
}

#[test]
fn aliases_and_zero_signs() {
    let db = base_table();
    // Equal sub-plans under equal aliases share ...
    let same_alias = "SELECT a.m + b.m FROM (SELECT max(v) AS m FROM base x) a, \
                      (SELECT max(v) AS m FROM base x) b";
    assert_eq!(assert_same_answer(&db, same_alias), 1);
    // ... under different aliases they may miss, but must not mis-share.
    assert_same_answer(
        &db,
        "SELECT a.m + b.n FROM (SELECT max(v) AS m FROM base x) a, \
         (SELECT min(v) AS n FROM base y) b",
    );
    // `0.0 = -0.0`, so these compare equal as plans; their bits differ,
    // whichever of the two runs first.
    for (first, second) in [("0.0", "-0.0"), ("-0.0", "0.0")] {
        assert_same_answer(
            &db,
            &format!(
                "SELECT k, sum(v) * {first} AS z FROM base GROUP BY k \
                 UNION ALL SELECT k, sum(v) * {second} AS z FROM base GROUP BY k"
            ),
        );
        assert_same_answer(
            &db,
            &format!(
                "SELECT a.k, a.z, b.z FROM (SELECT k, v * {first} AS z, v FROM base) a \
                 JOIN (SELECT k, v * {second} AS z FROM base) b ON a.k = b.k AND a.v < 1.0"
            ),
        );
    }
}

#[test]
fn the_switch_takes_on_off_one_zero_and_nothing_else() {
    let db = Database::new();
    let mut session = db.session();
    for value in ["on", "off", "1", "0"] {
        session
            .execute(&format!("SET plan_reuse = {value}"))
            .unwrap();
    }
    for value in ["true", "false", "2", "maybe"] {
        assert!(
            session
                .execute(&format!("SET plan_reuse = {value}"))
                .is_err(),
            "SET plan_reuse = {value}"
        );
    }
    // `on` / `off` are spellings of the switch, not of integers.
    assert!(session.execute("SET statement_timeout_ms = on").is_err());
    assert!(session.execute("SET memory_budget_mb = off").is_err());
}

#[test]
fn a_budget_too_small_to_keep_anything_still_answers() {
    let nb = workloads::setup_naive_bayes(4000, 3, 2).unwrap();
    let sql = queries::naive_bayes_sql(3);
    let off = cells(&run(&nb.db, &sql, false, 1));
    assert_eq!(cells(&run(&nb.db, &sql, true, 1)), off);
}

/// Budgets from "keeps nothing" to "keeps everything": wherever the
/// statement fits with the switch off it fits with it on, and answers the
/// same.
#[test]
fn budgets_between_too_small_and_roomy() {
    let kmeans = workloads::setup_kmeans(
        KMeansExperiment {
            n: 8000,
            d: 3,
            k: 3,
            iterations: 3,
        },
        11,
    )
    .unwrap();
    let graph = workloads::setup_pagerank(&LdbcConfig {
        vertices: 2000,
        edges: 20_000,
        triangle_fraction: 0.25,
        seed: 5,
    })
    .unwrap();
    for (db, sql) in [
        (&kmeans.db, queries::kmeans_iterate(3, 3)),
        (&kmeans.db, queries::kmeans_recursive_cte(3, 3)),
        (
            &graph.db,
            queries::pagerank_iterate(graph.vertices, 0.85, 5),
        ),
    ] {
        let unbudgeted = cells(&run(db, &sql, false, 0));
        let mut fitted = 0;
        for budget_mb in 1..=6 {
            let Ok(off) = try_run(db, &sql, false, budget_mb) else {
                continue;
            };
            fitted += 1;
            assert_eq!(cells(&off), unbudgeted, "budget={budget_mb}");
            // Fits as written, so `run` must not panic.
            let on = run(db, &sql, true, budget_mb);
            assert_eq!(cells(&on), unbudgeted, "budget={budget_mb}");
        }
        assert!(
            fitted > 0 && fitted < 6,
            "the sweep straddles the fit: {fitted}"
        );
    }
}
