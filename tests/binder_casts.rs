//! The binder's cast projections and analytics-input checks, pinned.
//!
//! Every statement of [`CASTS`] binds to the plan it bound to at e63e5d0
//! (`tests/golden/binder_casts.txt`, the `{:?}` of each bound statement,
//! printed there by `print_binder_casts_for_the_golden` below), and every
//! statement of [`ERRORS`] fails with the message it failed with there,
//! verbatim — except the first two, an INSERT column list naming a column
//! the table lacks or naming one twice, which bound there.

use hylite::planner::Binder;
use hylite::Database;

/// `t(a BIGINT, b DOUBLE, s VARCHAR)`, `w(x, y, label)` all BIGINT,
/// `d(x, y DOUBLE, label VARCHAR)`, `e(src, dest, weight)` all BIGINT.
fn database() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE t (a BIGINT, b DOUBLE, s VARCHAR)",
        "CREATE TABLE w (x BIGINT, y BIGINT, label BIGINT)",
        "CREATE TABLE d (x DOUBLE, y DOUBLE, label VARCHAR)",
        "CREATE TABLE e (src BIGINT, dest BIGINT, weight BIGINT)",
    ] {
        db.execute(ddl).unwrap();
    }
    db
}

/// Statements whose bound form carries a cast projection.
const CASTS: &[&str] = &[
    "INSERT INTO t VALUES (1, 2, 'x')",
    "INSERT INTO t (s, a) VALUES ('x', 1)",
    "INSERT INTO t (b) SELECT a FROM t",
    "INSERT INTO t (a, b, s) SELECT x, y, 'z' FROM w",
    "SELECT a FROM t UNION SELECT b FROM t",
    "SELECT a, b FROM t UNION ALL SELECT b, a FROM t",
    "WITH RECURSIVE r (n) AS (SELECT 1.5 UNION ALL SELECT CAST(n AS BIGINT) + 1 FROM r WHERE n < 5) \
     SELECT * FROM r",
    "SELECT * FROM ITERATE((SELECT 1.0 x), (SELECT 2 FROM iterate), (SELECT x FROM iterate), 7)",
    "SELECT * FROM KMEANS((SELECT x, y FROM w), (SELECT x, y FROM w LIMIT 2), 5)",
    "SELECT * FROM KMEANS((SELECT x, y FROM d), (SELECT x, y FROM w LIMIT 2), \
     LAMBDA(p, q) (p.x - q.x)^2 + (p.y - q.y)^2)",
    "SELECT * FROM KMEANS_ASSIGN((SELECT x, y FROM w), (SELECT x, y FROM d LIMIT 2))",
    "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT label, x, y FROM w), label)",
    "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT x, y, label FROM d))",
    "SELECT * FROM CLASS_STATS((SELECT x, label, y FROM w), label)",
    "SELECT * FROM CLASS_STATS((SELECT x, y, label FROM d))",
    "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT * FROM NAIVE_BAYES_TRAIN((SELECT x, y, label FROM w))), \
     (SELECT x, y FROM w))",
    "SELECT * FROM PAGERANK((SELECT src, dest, weight FROM e), 0.85, 0.0001, 20)",
    "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 0.85, 0.0001)",
    "SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1",
    "SELECT a FROM t OFFSET 3",
];

/// `sql`, then the `{:?}` of its bound statement (or of its error).
fn golden_line(db: &Database, sql: &str) -> String {
    let stmt = hylite::sql::parse_statement(sql).unwrap();
    let bound = Binder::new(db.catalog()).bind_statement(&stmt);
    format!("{sql}\n{bound:?}")
}

/// `cargo test --test binder_casts -- --ignored --nocapture print_binder`
/// at the commit whose bound plans are to be pinned.
#[test]
#[ignore = "prints the golden; run it by name"]
fn print_binder_casts_for_the_golden() {
    let db = database();
    for sql in CASTS {
        println!("{}", golden_line(&db, sql));
    }
}

#[test]
fn every_cast_projection_binds_as_at_the_parent() {
    let db = database();
    let mut golden = include_str!("golden/binder_casts.txt").lines();
    for sql in CASTS {
        let want =
            [golden.next(), golden.next()].map(|l| l.expect("two golden lines per statement"));
        assert_eq!(golden_line(&db, sql), want.join("\n"));
    }
    assert_eq!(golden.next(), None, "a golden line per statement");
}

/// Every binder error on the paths the cast projection and the analytics
/// prologue run through, with its message.
const ERRORS: &[(&str, &str)] = &[
    (
        "INSERT INTO t (a, nope) VALUES (1, 2)",
        "bind error: unknown column 'nope'",
    ),
    (
        "INSERT INTO t (a, A) VALUES (1, 2)",
        "bind error: duplicate column 'a' in INSERT",
    ),
    (
        "INSERT INTO t (a) VALUES (1, 2)",
        "bind error: INSERT provides 1 columns but source has 2",
    ),
    (
        "INSERT INTO t VALUES (1, 2)",
        "bind error: INSERT provides 3 columns but source has 2",
    ),
    (
        "SELECT a FROM t UNION SELECT s FROM t",
        "type error: no common type for BIGINT and VARCHAR",
    ),
    (
        "SELECT a FROM t UNION SELECT a, b FROM t",
        "bind error: UNION inputs have 1 and 2 columns",
    ),
    (
        "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n + 0.5 FROM r WHERE n < 3) SELECT * FROM r",
        "type error: cannot coerce column 'column1' from DOUBLE to BIGINT",
    ),
    (
        "WITH RECURSIVE r (n) AS (SELECT 1 UNION ALL SELECT n, n FROM r WHERE n < 3) SELECT * FROM r",
        "bind error: relation has 2 columns, expected 1",
    ),
    (
        "SELECT * FROM ITERATE((SELECT 1 x), (SELECT 'a' FROM iterate), (SELECT x FROM iterate))",
        "type error: cannot coerce column 'column1' from VARCHAR to BIGINT",
    ),
    (
        "SELECT * FROM ITERATE((SELECT 1 x), (SELECT x, x FROM iterate), (SELECT x FROM iterate))",
        "bind error: relation has 2 columns, expected 1",
    ),
    (
        "SELECT * FROM ITERATE((SELECT 1 x), (SELECT x FROM iterate), (SELECT x FROM iterate), -1)",
        "bind error: ITERATE max iterations must be a non-negative integer, got -1",
    ),
    (
        "SELECT * FROM ITERATE((SELECT 1 x), (SELECT x FROM iterate), (SELECT x FROM iterate), a)",
        "bind error: ITERATE max iterations must be a constant expression",
    ),
    (
        "SELECT * FROM KMEANS((SELECT s FROM t), (SELECT a FROM t), 3)",
        "type error: KMEANS data: column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT s FROM t), 3)",
        "type error: KMEANS centers: column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a, b FROM t), (SELECT a FROM t), 3)",
        "bind error: KMEANS: data has 2 dimensions but centers have 1",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), 2.5)",
        "bind error: KMEANS max iterations must be a non-negative integer, got 2.5",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), LAMBDA(p) p.a, 3)",
        "bind error: distance lambda must have two parameters, got 1",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), LAMBDA(p, q) p.a > q.a, 3)",
        "type error: distance lambda must return a numeric value, got BOOLEAN",
    ),
    (
        "SELECT * FROM KMEANS((SELECT a FROM t), (SELECT a FROM t), LAMBDA(p, q) p.nope - q.a, 3)",
        "bind error: unknown column 'p.nope'",
    ),
    (
        "SELECT * FROM KMEANS_ASSIGN((SELECT s FROM t), (SELECT a FROM t))",
        "type error: KMEANS_ASSIGN data: column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM KMEANS_ASSIGN((SELECT a FROM t), (SELECT s FROM t))",
        "type error: KMEANS_ASSIGN centers: column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM KMEANS_ASSIGN((SELECT a, b FROM t), (SELECT a FROM t))",
        "bind error: KMEANS_ASSIGN: data has 2 dimensions but centers have 1",
    ),
    (
        "SELECT * FROM KMEANS_ASSIGN((SELECT a FROM t), (SELECT a FROM t), LAMBDA(p, q, r) p.a)",
        "bind error: distance lambda must have two parameters, got 3",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT a FROM t))",
        "bind error: NAIVE_BAYES_TRAIN needs at least one feature column and a label column",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT s, a FROM t), a)",
        "type error: NAIVE_BAYES_TRAIN: feature column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT a, b FROM t), b)",
        "type error: NAIVE_BAYES_TRAIN: label column 'b' must be BIGINT, VARCHAR or BOOLEAN, got DOUBLE",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT a, b FROM t), nope)",
        "bind error: unknown column 'nope'",
    ),
    (
        "SELECT * FROM CLASS_STATS((SELECT a FROM t))",
        "bind error: CLASS_STATS needs at least one feature column and a label column",
    ),
    (
        "SELECT * FROM CLASS_STATS((SELECT s, a FROM t), a)",
        "type error: CLASS_STATS: feature column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM CLASS_STATS((SELECT a, b FROM t))",
        "type error: CLASS_STATS: label column 'b' must be BIGINT, VARCHAR or BOOLEAN, got DOUBLE",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT a FROM t), (SELECT a FROM t))",
        "bind error: NAIVE_BAYES_PREDICT model must have 5 columns (class, attribute, prior, mean, stddev), got 1",
    ),
    (
        "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT a, a, a, a, a FROM t), (SELECT s FROM t))",
        "type error: NAIVE_BAYES_PREDICT data: column 's' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src FROM e), 0.85, 0.0)",
        "bind error: PAGERANK edges input needs (src, dest) columns",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest, 'w' FROM e), 0.85, 0.0)",
        "type error: PAGERANK edge weight column 'column3' must be numeric, got VARCHAR",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 1.5, 0.0)",
        "bind error: PAGERANK damping must be in [0, 1], got 1.5",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 0.85, -1.0)",
        "bind error: PAGERANK epsilon must be non-negative, got -1",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 'x', 0.0)",
        "bind error: PAGERANK damping must be numeric, got x",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 0.85, 0.0, -3)",
        "bind error: PAGERANK max iterations must be a non-negative integer, got -3",
    ),
    (
        "SELECT * FROM PAGERANK((SELECT src, dest FROM e), 0.85, 0.0, src)",
        "bind error: PAGERANK max iterations must be a constant expression",
    ),
    (
        "SELECT a FROM t LIMIT -1",
        "bind error: LIMIT must be a non-negative integer, got -1",
    ),
    (
        "SELECT a FROM t LIMIT 1.5",
        "bind error: LIMIT must be a non-negative integer, got 1.5",
    ),
    (
        "SELECT a FROM t LIMIT a",
        "bind error: LIMIT must be a constant expression",
    ),
    (
        "SELECT a FROM t OFFSET -2",
        "bind error: OFFSET must be a non-negative integer, got -2",
    ),
    (
        "SELECT a FROM t LIMIT 1 OFFSET b",
        "bind error: OFFSET must be a constant expression",
    ),
];

#[test]
fn binder_errors_are_verbatim() {
    let db = database();
    for (sql, want) in ERRORS {
        let stmt = hylite::sql::parse_statement(sql).unwrap();
        let got = Binder::new(db.catalog()).bind_statement(&stmt).unwrap_err();
        assert_eq!(got.to_string(), *want, "{sql}");
    }
}
