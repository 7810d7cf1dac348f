//! What more than one root test needs: the `people` fixture, the read
//! corpus of `sql_end_to_end.rs` with its tables, the statement corpus
//! `plan_algebra.rs` walks and keeps an EXPLAIN golden of, and what the
//! rewrite rules' differential tests share: the rule sets, generated
//! tables, and results compared by bits.
#![allow(dead_code)]

use std::fmt::Write;

use hylite::common::{Chunk, DataType, Value};
use hylite::{Database, Rules, Session};
use hylite_bench::queries;
use rand::rngs::StdRng;
use rand::Rng;

pub fn db_with_people() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE people (id BIGINT, name VARCHAR, age BIGINT, city VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO people VALUES \
         (1, 'ada', 36, 'london'), (2, 'grace', 85, 'arlington'), \
         (3, 'alan', 41, 'london'), (4, 'edsger', 72, NULL), \
         (5, 'barbara', 73, 'boston')",
    )
    .unwrap();
    db
}

/// Every read `sql_end_to_end.rs` sends, and a few shapes the optimizer
/// walks that none of them has (a residual join condition over a column
/// no output needs, `SELECT *` under LIMIT, a filter above a LIMIT,
/// ITERATE, an analytics operator over a sub-select, a constant
/// sub-expression in an aggregate argument and in a sort key).
pub const READS: &[&str] = &[
    "SELECT name FROM people WHERE age > 40 ORDER BY age DESC LIMIT 2 OFFSET 1",
    "SELECT count(*) FROM people WHERE city = city",
    "SELECT name FROM people WHERE city IS NULL",
    "SELECT count(*), count(city) FROM people",
    "SELECT coalesce(city, 'unknown') FROM people WHERE id = 4",
    "SELECT count(*) FROM people WHERE name LIKE 'a%'",
    "SELECT count(*) FROM people WHERE age BETWEEN 40 AND 80",
    "SELECT count(*) FROM people WHERE id IN (1, 3, 9)",
    "SELECT sum(CASE WHEN age >= 65 THEN 1 ELSE 0 END) AS seniors FROM people",
    "SELECT DISTINCT city FROM people WHERE city IS NOT NULL ORDER BY city",
    "SELECT 1 UNION SELECT 1 UNION SELECT 2",
    "SELECT 1 UNION ALL SELECT 1 UNION ALL SELECT 2",
    "SELECT upper(name), length(name), sqrt(CAST(age AS DOUBLE)), age % 10 FROM people WHERE id = 1",
    "SELECT age / 10 AS decade, count(*) AS n FROM people GROUP BY age / 10 ORDER BY count(*) DESC, decade",
    "SELECT a.name, b.name FROM people a JOIN people b ON a.city = b.city AND a.id < b.id",
    "SELECT p.name, c.country FROM people p JOIN cities c ON p.city = c.name ORDER BY p.name",
    "WITH seniors AS (SELECT * FROM people WHERE age > 70), \
          s2 AS (SELECT city FROM seniors WHERE city IS NOT NULL) SELECT count(*) FROM s2",
    "SELECT avg(x.age) FROM (SELECT age FROM (SELECT * FROM people) inner2) x",
    "SELECT count(*) FROM people WHERE city IS NULL",
    "SELECT count(*) FROM people",
    "SELECT max(age) FROM people",
    "SELECT stddev(x), var_samp(x) FROM v",
    "WITH RECURSIVE reach (v) AS (SELECT 1 UNION SELECT e.dst FROM reach r JOIN edge e ON e.src = r.v) \
     SELECT count(*) FROM reach",
    "SELECT name, age FROM people WHERE age > 70",
    "SELECT count(*), sum(e), min(b), max(c) FROM wide WHERE d",
    "SELECT a.name FROM people a LEFT JOIN cities c ON a.city = c.name AND a.age > 40 ORDER BY a.id",
    "SELECT * FROM wide LIMIT 3",
    "SELECT s.a FROM (SELECT * FROM wide LIMIT 10) s WHERE s.e > 4",
    "SELECT DISTINCT d, a % 3 FROM wide WHERE a < 100",
    "SELECT a FROM wide WHERE a < 3 UNION SELECT e FROM wide WHERE e < 3",
    "SELECT * FROM ITERATE((SELECT a, b FROM wide WHERE a < 4), \
        (SELECT a + 1, b * 2.0 FROM iterate), (SELECT a FROM iterate WHERE a >= 10))",
    "SELECT * FROM KMEANS((SELECT b, CAST(e AS DOUBLE) FROM wide WHERE a < 500), \
        (SELECT b, CAST(e AS DOUBLE) FROM wide WHERE a < 2), 3)",
    "SELECT a % (3 + 4), sum(b * (1 + 1)), count(*) FROM wide GROUP BY a % (3 + 4)",
    "SELECT a, c FROM wide WHERE a < 50 ORDER BY e + (2 - 2) DESC, a",
];

/// `IN`, `BETWEEN` and `LIKE` (and their negations) in the grouped clauses
/// — SELECT list, HAVING, ORDER BY (a hidden sort column) — over group keys
/// and aggregates. Kept out of [`corpus`], whose EXPLAIN golden predates
/// them.
pub const GROUPED_READS: &[&str] = &[
    "SELECT city, count(*) FROM people GROUP BY city HAVING count(*) BETWEEN 2 AND 3 ORDER BY city",
    "SELECT city, avg(age) FROM people GROUP BY city HAVING avg(age) IN (38.5, 85.0) ORDER BY city",
    "SELECT city, city IN ('london', 'boston'), count(*) FROM people GROUP BY city ORDER BY city",
    "SELECT city, count(*) FROM people GROUP BY city HAVING city LIKE 'b%'",
    "SELECT id, max(age) FROM people GROUP BY id HAVING id BETWEEN 2 AND 3 ORDER BY id",
    "SELECT city, count(*) FROM people GROUP BY city HAVING city NOT IN ('london') ORDER BY city",
    "SELECT id, max(age) FROM people GROUP BY id HAVING max(age) NOT BETWEEN 40 AND 80 ORDER BY id",
    "SELECT city, count(*) FROM people GROUP BY city HAVING city NOT LIKE 'b%' ORDER BY city",
    "SELECT city FROM people WHERE city IS NOT NULL GROUP BY city \
     ORDER BY count(*) BETWEEN 2 AND 3 DESC, city",
];

/// [`db_with_people`] plus every other table [`READS`] names.
pub fn reads_db() -> Database {
    let db = db_with_people();
    for ddl in [
        "CREATE TABLE cities (name VARCHAR, country VARCHAR)",
        "INSERT INTO cities VALUES ('london', 'uk'), ('boston', 'us')",
        "CREATE TABLE v (x DOUBLE)",
        "INSERT INTO v VALUES (2),(4),(4),(4),(5),(5),(7),(9)",
        "CREATE TABLE edge (src BIGINT, dst BIGINT)",
        "INSERT INTO edge VALUES (1,2),(2,3),(3,4),(4,2)",
        "CREATE TABLE wide (a BIGINT, b DOUBLE, c VARCHAR, d BOOLEAN, e BIGINT)",
    ] {
        db.execute(ddl).unwrap();
    }
    let rows: Vec<String> = (0..5000)
        .map(|i| format!("({i}, {}.5, 'r{i}', {}, {})", i, i % 2 == 0, i * 2))
        .collect();
    db.execute(&format!("INSERT INTO wide VALUES {}", rows.join(",")))
        .unwrap();
    db
}

/// One statement per table function (a lambda among them), and ITERATE
/// inside a recursive CTE. Each input sub-select reads a table of its own,
/// so a plan shows which argument went where.
pub const TABLE_FUNCTIONS: &[&str] = &[
    "SELECT * FROM KMEANS((SELECT x, y FROM pts), (SELECT x, y FROM ctr), \
        λ(a, b) (a.x - b.x)^2 + (1.0 + 1.0) * (a.y - b.y)^2, 4)",
    "SELECT cluster_id, count(*) FROM KMEANS_ASSIGN((SELECT x, y FROM pts), (SELECT x, y FROM ctr), \
        LAMBDA(a, b) abs(a.x - b.x) + abs(a.y - b.y)) GROUP BY cluster_id",
    "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0001) WHERE rank > 0.1",
    "SELECT vertex FROM PAGERANK((SELECT src, dest, 0.5 FROM edges), 0.85, 0.0, 5) ORDER BY rank DESC",
    "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT c0, c1, c2, label FROM nbdata), label)",
    "SELECT label, count(*) FROM NAIVE_BAYES_PREDICT(\
        (SELECT * FROM NAIVE_BAYES_TRAIN((SELECT c0, c1, c2, label FROM nbdata), label)), \
        (SELECT x, y, x + y FROM pts)) GROUP BY label",
    "SELECT * FROM CLASS_STATS((SELECT c0, c1, label FROM nbdata), label)",
    "SELECT * FROM ITERATE((SELECT 7 \"x\"), (SELECT x + 7 FROM iterate), \
        (SELECT x FROM iterate WHERE x >= 100))",
    "WITH RECURSIVE r (n, m) AS (SELECT 1, 0 UNION ALL \
        SELECT r.n + 1, it.x FROM r, ITERATE((SELECT 1 \"x\"), (SELECT x * 2 FROM iterate), \
            (SELECT x FROM iterate WHERE x > 64)) it WHERE r.n < 3) \
     SELECT * FROM r",
];

/// A database holding every table the corpus names: [`reads_db`], the
/// `hylite_bench::queries` tables at d = 3, and `pts` / `ctr`.
pub fn corpus_db() -> Database {
    let db = reads_db();
    for ddl in [
        "CREATE TABLE data (id BIGINT, c0 DOUBLE, c1 DOUBLE, c2 DOUBLE)",
        "CREATE TABLE centers (cid BIGINT, c0 DOUBLE, c1 DOUBLE, c2 DOUBLE)",
        "CREATE TABLE edges (src BIGINT, dest BIGINT)",
        "CREATE TABLE nbdata (c0 DOUBLE, c1 DOUBLE, c2 DOUBLE, label BIGINT)",
        "CREATE TABLE pts (x DOUBLE, y DOUBLE)",
        "CREATE TABLE ctr (x DOUBLE, y DOUBLE)",
        "INSERT INTO centers VALUES (0, 0, 0, 0), (1, 5, 5, 5)",
        "INSERT INTO edges VALUES (1,2),(2,3),(3,1),(3,4),(4,1)",
        "INSERT INTO ctr VALUES (0, 0), (9, 9)",
    ] {
        db.execute(ddl).unwrap();
    }
    let values =
        |row: &dyn Fn(i64) -> String| -> String { (0..40).map(row).collect::<Vec<_>>().join(",") };
    for (table, rows) in [
        (
            "data",
            values(&|i| format!("({i}, {}, {}, {})", i % 7, i % 5, i % 3)),
        ),
        (
            "nbdata",
            values(&|i| format!("({}, {}, {}, {})", i % 7, i % 5, i % 3, i % 2)),
        ),
        ("pts", values(&|i| format!("({}, {})", i % 10, i % 4))),
    ] {
        db.execute(&format!("INSERT INTO {table} VALUES {rows}"))
            .unwrap();
    }
    db
}

/// The corpus: every statement of `hylite_bench::queries`, [`READS`],
/// [`TABLE_FUNCTIONS`].
pub fn corpus() -> Vec<String> {
    let bench = [
        queries::kmeans_iterate(3, 2),
        queries::kmeans_recursive_cte(3, 2),
        queries::pagerank_iterate(4, 0.85, 3),
        queries::pagerank_recursive_cte(4, 0.85, 3),
        queries::naive_bayes_sql(3),
        queries::kmeans_operator(3, 2),
        queries::pagerank_operator(0.85, 3),
        queries::naive_bayes_operator(3),
    ];
    let fixed = READS.iter().chain(TABLE_FUNCTIONS).map(|s| s.to_string());
    bench.into_iter().chain(fixed).collect()
}

/// For every statement of [`corpus`]: the statement, its bound plan as
/// written, and what `EXPLAIN` prints (optimized, with estimated rows).
/// `tests/golden/plan_algebra_explain.txt` is this text at commit 3b24221,
/// before the analytics operators became one plan node, under `rules`.
pub fn explain_corpus(db: &Database, rules: Rules) -> String {
    use hylite::planner::binder::BoundStatement;
    use hylite::planner::Binder;

    let mut out = String::new();
    for sql in corpus() {
        let stmt = hylite::sql::parse_statement(&sql).unwrap();
        let bound = Binder::new(db.catalog()).bind_statement(&stmt);
        let Ok(BoundStatement::Query(bound)) = bound else {
            panic!("not a query: {sql}");
        };
        out.push_str(&format!("-- {sql}\nbound:\n{}explain:\n", bound.explain()));
        writeln!(out, "{}\n", explain(db, rules, "", &sql)).unwrap();
    }
    out
}

/// The rule sets a differential sweep runs against [`Rules::NONE`]: every
/// rule, and every rule but one.
pub fn rule_sets() -> Vec<Rules> {
    let one_off = Rules::EACH.map(|rule| Rules::ALL.without(rule));
    [Rules::ALL].into_iter().chain(one_off).collect()
}

/// A session over `db` that runs only `rules`, after the `;`-separated
/// `SET` statements of `settings`.
pub fn session(db: &Database, rules: Rules, settings: &str) -> Session {
    let mut session = db.session();
    session.set_rules(rules);
    for set in settings.split(';').filter(|s| !s.trim().is_empty()) {
        session.execute(set).unwrap();
    }
    session
}

/// A result as text that is equal exactly when the bits are: doubles as
/// hexadecimal bit patterns, rows in the order returned, an error as its
/// message.
pub fn bits(db: &Database, rules: Rules, settings: &str, sql: &str) -> String {
    let mut out = String::new();
    match session(db, rules, settings).execute(sql) {
        Err(e) => writeln!(out, "error: {e}").unwrap(),
        Ok(r) => {
            for row in r.to_rows() {
                for v in row.values() {
                    match v {
                        Value::Float(f) => write!(out, "{:016x} ", f.to_bits()).unwrap(),
                        other => write!(out, "{other} ").unwrap(),
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// `EXPLAIN [ANALYZE] sql` under `rules`.
pub fn explain(db: &Database, rules: Rules, analyze: &str, sql: &str) -> String {
    let plan = session(db, rules, "")
        .execute(&format!("EXPLAIN {analyze} {sql}"))
        .unwrap();
    let lines: Vec<String> = plan
        .to_rows()
        .iter()
        .map(|r| r.values()[0].to_string())
        .collect();
    lines.join("\n")
}

/// `rows` into `table`, cut into chunks of random lengths.
pub fn load(db: &Database, table: &str, types: &[DataType], rows: &[Vec<Value>], rng: &mut StdRng) {
    let table = db.catalog().get_table(table).unwrap();
    let mut guard = table.write();
    let mut rest = rows;
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(rng.gen_range(1..rest.len() + 1));
        guard
            .insert_chunk(Chunk::from_rows(types, chunk).unwrap())
            .unwrap();
        rest = tail;
    }
    guard.commit();
}
