//! Answers that depend on how hash keys are encoded (`exec::keys`): a
//! join's two sides are keyed in the type `=` compares them in, NaN
//! groups with NaN (as ORDER BY already says) but never joins, and GROUP
//! BY, UNION and a recursive CTE's dedup emit their rows in the
//! first-seen order DISTINCT does.

use hylite::common::Value;
use hylite::{Database, QueryResult};

fn rows(r: &QueryResult) -> Vec<Vec<String>> {
    r.to_rows()
        .iter()
        .map(|row| row.values().iter().map(Value::to_string).collect())
        .collect()
}

fn count(db: &Database, sql: &str) -> i64 {
    let r = db.execute(sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
    r.scalar().unwrap().as_int().unwrap()
}

#[test]
fn hash_join_on_bigint_equals_double_matches_like_the_filter() {
    let db = Database::new();
    db.execute("CREATE TABLE a (i BIGINT)").unwrap();
    db.execute("CREATE TABLE b (f DOUBLE)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    db.execute("INSERT INTO b VALUES (1.0), (2.0), (2.5)")
        .unwrap();
    let filtered = count(&db, "SELECT count(*) FROM a, b WHERE a.i = b.f");
    assert_eq!(filtered, 2);
    for on in ["a.i = b.f", "b.f = a.i", "a.i + 0 = b.f"] {
        let inner = format!("SELECT count(*) FROM a JOIN b ON {on}");
        assert_eq!(count(&db, &inner), filtered, "{inner}");
        // LEFT: 1 and 2 match, 3 is padded.
        let left = format!("SELECT a.i, b.f FROM a LEFT JOIN b ON {on} ORDER BY a.i");
        let got = rows(&db.execute(&left).unwrap());
        let want = [["1", "1.0"], ["2", "2.0"], ["3", "NULL"]];
        assert_eq!(got, want, "{left}");
    }
}

/// Three rows whose key is NaN (`sqrt` of a negative), one that is 2.0.
fn nan_table() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE n (g DOUBLE)").unwrap();
    db.execute("INSERT INTO n VALUES (0.0), (1.0), (2.0), (-5.0)")
        .unwrap();
    db
}

const K: &str = "sqrt(0.0 - g - 1.0)";

#[test]
fn nan_keys_form_one_group() {
    let db = nan_table();
    let grouped = db
        .execute(&format!("SELECT {K} AS k, count(*) FROM n GROUP BY {K}"))
        .unwrap();
    assert_eq!(
        rows(&grouped),
        [["NaN", "3"], ["2.0", "1"]],
        "first-seen order"
    );
    let ordered = db
        .execute(&format!(
            "SELECT {K} AS k, count(*) FROM n GROUP BY {K} ORDER BY k"
        ))
        .unwrap();
    assert_eq!(
        rows(&ordered),
        [["2.0", "1"], ["NaN", "3"]],
        "NaN sorts last"
    );
    let distinct = format!("SELECT count(*) FROM (SELECT DISTINCT {K} AS k FROM n) d");
    assert_eq!(count(&db, &distinct), 2);
    let union = format!("SELECT count(*) FROM (SELECT {K} AS k FROM n UNION SELECT {K} FROM n) u");
    assert_eq!(count(&db, &union), 2);
}

#[test]
fn recursive_cte_union_reaches_its_fixpoint_over_nan() {
    // The step maps every row to NaN: with NaN = NaN for dedup the second
    // round brings nothing new. Were each NaN a new row the loop would run
    // to the iteration guard; the timeout turns that into a prompt error.
    let db = nan_table();
    let mut session = db.session();
    session.execute("SET statement_timeout_ms = 10000").unwrap();
    let sql = "WITH RECURSIVE r (k) AS (\
                 SELECT g FROM n WHERE g = 2.0 \
                 UNION SELECT sqrt(0.0 - k * k - 1.0) FROM r) \
               SELECT count(*) FROM r";
    let r = session.execute(sql).unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2), "2.0 and one NaN");
}

#[test]
fn a_join_never_matches_nan_keys() {
    let db = nan_table();
    let on = "x.k = y.k";
    let side = format!("(SELECT {K} AS k FROM n)");
    let inner = format!("SELECT count(*) FROM {side} x JOIN {side} y ON {on}");
    assert_eq!(count(&db, &inner), 1, "only 2.0 = 2.0");
    // … exactly as the same predicate over the cross product says.
    let filtered = format!("SELECT count(*) FROM {side} x, {side} y WHERE {on}");
    assert_eq!(count(&db, &filtered), 1);
    let left = format!("SELECT count(*) FROM {side} x LEFT JOIN {side} y ON {on}");
    assert_eq!(count(&db, &left), 4, "three NaN rows padded, one matched");
}

#[test]
fn keys_are_compared_in_the_declared_type_not_the_evaluated_one() {
    // An untyped NULL evaluates to an all-NULL BIGINT column whatever type
    // the plan gives it, and a UNION branch may be BIGINT under a DOUBLE
    // result: keys are cast to the declared type first.
    let db = Database::new();
    let union = db.execute("SELECT 1 AS x UNION SELECT 1.0").unwrap();
    assert_eq!(rows(&union), [["1.0"]], "1 and 1.0 are one DOUBLE");
    let nulls = "SELECT x, count(*) FROM \
                 (SELECT NULL AS x UNION ALL SELECT 'a' UNION ALL SELECT NULL) t GROUP BY x";
    assert_eq!(
        rows(&db.execute(nulls).unwrap()),
        [["NULL", "2"], ["a", "1"]]
    );
    let distinct = "SELECT count(*) FROM (SELECT NULL AS x UNION SELECT 'a' UNION SELECT NULL) t";
    assert_eq!(count(&db, distinct), 2);
    let join = "SELECT count(*) FROM (SELECT NULL AS a) x JOIN (SELECT 'q' AS b) y ON x.a = y.b";
    assert_eq!(count(&db, join), 0);
}

/// `m (i BIGINT, d DOUBLE, s VARCHAR)` over six chunks (one per INSERT):
/// no key column arrives sorted, and the first zero is `-0.0`.
fn unsorted_keys() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE m (i BIGINT, d DOUBLE, s VARCHAR)")
        .unwrap();
    // A key is output as its first row had it.
    for values in [
        "(7, 2.5, 'pear'), (3, NULL, 'fig'), (7, -0.0, NULL)",
        "(NULL, 0.0, 'apple'), (-2, 2.5, 'fig'), (11, -1.0, 'pear')",
        "(3, 0.0, 'kiwi'), (NULL, NULL, NULL), (5, -1.0, 'apple')",
        "(-2, -0.0, 'fig'), (11, 9.0, 'kiwi'), (0, 2.5, NULL)",
    ] {
        db.execute(&format!("INSERT INTO m VALUES {values}"))
            .unwrap();
    }
    db.execute("INSERT INTO m SELECT 5, sqrt(-2.0), 'pear'")
        .unwrap();
    db.execute("INSERT INTO m SELECT 3, sqrt(-3.0), 'fig'")
        .unwrap();
    db
}

#[test]
fn group_by_emits_its_keys_in_the_order_distinct_does() {
    let db = unsorted_keys();
    let mut checked = 0;
    for keys in ["i", "d", "s", "s, i"] {
        let width = keys.split(',').count();
        let distinct = format!("SELECT DISTINCT {keys} FROM m");
        let grouped = format!("SELECT {keys}, count(*), min(d), max(i) FROM m GROUP BY {keys}");
        for threads in [1, 2, 8] {
            for reuse in ["on", "off"] {
                let mut session = db.session();
                session
                    .execute(&format!("SET threads = {threads}"))
                    .unwrap();
                session
                    .execute(&format!("SET plan_reuse = {reuse}"))
                    .unwrap();
                let want = rows(&session.execute(&distinct).unwrap());
                let got: Vec<Vec<String>> = rows(&session.execute(&grouped).unwrap())
                    .into_iter()
                    .map(|row| row[..width].to_vec())
                    .collect();
                assert_eq!(
                    got, want,
                    "threads = {threads}, plan_reuse = {reuse}: {grouped}"
                );
                checked += want.len();
            }
        }
    }
    assert!(checked > 100, "too few keys compared: {checked}");
}

/// Rows as text equal exactly when the bits are: doubles as bit patterns.
fn bits(r: &QueryResult) -> Vec<Vec<String>> {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("{:016x}", f.to_bits()),
        other => other.to_string(),
    };
    let rows = r.to_rows();
    rows.iter()
        .map(|row| row.values().iter().map(cell).collect())
        .collect()
}

#[test]
fn union_and_recursive_dedup_emit_rows_in_the_order_distinct_does() {
    let db = unsorted_keys();
    let mut checked = 0;
    for keys in ["i", "d", "s", "s, i"] {
        let distinct = format!("SELECT DISTINCT {keys} FROM m");
        let union = format!("SELECT {keys} FROM m UNION SELECT {keys} FROM m");
        // The first row seeds the recursion, its first step brings every
        // row of `m` and the second nothing new.
        let of_m: Vec<String> = keys.split(", ").map(|k| format!("m.{k}")).collect();
        let of_m = of_m.join(", ");
        let recursive = format!(
            "WITH RECURSIVE r ({keys}) AS (SELECT * FROM (SELECT {keys} FROM m LIMIT 1) f UNION \
             SELECT {of_m} FROM m, (SELECT count(*) AS n FROM r) t) SELECT * FROM r"
        );
        for threads in [1, 2, 8] {
            for reuse in ["on", "off"] {
                let mut session = db.session();
                for set in [
                    format!("threads = {threads}"),
                    format!("plan_reuse = {reuse}"),
                ] {
                    session.execute(&format!("SET {set}")).unwrap();
                }
                let want = bits(&session.execute(&distinct).unwrap());
                for sql in [&union, &recursive] {
                    let got = bits(&session.execute(sql).unwrap());
                    assert_eq!(
                        got, want,
                        "threads = {threads}, plan_reuse = {reuse}: {sql}"
                    );
                }
                checked += want.len();
            }
        }
    }
    assert!(checked > 100, "too few rows compared: {checked}");
}
