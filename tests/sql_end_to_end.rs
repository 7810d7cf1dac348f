//! Broad SQL-surface coverage through the full pipeline.

mod common;

use common::{db_with_people, reads_db, GROUPED_READS, READS};
use hylite::{Database, Value};

#[test]
fn where_order_limit_offset() {
    let db = db_with_people();
    let r = db
        .execute("SELECT name FROM people WHERE age > 40 ORDER BY age DESC LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(r.row_count(), 2);
    assert_eq!(r.value(0, 0).unwrap(), Value::from("barbara"));
    assert_eq!(r.value(1, 0).unwrap(), Value::from("edsger"));
}

/// A statement parsed once runs any number of times through a session.
#[test]
fn parsed_statement_executes_through_a_session() {
    let db = db_with_people();
    let mut session = db.session();
    let count = hylite::sql::parse_statement("SELECT count(*) FROM people").unwrap();
    let run = |session: &mut hylite::Session| {
        let result = session.execute_statement(&count).unwrap();
        result.scalar().unwrap()
    };
    assert_eq!(run(&mut session), Value::Int(5));
    session
        .execute("INSERT INTO people VALUES (6, 'tony', 90, 'oxford')")
        .unwrap();
    assert_eq!(run(&mut session), Value::Int(6));
}

#[test]
fn null_semantics() {
    let db = db_with_people();
    // NULL city filtered out by = comparison (3VL).
    let r = db
        .execute("SELECT count(*) FROM people WHERE city = city")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(4));
    let r = db
        .execute("SELECT name FROM people WHERE city IS NULL")
        .unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::from("edsger"));
    // count(col) skips NULLs; count(*) does not.
    let r = db
        .execute("SELECT count(*), count(city) FROM people")
        .unwrap();
    assert_eq!(r.value(0, 0).unwrap(), Value::Int(5));
    assert_eq!(r.value(0, 1).unwrap(), Value::Int(4));
    // coalesce fallback.
    let r = db
        .execute("SELECT coalesce(city, 'unknown') FROM people WHERE id = 4")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::from("unknown"));
}

#[test]
fn like_between_in_case() {
    let db = db_with_people();
    let r = db
        .execute("SELECT count(*) FROM people WHERE name LIKE 'a%'")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2));
    let r = db
        .execute("SELECT count(*) FROM people WHERE age BETWEEN 40 AND 80")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
    let r = db
        .execute("SELECT count(*) FROM people WHERE id IN (1, 3, 9)")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2));
    let r = db
        .execute("SELECT sum(CASE WHEN age >= 65 THEN 1 ELSE 0 END) AS seniors FROM people")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
}

/// `x IN (a, b)` is `x = a OR x = b`, and `NOT IN` its negation: a NULL
/// item makes a non-match NULL, NaN equals nothing, `-0.0` equals `0.0`,
/// and a BIGINT meets DOUBLE items as a DOUBLE, as `=` has them.
#[test]
fn in_is_the_or_of_its_equalities() {
    let db = Database::new();
    let scalar = |sql: &str| db.execute(sql).unwrap().scalar().unwrap();
    assert_eq!(scalar("SELECT 1 IN (2, NULL)"), Value::Null);
    assert_eq!(scalar("SELECT 1 NOT IN (2, NULL)"), Value::Null);
    assert_eq!(scalar("SELECT sqrt(-1.0) = sqrt(-1.0)"), Value::Bool(false));
    assert_eq!(
        scalar("SELECT sqrt(-1.0) IN (sqrt(-1.0))"),
        Value::Bool(false)
    );
    assert_eq!(scalar("SELECT -0.0 IN (0.0)"), Value::Bool(true));
    assert_eq!(scalar("SELECT NULL IN ('a', 1)"), Value::Null);
    db.execute("CREATE TABLE t (x BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (NULL)").unwrap();
    let r = db
        .execute("SELECT x FROM t WHERE x NOT IN (2, NULL)")
        .unwrap();
    assert_eq!(r.row_count(), 0, "NOT IN with a NULL item keeps no row");
    let r = db
        .execute("SELECT x, x IN (1.0, 2.5), x NOT IN (2.0, NULL) FROM t ORDER BY x")
        .unwrap();
    let rows: Vec<Vec<Value>> = (0..r.row_count())
        .map(|i| (0..3).map(|j| r.value(i, j).unwrap()).collect())
        .collect();
    let (t, f, null) = (Value::Bool(true), Value::Bool(false), Value::Null);
    assert_eq!(
        rows,
        [
            vec![Value::Null, null.clone(), null.clone()],
            vec![Value::Int(1), t, null],
            vec![Value::Int(2), f.clone(), f],
        ]
    );
}

/// DOUBLE `%` by zero fails like DOUBLE `/` and BIGINT `%` do.
#[test]
fn double_modulo_by_zero_fails() {
    let db = Database::new();
    for sql in ["SELECT 5.0 % 0.0", "SELECT 5 % 0", "SELECT 5.0 / 0.0"] {
        let err = db.execute(sql).unwrap_err();
        assert_eq!(err.stage(), "execution", "{sql}");
    }
    let err = db.execute("SELECT 5.0 % 0.0").unwrap_err();
    assert!(err.to_string().contains("modulo by zero"), "{err}");
    let r = db.execute("SELECT 5.5 % 2.0").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Float(1.5));
}

#[test]
fn distinct_union_except_behavior() {
    let db = db_with_people();
    let r = db
        .execute("SELECT DISTINCT city FROM people WHERE city IS NOT NULL ORDER BY city")
        .unwrap();
    assert_eq!(r.row_count(), 3);
    let r = db
        .execute("SELECT 1 UNION SELECT 1 UNION SELECT 2")
        .unwrap();
    assert_eq!(r.row_count(), 2);
    let r = db
        .execute("SELECT 1 UNION ALL SELECT 1 UNION ALL SELECT 2")
        .unwrap();
    assert_eq!(r.row_count(), 3);
}

#[test]
fn scalar_functions_in_projection() {
    let db = db_with_people();
    let r = db
        .execute(
            "SELECT upper(name), length(name), sqrt(CAST(age AS DOUBLE)), age % 10 \
             FROM people WHERE id = 1",
        )
        .unwrap();
    let row = &r.to_rows()[0];
    assert_eq!(row.values()[0], Value::from("ADA"));
    assert_eq!(row.values()[1], Value::Int(3));
    assert_eq!(row.values()[2], Value::Float(6.0));
    assert_eq!(row.values()[3], Value::Int(6));
}

#[test]
fn group_by_expression_and_order_by_aggregate() {
    let db = db_with_people();
    let r = db
        .execute(
            "SELECT age / 10 AS decade, count(*) AS n FROM people \
             GROUP BY age / 10 ORDER BY count(*) DESC, decade",
        )
        .unwrap();
    assert_eq!(r.value(0, 1).unwrap(), Value::Int(2), "70s twice");
}

#[test]
fn in_between_and_like_over_groups() {
    let db = db_with_people();
    let (s, i, f, b) = (Value::from, Value::Int, Value::Float, Value::Bool);
    let expected: [Vec<Vec<Value>>; 9] = [
        vec![vec![s("london"), i(2)]],
        vec![vec![s("arlington"), f(85.0)], vec![s("london"), f(38.5)]],
        vec![
            vec![Value::Null, Value::Null, i(1)],
            vec![s("arlington"), b(false), i(1)],
            vec![s("boston"), b(true), i(1)],
            vec![s("london"), b(true), i(2)],
        ],
        vec![vec![s("boston"), i(1)]],
        vec![vec![i(2), i(85)], vec![i(3), i(41)]],
        vec![vec![s("arlington"), i(1)], vec![s("boston"), i(1)]],
        vec![vec![i(1), i(36)], vec![i(2), i(85)]],
        vec![vec![s("arlington"), i(1)], vec![s("london"), i(2)]],
        vec![vec![s("london")], vec![s("arlington")], vec![s("boston")]],
    ];
    assert_eq!(GROUPED_READS.len(), expected.len());
    for (sql, want) in GROUPED_READS.iter().zip(expected) {
        let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let got: Vec<Vec<Value>> = r.to_rows().iter().map(|r| r.values().to_vec()).collect();
        assert_eq!(got, want, "{sql}");
    }
}

/// The grouped clauses reject what WHERE rejects, with the same messages.
#[test]
fn grouped_clauses_keep_their_errors() {
    let db = db_with_people();
    for (sql, message) in [
        (
            "SELECT city, count(*) FROM people GROUP BY city HAVING age BETWEEN 1 AND 2",
            "column 'age' must appear in the GROUP BY clause or be used in an aggregate",
        ),
        (
            "SELECT city FROM people GROUP BY city ORDER BY age IN (1, 2)",
            "column 'age' must appear in the GROUP BY clause or be used in an aggregate",
        ),
        (
            "SELECT count(*) FROM people WHERE count(*) > 1",
            "aggregates are not allowed in WHERE (use HAVING)",
        ),
        (
            "SELECT city, sum(count(*)) FROM people GROUP BY city",
            "aggregate function count() is not allowed here",
        ),
        (
            "SELECT city, count(*) FROM people GROUP BY city HAVING city LIKE city",
            "LIKE pattern must be a string literal, got #0",
        ),
        (
            "SELECT city, count(*) FROM people GROUP BY city HAVING count(*) IN (1, sum(age))",
            "IN list items must be constant expressions",
        ),
        (
            "SELECT upper(DISTINCT city), count(*) FROM people GROUP BY city",
            "upper() does not accept * or DISTINCT",
        ),
    ] {
        let err = db.execute(sql).unwrap_err();
        assert_eq!(err.stage(), "bind", "{sql}");
        assert!(err.to_string().contains(message), "{sql}: {err}");
    }
}

#[test]
fn self_and_three_way_joins() {
    let db = db_with_people();
    // Pairs of people in the same city.
    let r = db
        .execute(
            "SELECT a.name, b.name FROM people a JOIN people b \
             ON a.city = b.city AND a.id < b.id",
        )
        .unwrap();
    assert_eq!(r.row_count(), 1, "only ada & alan share a city");
    db.execute("CREATE TABLE cities (name VARCHAR, country VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO cities VALUES ('london', 'uk'), ('boston', 'us')")
        .unwrap();
    let r = db
        .execute(
            "SELECT p.name, c.country FROM people p \
             JOIN cities c ON p.city = c.name ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(r.row_count(), 3);
}

#[test]
fn ctes_and_nested_subqueries() {
    let db = db_with_people();
    let r = db
        .execute(
            "WITH seniors AS (SELECT * FROM people WHERE age > 70), \
                  s2 AS (SELECT city FROM seniors WHERE city IS NOT NULL) \
             SELECT count(*) FROM s2",
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(2));
    let r = db
        .execute("SELECT avg(x.age) FROM (SELECT age FROM (SELECT * FROM people) inner2) x")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Float(61.4));
}

#[test]
fn update_delete_roundtrip() {
    let db = db_with_people();
    db.execute("UPDATE people SET city = 'cambridge' WHERE city IS NULL")
        .unwrap();
    let r = db
        .execute("SELECT count(*) FROM people WHERE city IS NULL")
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(0));
    let affected = db.execute("DELETE FROM people WHERE age < 50").unwrap();
    assert_eq!(affected.rows_affected, 2);
    let r = db.execute("SELECT count(*) FROM people").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
    // Insert after delete reuses the table cleanly.
    db.execute("INSERT INTO people VALUES (6, 'donald', 86, 'stanford')")
        .unwrap();
    let r = db.execute("SELECT max(age) FROM people").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(86));
}

#[test]
fn error_messages_carry_stage() {
    let db = db_with_people();
    let err = db.execute("SELECT nope FROM people").unwrap_err();
    assert_eq!(err.stage(), "bind");
    let err = db.execute("SELECT * FROM people WHERE").unwrap_err();
    assert_eq!(err.stage(), "parse");
    let err = db.execute("SELECT age + name FROM people").unwrap_err();
    assert_eq!(err.stage(), "type");
    let err = db.execute("SELECT 1 / 0").unwrap_err();
    assert_eq!(err.stage(), "execution");
}

#[test]
fn aggregates_stddev_variance() {
    let db = Database::new();
    db.execute("CREATE TABLE v (x DOUBLE)").unwrap();
    db.execute("INSERT INTO v VALUES (2),(4),(4),(4),(5),(5),(7),(9)")
        .unwrap();
    let r = db.execute("SELECT stddev(x), var_samp(x) FROM v").unwrap();
    let sd = r.value(0, 0).unwrap().as_float().unwrap();
    let var = r.value(0, 1).unwrap().as_float().unwrap();
    assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    assert!((var - 32.0 / 7.0).abs() < 1e-12);
}

#[test]
fn recursive_cte_transitive_closure() {
    let db = Database::new();
    db.execute("CREATE TABLE edge (src BIGINT, dst BIGINT)")
        .unwrap();
    db.execute("INSERT INTO edge VALUES (1,2),(2,3),(3,4),(4,2)")
        .unwrap();
    // Reachability from 1 with UNION (dedup fixpoint despite the cycle).
    let r = db
        .execute(
            "WITH RECURSIVE reach (v) AS (\
               SELECT 1 \
               UNION \
               SELECT e.dst FROM reach r JOIN edge e ON e.src = r.v) \
             SELECT count(*) FROM reach",
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(4));
}

#[test]
fn insert_select_between_tables() {
    let db = db_with_people();
    db.execute("CREATE TABLE elders (name VARCHAR, age BIGINT)")
        .unwrap();
    db.execute("INSERT INTO elders SELECT name, age FROM people WHERE age > 70")
        .unwrap();
    let r = db.execute("SELECT count(*) FROM elders").unwrap();
    assert_eq!(r.scalar().unwrap(), Value::Int(3));
}

#[test]
fn wide_row_and_many_chunks() {
    let db = Database::new();
    db.execute("CREATE TABLE wide (a BIGINT, b DOUBLE, c VARCHAR, d BOOLEAN, e BIGINT)")
        .unwrap();
    let rows: Vec<String> = (0..5000)
        .map(|i| format!("({i}, {}.5, 'r{i}', {}, {})", i, i % 2 == 0, i * 2))
        .collect();
    db.execute(&format!("INSERT INTO wide VALUES {}", rows.join(",")))
        .unwrap();
    let r = db
        .execute("SELECT count(*), sum(e), min(b), max(c) FROM wide WHERE d")
        .unwrap();
    let row = &r.to_rows()[0];
    assert_eq!(row.values()[0], Value::Int(2500));
    assert_eq!(row.values()[3], Value::from("r998"), "string max");
}

/// The optimizer — pushdown, projection merging, required columns — never
/// changes an answer: every read gives the same cells from its bound plan
/// as written and from the optimized one.
#[test]
fn optimizer_preserves_every_answer() {
    use hylite::exec::{ExecContext, Executor};
    use hylite::planner::binder::BoundStatement;
    use hylite::planner::{Binder, Optimizer};
    use std::sync::Arc;

    let db = reads_db();

    let cells = |plan: &hylite::planner::LogicalPlan| -> Vec<String> {
        let mut executor = Executor::new(ExecContext::new(Arc::clone(db.catalog())));
        let chunks = executor.execute(plan).unwrap();
        let mut out = Vec::new();
        for chunk in &chunks {
            for row in 0..chunk.len() {
                for col in 0..chunk.num_columns() {
                    out.push(match chunk.column(col).value(row) {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    });
                }
            }
        }
        out
    };
    let mut narrowed = 0;
    for sql in READS.iter().chain(GROUPED_READS) {
        let stmt = hylite::sql::parse_statement(sql).unwrap();
        let BoundStatement::Query(bound) = Binder::new(db.catalog()).bind_statement(&stmt).unwrap()
        else {
            panic!("not a query: {sql}");
        };
        let optimized = Optimizer::new().optimize(bound.clone()).unwrap();
        assert_eq!(optimized.schema().len(), bound.schema().len(), "{sql}");
        assert_eq!(cells(&optimized), cells(&bound), "{sql}\n{optimized}");
        narrowed += usize::from(optimized.explain().contains("cols=["));
    }
    assert!(narrowed > 20, "only {narrowed} plans had a scan narrowed");
}
