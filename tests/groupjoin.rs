//! The groupjoin against the join it replaces: every rule set of
//! `common::rule_sets` must return the bits of `Rules::NONE` for every
//! statement the rule rewrites, over generated relations with NULL and
//! duplicate keys, NULL, NaN and ±0.0 values, ties at the best value and
//! empty inputs, at every thread count and with plan reuse on and off.
//! EXPLAIN shows where the rule fires and where it declines;
//! `golden/groupjoin_explain.txt` pins what it makes of the two SQL k-Means
//! statements.

mod common;

use std::fmt::Write;

use common::{bits, explain, load, rule_sets};
use hylite::common::{DataType, Value};
use hylite::{Database, Rules};
use hylite_bench::{queries, workloads};
use hylite_datagen::table1::KMeansExperiment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 40;

/// `r(id, k2, cid, i, dist)` and the k-Means pair `pts(id, x)`,
/// `ctr(cid, i, y)`, each loaded in several chunks.
fn database(seed: u64) -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE r (id BIGINT, k2 VARCHAR, cid BIGINT, i BIGINT, dist DOUBLE)",
        "CREATE TABLE pts (id BIGINT, x DOUBLE)",
        "CREATE TABLE ctr (cid BIGINT, i BIGINT, y DOUBLE)",
    ] {
        db.execute(ddl).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Few distinct values, so that keys repeat and values tie.
    let double = |rng: &mut StdRng| match rng.gen_range(0..9usize) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(0.0),
        n => Value::Float(n as f64 - 5.5),
    };
    let int = |rng: &mut StdRng, domain: i64| match rng.gen_range(0..domain + 1) {
        0 => Value::Null,
        n => Value::Int(n),
    };
    // An empty relation for one seed in eight.
    let rows = |rng: &mut StdRng, max: usize| match seed % 8 {
        0 => 0,
        _ => rng.gen_range(1..max),
    };
    let n = rows(&mut rng, 80);
    let r: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            let k2 = match rng.gen_range(0..4usize) {
                0 => Value::Null,
                n => Value::Str(format!("k{n}")),
            };
            let dist = double(&mut rng);
            vec![
                int(&mut rng, 9),
                k2,
                int(&mut rng, 4),
                int(&mut rng, 5),
                dist,
            ]
        })
        .collect();
    let pts: Vec<Vec<Value>> = (0..rows(&mut rng, 40))
        .map(|_| vec![int(&mut rng, 12), double(&mut rng)])
        .collect();
    let ctr: Vec<Vec<Value>> = (0..rng.gen_range(1..5usize))
        .map(|c| vec![Value::Int(c as i64), int(&mut rng, 3), double(&mut rng)])
        .collect();
    use DataType::{Float64, Int64, Varchar};
    load(
        &db,
        "r",
        &[Int64, Varchar, Int64, Int64, Float64],
        &r,
        &mut rng,
    );
    load(&db, "pts", &[Int64, Float64], &pts, &mut rng);
    load(&db, "ctr", &[Int64, Int64, Float64], &ctr, &mut rng);
    db
}

/// `γ_{keys; aggs}(X ⋈_{keys, dist = best} γ_{keys; best(dist)}(X))` over
/// `r`, X and Y each a projection of the same scan.
fn over_r(keys: &[&str], aggs: &str, best: &str) -> String {
    let on: Vec<String> = keys.iter().map(|k| format!("x.{k} = n.{k}")).collect();
    let grouped: Vec<String> = keys.iter().map(|k| format!("x.{k}")).collect();
    let inner: Vec<String> = keys.iter().map(|k| format!("q.{k} AS {k}")).collect();
    format!(
        "SELECT {grouped}, {aggs} \
         FROM (SELECT p.id, p.k2, p.cid, p.i, p.dist FROM r p) x \
         JOIN (SELECT {inner}, {best}(q.dist) AS best \
               FROM (SELECT p.id, p.k2, p.dist FROM r p) q GROUP BY {inner_keys}) n \
           ON {on} AND x.dist = n.best \
         GROUP BY {grouped}",
        grouped = grouped.join(", "),
        inner = inner.join(", "),
        inner_keys = keys
            .iter()
            .map(|k| format!("q.{k}"))
            .collect::<Vec<_>>()
            .join(", "),
        on = on.join(" AND "),
    )
}

/// One SQL k-Means assignment step over `pts × ctr`, as
/// `hylite_bench::queries` writes it.
fn kmeans_step(best: &str) -> String {
    let dist = "(p.x - w.y) * (p.x - w.y)";
    format!(
        "SELECT x.id AS id, min(x.cid) AS cid, min(x.i) AS i, count(*) AS n \
         FROM (SELECT p.id, w.cid, w.i, {dist} AS dist FROM pts p, ctr w) x \
         JOIN (SELECT y.id AS id, {best}(y.dist) AS best \
               FROM (SELECT p.id AS id, {dist} AS dist FROM pts p, ctr w) y \
               GROUP BY y.id) n \
           ON x.id = n.id AND x.dist = n.best \
         GROUP BY x.id"
    )
}

/// The statements the rule rewrites.
fn rewritten() -> Vec<String> {
    vec![
        over_r(&["id"], "min(x.cid) AS cid, min(x.i) AS i", "min"),
        over_r(&["k2", "id"], "min(x.cid), max(x.i)", "min"),
        over_r(&["id"], "min(x.cid), min(x.i), max(x.k2)", "max"),
        over_r(
            &["id"],
            "sum(x.i), count(*), count(x.cid), min(x.dist), max(x.dist)",
            "min",
        ),
        over_r(&["k2"], "sum(x.cid), count(x.i)", "max"),
        kmeans_step("min"),
        kmeans_step("max"),
    ]
}

/// Every rule but the groupjoin.
const NO_GROUPJOIN: Rules = Rules::ALL.without(Rules::GROUPJOIN);

#[test]
fn groupjoin_on_and_off_return_the_same_bits() {
    let mut fired = 0;
    for seed in 0..SEEDS {
        let db = database(seed);
        for sql in rewritten() {
            let on = explain(&db, Rules::ALL, "", &sql);
            assert!(
                on.contains(" at_m") && !on.contains("Join kind=Inner"),
                "seed {seed}: the rule did not fire:\n{on}\n{sql}"
            );
            let want = bits(&db, Rules::NONE, "", &sql);
            fired += usize::from(!want.is_empty());
            for threads in [1, 2, 8] {
                for reuse in ["on", "off"] {
                    for rules in rule_sets() {
                        let settings = format!("SET threads = {threads}; SET plan_reuse = {reuse}");
                        let got = bits(&db, rules, &settings, &sql);
                        assert_eq!(got, want, "seed {seed}, {rules:?}, {settings}:\n{sql}");
                    }
                }
            }
        }
    }
    assert!(fired > 100, "too few non-empty answers: {fired}");
}

#[test]
fn the_rule_declines_what_it_cannot_rewrite_bit_for_bit() {
    let left = over_r(&["id"], "min(x.cid)", "min").replace(" JOIN ", " LEFT JOIN ");
    let residual = over_r(&["id"], "min(x.cid)", "min").replace(
        "AND x.dist = n.best",
        "AND x.dist = n.best AND x.i + n.id > 2",
    );
    let other_input =
        over_r(&["id"], "min(x.cid)", "min").replace("FROM r p) q", "FROM r p WHERE p.i > 1) q");
    let negative_zero =
        over_r(&["id"], "min(x.cid)", "min").replace("p.dist FROM", "p.dist + -0.0 AS dist FROM");
    // A global MIN: over an empty or all-NULL `r` the join matches nothing
    // and the outer aggregate still returns its one row.
    let keyless = "SELECT count(*), min(x.cid) FROM (SELECT p.cid, p.dist FROM r p) x \
                   JOIN (SELECT min(q.dist) AS best FROM (SELECT p.dist FROM r p) q) n \
                   ON x.dist = n.best";
    let declined = [
        ("a float AVG", over_r(&["id"], "avg(x.i)", "min")),
        ("a float SUM", over_r(&["id"], "sum(x.dist)", "min")),
        ("a LEFT join", left),
        ("a residual conjunct", residual),
        ("Y not a projection of X", other_input),
        ("a -0.0 literal", negative_zero),
        ("a DOUBLE key", over_r(&["dist"], "min(x.cid)", "min")),
        ("no key", keyless.to_string()),
    ];
    // Seed 0's `r` is empty.
    for db in [database(3), database(0)] {
        for (why, sql) in &declined {
            let on = explain(&db, Rules::ALL, "", sql);
            assert!(!on.contains(" at_m"), "{why}: the rule fired:\n{on}");
            assert_eq!(
                on,
                explain(&db, NO_GROUPJOIN, "", sql),
                "{why}: the plan changed"
            );
            let want = bits(&db, Rules::NONE, "", sql);
            assert_eq!(bits(&db, Rules::ALL, "", sql), want, "{why}");
        }
    }
}

/// EXPLAIN of the corpus's two SQL k-Means statements with the rule on:
/// one arg-min aggregate over the distance projection, no join on
/// `(id, dist)`.
fn kmeans_explain() -> String {
    let db = common::corpus_db();
    let mut out = String::new();
    for sql in [
        queries::kmeans_iterate(3, 2),
        queries::kmeans_recursive_cte(3, 2),
    ] {
        writeln!(out, "-- {sql}\n{}\n", explain(&db, Rules::ALL, "", &sql)).unwrap();
    }
    out
}

/// `cargo test --test groupjoin -- --ignored --nocapture print_kmeans` prints
/// `golden/groupjoin_explain.txt`.
#[test]
#[ignore]
fn print_kmeans_explain_for_the_golden() {
    print!("{}", kmeans_explain());
}

#[test]
fn kmeans_explain_matches_the_golden() {
    let golden = include_str!("golden/groupjoin_explain.txt");
    let now = kmeans_explain();
    for (line, (was, is)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(was, is, "golden line {}", line + 1);
    }
    assert_eq!(golden.len(), now.len());
}

/// The SQL k-Means of `hylite_bench` agrees with itself with the rule off,
/// to the bit, at the benchmark's shape in miniature.
#[test]
fn bench_kmeans_statements_agree_with_the_rule_off() {
    let db = common::corpus_db();
    for sql in [
        queries::kmeans_iterate(3, 2),
        queries::kmeans_recursive_cte(3, 2),
    ] {
        let want = bits(&db, NO_GROUPJOIN, "", &sql);
        assert!(!want.is_empty());
        for threads in [1, 2] {
            let settings = format!("SET threads = {threads}");
            assert_eq!(bits(&db, Rules::ALL, &settings, &sql), want, "{sql}");
        }
    }
}

/// The SQL k-Means at the smallest memory budget it fits with the rule off
/// (the plan with the join) fits with the rule on, and answers the same.
#[test]
fn kmeans_fits_with_the_rule_on_where_it_fits_off() {
    let sizes = KMeansExperiment {
        n: 8000,
        d: 3,
        k: 3,
        iterations: 3,
    };
    let kmeans = workloads::setup_kmeans(sizes, 11).unwrap();
    for sql in [
        queries::kmeans_iterate(3, 3),
        queries::kmeans_recursive_cte(3, 3),
    ] {
        let at = |rules: Rules, mb: u64| {
            let settings = format!("SET memory_budget_mb = {mb}");
            bits(&kmeans.db, rules, &settings, &sql)
        };
        let fits = |answer: &String| !answer.starts_with("error:");
        let smallest = (1..=16).find(|&mb| fits(&at(NO_GROUPJOIN, mb)));
        let mb = smallest.expect("the k-Means fits 16 MiB with the rule off");
        assert!(mb > 1, "the sweep straddles the fit: {sql}");
        let want = bits(&kmeans.db, NO_GROUPJOIN, "", &sql);
        assert_eq!(at(NO_GROUPJOIN, mb), want);
        assert_eq!(at(Rules::ALL, mb), want, "{mb} MiB: {sql}");
    }
}
