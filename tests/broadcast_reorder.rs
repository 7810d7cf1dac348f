//! The broadcast cross product and the n:1-join-first rule against the
//! plans they replace: every rule set of `common::rule_sets` must return
//! the bits of `Rules::NONE` in the same row order, over generated
//! relations with NULL, NaN and ±0.0 cells (the small side's too),
//! duplicate and NULL keys, an empty large side and small sides of 0, 1,
//! 5, 64, 65 and 1,025 rows, in the ITERATE and recursive-CTE forms of k-Means
//! and PageRank (with dangling vertices), at every thread count and with
//! plan reuse on and off. EXPLAIN shows where each fires and where it
//! declines.

mod common;

use common::{bits, explain, load, rule_sets};
use hylite::common::{DataType, Value};
use hylite::{Database, Rules};
use hylite_bench::queries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: u64 = 15;

/// Rows of the small side `c` (and, at least one, of `centers`) by seed.
const SMALL: [usize; 5] = [0, 1, 5, 64, 65];

/// The most rows of `c` a broadcast takes: the nested loop's block of
/// right rows, within which both cut their chunks alike.
const MOST: usize = 1024;

/// Vertices of the generated graph; 1 to 6 form a cycle, the rest are
/// reached but some never point anywhere (dangling).
const VERTICES: i64 = 30;

/// `p(id, s, x, i)` × `c(cid, y, w)` with NULL, NaN and ±0.0 cells, and
/// `wide`, a `c` of one row more than [`MOST`]; the
/// k-Means pair `data(id, c0, c1)`, `centers(cid, c0, c1)` with finite
/// cells (a loop whose step returns nothing would never stop); and a graph
/// `edges(src, dest)`. Every table is loaded in chunks of random lengths.
fn database(seed: u64) -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE p (id BIGINT, s VARCHAR, x DOUBLE, i BIGINT)",
        "CREATE TABLE c (cid BIGINT, y DOUBLE, w BIGINT)",
        "CREATE TABLE wide (cid BIGINT, y DOUBLE, w BIGINT)",
        "CREATE TABLE data (id BIGINT, c0 DOUBLE, c1 DOUBLE)",
        "CREATE TABLE centers (cid BIGINT, c0 DOUBLE, c1 DOUBLE)",
        "CREATE TABLE edges (src BIGINT, dest BIGINT)",
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
        n => Value::Float(n as f64 * 0.7 - 5.5),
    };
    let finite = |rng: &mut StdRng| match rng.gen_range(0..6usize) {
        0 => Value::Float(-0.0),
        1 => Value::Float(0.0),
        n => Value::Float(n as f64 * 1.3 - 4.1),
    };
    let int = |rng: &mut StdRng, domain: i64| match rng.gen_range(0..domain + 1) {
        0 => Value::Null,
        n => Value::Int(n),
    };
    // An empty `p` for one seed in eight; past one 512-row block for one
    // in four.
    let n = match seed % 8 {
        0 => 0,
        1 | 5 => rng.gen_range(520..900),
        _ => rng.gen_range(1..60),
    };
    let p: Vec<Vec<Value>> = (0..n)
        .map(|_| {
            let s = match rng.gen_range(0..4usize) {
                0 => Value::Null,
                n => Value::Str(format!("s{n}")),
            };
            let x = double(&mut rng);
            vec![int(&mut rng, 12), s, x, int(&mut rng, 5)]
        })
        .collect();
    let small = SMALL[seed as usize % SMALL.len()];
    let mut small_side = |rows: usize| -> Vec<Vec<Value>> {
        (0..rows)
            .map(|cid| {
                // The exponent of `x ^ w` is 2 in some rows.
                let w = int(&mut rng, 3);
                vec![Value::Int(cid as i64), double(&mut rng), w]
            })
            .collect()
    };
    let c = small_side(small);
    let wide = small_side(MOST + 1);
    let data: Vec<Vec<Value>> = (0..rng.gen_range(1..80i64))
        .map(|id| vec![Value::Int(id % 50), finite(&mut rng), finite(&mut rng)])
        .collect();
    let centers: Vec<Vec<Value>> = (0..small.max(1))
        .map(|cid| vec![Value::Int(cid as i64), finite(&mut rng), finite(&mut rng)])
        .collect();
    let mut edges: Vec<Vec<Value>> = (1..=6)
        .map(|v| vec![Value::Int(v), Value::Int(v % 6 + 1)])
        .collect();
    for _ in 0..rng.gen_range(10..60) {
        let src = rng.gen_range(1..VERTICES / 2);
        let dest = rng.gen_range(1..=VERTICES);
        edges.push(vec![Value::Int(src), Value::Int(dest)]);
    }
    use DataType::{Float64, Int64, Varchar};
    load(&db, "p", &[Int64, Varchar, Float64, Int64], &p, &mut rng);
    load(&db, "c", &[Int64, Float64, Int64], &c, &mut rng);
    load(&db, "wide", &[Int64, Float64, Int64], &wide, &mut rng);
    load(&db, "data", &[Int64, Float64, Float64], &data, &mut rng);
    load(
        &db,
        "centers",
        &[Int64, Float64, Float64],
        &centers,
        &mut rng,
    );
    load(&db, "edges", &[Int64, Int64], &edges, &mut rng);
    db
}

/// `π(p × c)` as the subquery `q(id, s, x, g, cid, v, z, k)`.
const PRODUCT: &str = "(SELECT p.id, p.s, p.x, p.i % 3 AS g, c.cid, p.x * c.y AS v, \
                       p.x ^ c.w + c.y AS z, p.i * c.w AS k FROM p, c) q";

/// Aggregates over the product that fold float sums, MIN's first-seen
/// ±0.0 tie and exact counts and sums.
const FOLDS: &str = "sum(q.v), avg(q.z), min(q.v), max(q.z), count(*), count(q.v), sum(q.k)";

/// One SQL k-Means assignment step over `p × c`: a groupjoin when it is on.
const ARG_MIN: &str = "SELECT x.id AS id, min(x.cid) AS cid, count(*) AS n \
     FROM (SELECT p.id, c.cid, (p.x - c.y) * (p.x - c.y) AS dist FROM p, c) x \
     JOIN (SELECT y.id AS id, min(y.dist) AS best \
           FROM (SELECT p.id AS id, (p.x - c.y) * (p.x - c.y) AS dist FROM p, c) y \
           GROUP BY y.id) n \
       ON x.id = n.id AND x.dist = n.best \
     GROUP BY x.id";

/// The statements the broadcast cross product runs: aggregates over a
/// projection of `p × c` keyed on `p`'s columns only.
fn broadcast() -> Vec<String> {
    vec![
        format!("SELECT q.id, {FOLDS} FROM {PRODUCT} GROUP BY q.id"),
        format!("SELECT q.s, q.x, {FOLDS} FROM {PRODUCT} GROUP BY q.s, q.x"),
        format!("SELECT q.g, {FOLDS} FROM {PRODUCT} GROUP BY q.g"),
        format!("SELECT {FOLDS} FROM {PRODUCT}"),
        ARG_MIN.to_string(),
    ]
}

/// `p ⋈ edges ⋈ u` with `u` unique on its join column.
fn n_to_one(u: &str, select: &str, group_by: &str) -> String {
    format!(
        "SELECT {select} FROM p JOIN edges e ON e.src = p.id \
         JOIN {u} ON d.src = p.id {group_by}"
    )
}

const DEGREE: &str = "(SELECT e3.src AS src, CAST(count(*) AS DOUBLE) AS n \
                      FROM edges e3 GROUP BY e3.src) d";

/// The statements the n:1 join is moved first in.
fn reordered() -> Vec<String> {
    vec![
        n_to_one(
            DEGREE,
            "e.dest, sum(p.x / d.n), min(p.x), count(*)",
            "GROUP BY e.dest",
        ),
        n_to_one(DEGREE, "p.id, p.x, e.dest, d.n", ""),
        n_to_one(
            "(SELECT DISTINCT e3.src AS src FROM edges e3) d",
            "p.s, e.dest, d.src",
            "",
        ),
        n_to_one(
            "(SELECT e3.src AS src FROM edges e3 UNION SELECT e4.dest FROM edges e4) d",
            "e.dest, sum(p.x), count(*)",
            "GROUP BY e.dest",
        ),
    ]
}

/// The loops: k-Means over `data` × `centers` and PageRank over `edges`,
/// as ITERATE and as a recursive CTE.
fn loops() -> Vec<String> {
    let n = VERTICES as usize;
    vec![
        queries::kmeans_iterate(2, 3),
        queries::kmeans_recursive_cte(2, 3),
        queries::pagerank_iterate(n, 0.85, 4),
        queries::pagerank_recursive_cte(n, 0.85, 4),
    ]
}

/// Every rule set against no rule, to the bit, at every thread count and
/// with plan reuse on and off.
fn assert_same_bits(db: &Database, seed: u64, sql: &str) -> String {
    let want = bits(db, Rules::NONE, "", sql);
    for threads in [1, 2, 8] {
        for reuse in ["on", "off"] {
            for rules in rule_sets() {
                let settings = format!("SET threads = {threads}; SET plan_reuse = {reuse}");
                let got = bits(db, rules, &settings, sql);
                assert_eq!(got, want, "seed {seed}, {rules:?}, {settings}:\n{sql}");
            }
        }
    }
    want
}

fn broadcasts(db: &Database, sql: &str) -> bool {
    explain(db, Rules::ALL, "ANALYZE", sql).contains("[cross=broadcast]")
}

fn reorders(db: &Database, sql: &str) -> bool {
    let off = Rules::ALL.without(Rules::JOIN_REORDER);
    explain(db, Rules::ALL, "", sql) != explain(db, off, "", sql)
}

#[test]
fn broadcast_cross_on_and_off_return_the_same_bits() {
    let (mut fired, mut answers) = (0, 0);
    for seed in 0..SEEDS {
        let db = database(seed);
        let small = SMALL[seed as usize % SMALL.len()];
        for sql in broadcast() {
            let fires = broadcasts(&db, &sql);
            let want = (1..=MOST).contains(&small);
            assert_eq!(fires, want, "seed {seed}, |c| = {small}:\n{sql}");
            fired += usize::from(fires);
            answers += usize::from(!assert_same_bits(&db, seed, &sql).is_empty());
        }
    }
    assert!(fired >= 30, "fired {fired} times");
    assert!(answers > 50, "too few non-empty answers: {answers}");
}

#[test]
fn join_reorder_on_and_off_return_the_same_bits() {
    let mut answers = 0;
    for seed in 0..SEEDS {
        let db = database(seed);
        for sql in reordered() {
            assert!(reorders(&db, &sql), "seed {seed}: declined\n{sql}");
            answers += usize::from(!assert_same_bits(&db, seed, &sql).is_empty());
        }
    }
    assert!(answers > 40, "too few non-empty answers: {answers}");
}

#[test]
fn the_loops_return_the_same_bits_and_keep_their_reuse() {
    for seed in 0..SEEDS {
        let db = database(seed);
        for sql in loops() {
            let kmeans = sql.contains("centers");
            let plan = explain(&db, Rules::ALL, "ANALYZE", &sql);
            let cross = plan.lines().filter(|l| l.contains("Join kind=Cross"));
            let cross: String = cross.collect();
            // A recursive CTE's last round crosses an empty working table,
            // which is built: no product of any row is.
            let (fired, built) = (
                cross.contains("[cross=broadcast]"),
                cross.contains("[build_rows=") && !cross.contains("[build_rows=0]"),
            );
            assert_eq!((fired, built), (kmeans, false), "seed {seed}:\n{plan}");
            assert_eq!(reorders(&db, &sql), !kmeans, "seed {seed}:\n{sql}");
            assert!(!assert_same_bits(&db, seed, &sql).is_empty(), "{sql}");
        }
    }
    // ITERATE still builds `data` (k-Means, for its means) and `edges`
    // and the degrees (PageRank) once: 3 and 20 rounds reuse them.
    let db = database(2);
    let plan = explain(&db, Rules::ALL, "ANALYZE", &loops()[0]);
    let reused = plan.lines().filter(|l| l.contains("[build_reused=2]"));
    assert_eq!(reused.count(), 1, "{plan}");
    let pagerank = queries::pagerank_iterate(VERTICES as usize, 0.85, 20);
    let plan = explain(&db, Rules::ALL, "ANALYZE", &pagerank);
    let reused = plan.matches("[build_reused=19]").count();
    assert_eq!(reused, 2, "{plan}");
}

#[test]
fn each_path_declines_what_it_cannot_run_bit_for_bit() {
    let product = PRODUCT.replace("FROM p, c", "FROM p LEFT JOIN c ON 1 = 1");
    let left = format!("SELECT q.id, {FOLDS} FROM {product} GROUP BY q.id");
    let product = PRODUCT.replace("FROM p, c", "FROM p JOIN c ON p.x < c.y");
    let residual = format!("SELECT q.id, {FOLDS} FROM {product} GROUP BY q.id");
    let product = PRODUCT.replace("FROM p, c", "FROM p, c WHERE p.i > c.w");
    let filtered = format!("SELECT q.id, {FOLDS} FROM {product} GROUP BY q.id");
    let reads_c = format!("SELECT q.cid, {FOLDS} FROM {PRODUCT} GROUP BY q.cid");
    let product = PRODUCT.replace("FROM p, c", "FROM p, wide c");
    let wide = format!("SELECT q.id, {FOLDS} FROM {product} GROUP BY q.id");
    let declined = [
        ("a LEFT cross", left),
        ("a residual on the cross", residual),
        ("a filter over the cross", filtered),
        ("a group key that reads c", reads_c),
        ("a c of more than MOST rows", wide),
    ];
    let not_reordered = [
        (
            "a LEFT upper join",
            n_to_one(DEGREE, "p.id, d.n", "").replace("JOIN (SELECT e3", "LEFT JOIN (SELECT e3"),
        ),
        (
            "a residual on the upper join",
            n_to_one(DEGREE, "p.id, d.n", "")
                .replace("ON d.src = p.id", "ON d.src = p.id AND d.n > 1.0"),
        ),
        (
            "an upper side not unique on its key",
            n_to_one("(SELECT e3.src AS src FROM edges e3) d", "p.id", ""),
        ),
        (
            "an upper join on the middle side",
            n_to_one(DEGREE, "p.id", "").replace("ON d.src = p.id", "ON d.src = e.dest"),
        ),
        (
            "a BIGINT key compared as DOUBLE",
            n_to_one(DEGREE, "p.id", "").replace("ON d.src = p.id", "ON d.src = p.x"),
        ),
    ];
    for seed in [0, 2, 3, 4] {
        let db = database(seed);
        for (why, sql) in &declined {
            assert!(!broadcasts(&db, sql), "{why}: fired\n{sql}");
            assert_same_bits(&db, seed, sql);
        }
        for (why, sql) in &not_reordered {
            assert!(!reorders(&db, sql), "{why}: fired\n{sql}");
            assert_same_bits(&db, seed, sql);
        }
    }
}
