//! Every SQL text the harness sends. The harness owns them (nothing is
//! imported from `hylite_bench`), and they are part of each workload's
//! input fingerprint.

use crate::gen::Event;

fn columns(d: usize, alias: &str) -> String {
    (0..d)
        .map(|i| format!("{alias}.c{i}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn column_decls(d: usize) -> String {
    (0..d)
        .map(|i| format!("c{i} DOUBLE"))
        .collect::<Vec<_>>()
        .join(", ")
}

// ---- analytics tables ------------------------------------------------------

pub fn create_points(d: usize) -> String {
    format!("CREATE TABLE data (id BIGINT, {})", column_decls(d))
}

pub fn create_centers(d: usize) -> String {
    format!("CREATE TABLE centers (cid BIGINT, {})", column_decls(d))
}

pub fn create_labeled(d: usize) -> String {
    format!("CREATE TABLE nbdata ({}, label BIGINT)", column_decls(d))
}

pub const CREATE_EDGES: &str = "CREATE TABLE edges (src BIGINT, dest BIGINT)";

pub fn insert_centers(centers: &[Vec<f64>]) -> String {
    let rows: Vec<String> = centers
        .iter()
        .enumerate()
        .map(|(cid, c)| {
            let coords: Vec<String> = c.iter().map(|v| format!("{v:?}")).collect();
            format!("({cid}, {})", coords.join(", "))
        })
        .collect();
    format!("INSERT INTO centers VALUES {}", rows.join(", "))
}

// ---- layer 4: the operators ------------------------------------------------

pub fn kmeans_op(d: usize, iterations: usize) -> String {
    format!(
        "SELECT * FROM KMEANS((SELECT {} FROM data p), (SELECT {} FROM centers c), {iterations})",
        columns(d, "p"),
        columns(d, "c"),
    )
}

pub fn nb_op(d: usize) -> String {
    format!(
        "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT {}, t.label FROM nbdata t), label)",
        columns(d, "t")
    )
}

pub fn pagerank_op(damping: f64, iterations: usize) -> String {
    format!(
        "SELECT * FROM PAGERANK((SELECT e.src, e.dest FROM edges e), {damping}, 0.0, {iterations})"
    )
}

// ---- layer 3: the same algorithms in SQL -----------------------------------

/// One Lloyd step over the centres relation `{working}(cid, c0.., i)`:
/// every point joins every centre, keeps its nearest (smallest cid on a
/// tie), and the points of each centre are averaged.
fn kmeans_step(d: usize, working: &str) -> String {
    let dist = (0..d)
        .map(|i| format!("(p.c{i} - w.c{i})^2"))
        .collect::<Vec<_>>()
        .join(" + ");
    let means = (0..d)
        .map(|i| format!("avg(p2.c{i}) AS c{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "SELECT a.cid AS cid, {means}, min(a.i) + 1 AS i \
         FROM (SELECT x.id AS id, min(x.cid) AS cid, min(x.i) AS i \
               FROM (SELECT p.id, w.cid, w.i, {dist} AS dist FROM data p, {working} w) x \
               JOIN (SELECT y.id AS id, min(y.dist) AS best \
                     FROM (SELECT p.id AS id, {dist} AS dist FROM data p, {working} w) y \
                     GROUP BY y.id) n \
                 ON x.id = n.id AND x.dist = n.best \
               GROUP BY x.id) a \
         JOIN data p2 ON p2.id = a.id \
         GROUP BY a.cid"
    )
}

fn kmeans_init(d: usize) -> String {
    format!(
        "SELECT c.cid AS cid, {}, 0 AS i FROM centers c",
        columns(d, "c")
    )
}

/// k-Means with the non-appending ITERATE construct.
pub fn kmeans_iterate(d: usize, iterations: usize) -> String {
    format!(
        "SELECT * FROM ITERATE(({init}), ({step}), \
         (SELECT s.i FROM iterate s WHERE s.i >= {iterations}))",
        init = kmeans_init(d),
        step = kmeans_step(d, "iterate"),
    )
}

/// k-Means with a recursive CTE: the appending formulation.
pub fn kmeans_cte(d: usize, iterations: usize) -> String {
    let names = (0..d)
        .map(|i| format!("c{i}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "WITH RECURSIVE kc (cid, {names}, i) AS ({init} UNION ALL {step}) \
         SELECT * FROM kc WHERE i = {iterations}",
        init = kmeans_init(d),
        step = kmeans_step(d, &format!("(SELECT * FROM kc WHERE i < {iterations})")),
    )
}

/// Naive Bayes training as plain aggregation, one UNION ALL branch per
/// attribute: (class, attribute, prior, mean, stddev).
pub fn nb_sql(d: usize) -> String {
    let moments = (0..d)
        .map(|j| format!("avg(t.c{j}) AS m{j}, stddev(t.c{j}) AS s{j}"))
        .collect::<Vec<_>>()
        .join(", ");
    (0..d)
        .map(|i| {
            format!(
                "SELECT g.label AS class, 'c{i}' AS attribute, \
                        (g.n + 1.0) / (a.total + k.classes) AS prior, \
                        g.m{i} AS mean, g.s{i} AS stddev \
                 FROM (SELECT t.label AS label, CAST(count(*) AS DOUBLE) AS n, {moments} \
                       FROM nbdata t GROUP BY t.label) g, \
                      (SELECT CAST(count(*) AS DOUBLE) AS total FROM nbdata) a, \
                      (SELECT CAST(count(*) AS DOUBLE) AS classes \
                       FROM (SELECT DISTINCT t2.label FROM nbdata t2) dl) k"
            )
        })
        .collect::<Vec<_>>()
        .join(" UNION ALL ")
}

/// PageRank with ITERATE over the edge table: relational structures only.
pub fn pagerank_iterate(vertices: usize, damping: f64, iterations: usize) -> String {
    let n = vertices as f64;
    format!(
        "SELECT * FROM ITERATE(\
           (SELECT v.vertex AS vertex, 1.0 / {n:.1} AS rank, 0 AS i \
            FROM (SELECT e.src AS vertex FROM edges e UNION SELECT e2.dest FROM edges e2) v), \
           (SELECT e.dest AS vertex, \
                   {base:.17} + {damping} * sum(r.rank / deg.degree) AS rank, \
                   min(r.i) + 1 AS i \
            FROM iterate r \
            JOIN edges e ON e.src = r.vertex \
            JOIN (SELECT e3.src AS src, CAST(count(*) AS DOUBLE) AS degree \
                  FROM edges e3 GROUP BY e3.src) deg ON deg.src = r.vertex \
            GROUP BY e.dest), \
           (SELECT s.i FROM iterate s WHERE s.i >= {iterations}))",
        base = (1.0 - damping) / n,
    )
}

// ---- relational reads over data(id, g, k, c0, c1, tag) and dim(k, w, name) --

pub const CREATE_DATA: &str =
    "CREATE TABLE data (id BIGINT, g BIGINT, k BIGINT, c0 DOUBLE, c1 DOUBLE, tag VARCHAR)";
pub const CREATE_DIM: &str = "CREATE TABLE dim (k BIGINT, w DOUBLE, name VARCHAR)";

pub const TINY: &str = "SELECT 1";

pub fn point(id: i64) -> String {
    format!("SELECT id, g, k, c0, c1, tag FROM data WHERE id = {id}")
}

/// Thresholds of `filter_agg`: a quarter of the rows by `c1`, half by `k`.
pub const FILTER_C1_BELOW: f64 = 0.25;

pub fn filter_agg(dim_rows: usize) -> String {
    format!(
        "SELECT count(*), sum(c0) FROM data WHERE c1 < {FILTER_C1_BELOW} AND k < {}",
        dim_rows / 2
    )
}

pub const GROUP_AGG: &str = "SELECT g, count(*), sum(c0), avg(c1) FROM data GROUP BY g ORDER BY g";

/// Threshold of `join_agg` on `dim.w`.
pub const JOIN_W_BELOW: f64 = 0.5;

pub fn join_agg() -> String {
    format!(
        "SELECT count(*), sum(d.c0 * m.w) FROM data d JOIN dim m ON d.k = m.k WHERE m.w < {JOIN_W_BELOW}"
    )
}

/// Rows `topk` returns.
pub const TOPK: usize = 10;

pub fn topk() -> String {
    format!("SELECT id, c0 FROM data ORDER BY c0 DESC LIMIT {TOPK}")
}

pub fn fetch(rows: usize) -> String {
    format!("SELECT id, g, k, c0, c1, tag FROM data WHERE id < {rows}")
}

pub const FULL_AGG: &str = "SELECT count(*), sum(c0), sum(c1), sum(k) FROM data";

pub fn hot_range(from: usize, to: usize) -> String {
    format!("SELECT count(*), sum(c0) FROM data WHERE id >= {from} AND id < {to}")
}

pub fn dict_eq(tag: &str) -> String {
    format!("SELECT count(*), sum(c0) FROM data WHERE tag = '{tag}'")
}

// ---- writes over events(id, acct, amount, score, note) and acct(id, balance) -

pub const CREATE_EVENTS: &str =
    "CREATE TABLE events (id BIGINT, acct BIGINT, amount BIGINT, score DOUBLE, note VARCHAR)";
pub const CREATE_ACCT: &str = "CREATE TABLE acct (id BIGINT, balance BIGINT)";

fn event_tuple(e: Event) -> String {
    format!(
        "({}, {}, {}, {:?}, '{}')",
        e.id,
        e.acct(),
        e.amount(),
        e.score(),
        e.note()
    )
}

/// One-row insert when `ids` has one element, a multi-row `VALUES` otherwise.
pub fn insert_events(ids: std::ops::Range<i64>) -> String {
    let tuples: Vec<String> = ids.map(|id| event_tuple(Event { id })).collect();
    format!("INSERT INTO events VALUES {}", tuples.join(", "))
}

pub fn insert_accounts(ids: std::ops::Range<i64>, balance: i64) -> String {
    let tuples: Vec<String> = ids.map(|id| format!("({id}, {balance})")).collect();
    format!("INSERT INTO acct VALUES {}", tuples.join(", "))
}

pub fn update_balance(acct: i64, delta: i64) -> String {
    format!("UPDATE acct SET balance = balance + {delta} WHERE id = {acct}")
}

pub fn delete_account(acct: i64) -> String {
    format!("DELETE FROM acct WHERE id = {acct}")
}

pub const BEGIN: &str = "BEGIN";
pub const COMMIT: &str = "COMMIT";

pub const EVENTS_LEDGER: &str = "SELECT count(*), sum(amount) FROM events";
pub const ACCT_LEDGER: &str = "SELECT count(*), sum(balance) FROM acct";

/// Reader statements of `wire.rw`; both carry a row count the reader
/// checks for monotone growth.
pub fn events_filter_agg() -> String {
    format!(
        "SELECT count(*), sum(amount) FROM events WHERE acct < {}",
        crate::gen::ACCOUNTS / 2
    )
}

pub const EVENTS_GROUP_AGG: &str =
    "SELECT amount, count(*), sum(score) FROM events GROUP BY amount";
