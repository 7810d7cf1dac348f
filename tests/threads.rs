//! Answers do not depend on threads: every analytics table function
//! returns the same bits at `SET threads = 1, 2, 3, 8`, on every repeat,
//! and `threads = 1` returns the bits the parent commit (119d246, one
//! thread, no scheduler) returned — `tests/golden/threads_parent_bits.txt`,
//! printed there by `print_bits_for_the_golden` below.
//!
//! The host's helper budget is process-wide and other tests of this
//! binary run beside each one, so nothing here asserts that a call *was*
//! parallel: `crates/common/src/morsel.rs` forces that with a private
//! budget. Here the assertion is that it cannot show.

use std::fmt::Write as _;

use hylite::common::hash::splitmix64;
use hylite::common::{Chunk, ColumnVector};
use hylite::{Database, HyError, Value};

/// Inputs are loaded one chunk per insert, so a table scans as that many
/// chunks — the scheduler's morsels for k-Means and Naive Bayes.
const CHUNK_COUNTS: [usize; 4] = [0, 1, 2, 300];
const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Uniform in [0, 1), a stream per (table, chunk).
fn unit(seed: &mut u64) -> f64 {
    *seed = splitmix64(*seed);
    (*seed >> 11) as f64 / (1u64 << 53) as f64
}

fn load(db: &Database, table: &str, chunks: Vec<Chunk>) {
    let table = db.catalog().get_table(table).unwrap();
    let mut guard = table.write();
    for chunk in chunks {
        guard.insert_chunk(chunk).unwrap();
    }
    guard.commit();
}

/// `pts(x, y, z)`, `ctr(x, y, z)` (4 rows), `nb(c0, c1, label)` with
/// three classes, `edges(src, dest)` over sparse vertex ids with some
/// dest-only (dangling) vertices. With 300 chunks the graph has 270,000
/// edges, enough for PageRank to cut its rounds into ranges.
fn database(chunks: usize) -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE pts (x DOUBLE, y DOUBLE, z DOUBLE)",
        "CREATE TABLE ctr (x DOUBLE, y DOUBLE, z DOUBLE)",
        "INSERT INTO ctr VALUES (0.1, 0.2, 0.3), (0.9, 0.8, 0.1), (0.5, 0.5, 0.9), (0.3, 0.9, 0.5)",
        "CREATE TABLE nb (c0 DOUBLE, c1 DOUBLE, label BIGINT)",
        "CREATE TABLE edges (src BIGINT, dest BIGINT)",
    ] {
        db.execute(ddl).unwrap();
    }
    let floats =
        |seed: &mut u64, n: usize| ColumnVector::from_f64((0..n).map(|_| unit(seed)).collect());
    let mut seed = 0x5eed;
    load(
        &db,
        "pts",
        (0..chunks)
            .map(|_| Chunk::new((0..3).map(|_| floats(&mut seed, 37)).collect()))
            .collect(),
    );
    load(
        &db,
        "nb",
        (0..chunks)
            .map(|_| {
                let labels: Vec<i64> = (0..41).map(|_| (unit(&mut seed) * 3.0) as i64).collect();
                let shifted = |seed: &mut u64| {
                    ColumnVector::from_f64(
                        labels
                            .iter()
                            .map(|l| *l as f64 * 0.4 + unit(seed))
                            .collect(),
                    )
                };
                let (c0, c1) = (shifted(&mut seed), shifted(&mut seed));
                Chunk::new(vec![c0, c1, ColumnVector::from_i64(labels)])
            })
            .collect(),
    );
    let vertices = (chunks * 3).max(5) as f64;
    load(
        &db,
        "edges",
        (0..chunks)
            .map(|_| {
                let mut ids = |spread: f64| {
                    ColumnVector::from_i64(
                        (0..900)
                            .map(|_| (unit(&mut seed) * spread) as i64 * 7 + 3)
                            .collect(),
                    )
                };
                Chunk::new(vec![ids(vertices), ids(vertices * 1.1)])
            })
            .collect(),
    );
    db
}

const PTS: &str = "(SELECT x, y, z FROM pts), (SELECT x, y, z FROM ctr)";
const L1: &str = "λ(a, b) abs(a.x - b.x) + abs(a.y - b.y) + abs(a.z - b.z)";
const NB: &str = "(SELECT c0, c1, label FROM nb), label";

/// Every analytics table function, the lambda paths and both PageRank
/// stopping rules among them.
fn statements() -> Vec<(&'static str, String)> {
    vec![
        ("kmeans", format!("SELECT * FROM KMEANS({PTS}, 6)")),
        ("kmeans_l1", format!("SELECT * FROM KMEANS({PTS}, {L1}, 6)")),
        (
            "kmeans_assign",
            format!("SELECT * FROM KMEANS_ASSIGN({PTS})"),
        ),
        (
            "kmeans_assign_l1",
            format!("SELECT * FROM KMEANS_ASSIGN({PTS}, {L1})"),
        ),
        ("nb_train", format!("SELECT * FROM NAIVE_BAYES_TRAIN({NB})")),
        (
            "nb_predict",
            format!(
                "SELECT * FROM NAIVE_BAYES_PREDICT((SELECT * FROM NAIVE_BAYES_TRAIN({NB})), \
                 (SELECT x AS c0, y AS c1 FROM pts))"
            ),
        ),
        ("class_stats", format!("SELECT * FROM CLASS_STATS({NB})")),
        (
            "pagerank_fixed",
            "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.0, 12)".into(),
        ),
        (
            "pagerank_eps",
            "SELECT * FROM PAGERANK((SELECT src, dest FROM edges), 0.85, 0.00001)".into(),
        ),
        (
            "pagerank_weighted",
            "SELECT * FROM PAGERANK((SELECT src, dest, 0.25 + src % 4 FROM edges), 0.85, 0.0, 5)"
                .into(),
        ),
    ]
}

/// A result as text that is equal exactly when the bits are: doubles as
/// hexadecimal bit patterns, rows in the order returned; an error as its
/// message.
fn bits(result: Result<hylite::QueryResult, HyError>) -> String {
    let mut out = String::new();
    match result {
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

/// FNV-1a, so the golden holds a line per statement and not 11,100 rows.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn golden_line(chunks: usize, name: &str, bits: &str) -> String {
    format!(
        "chunks={chunks} {name} rows={} digest={:016x}",
        bits.lines().count(),
        digest(bits)
    )
}

/// `cargo test --test threads -- --ignored --nocapture print_bits` at the
/// commit whose answers are to be pinned; no `SET` is issued, so it
/// also builds and runs where `threads` does not exist yet.
#[test]
#[ignore = "prints the golden; run it by name"]
fn print_bits_for_the_golden() {
    for chunks in CHUNK_COUNTS {
        let db = database(chunks);
        for (name, sql) in statements() {
            println!("{}", golden_line(chunks, name, &bits(db.execute(&sql))));
        }
    }
}

#[test]
fn every_operator_returns_the_parents_bits_at_every_thread_count() {
    let mut golden = include_str!("golden/threads_parent_bits.txt").lines();
    for chunks in CHUNK_COUNTS {
        let db = database(chunks);
        for (name, sql) in statements() {
            let want = golden.next().expect("a golden line per statement");
            let mut first: Option<String> = None;
            for threads in THREADS {
                db.execute(&format!("SET threads = {threads}")).unwrap();
                let got = bits(db.execute(&sql));
                if threads == 1 {
                    assert_eq!(
                        golden_line(chunks, name, &got),
                        want,
                        "{name} over {chunks} chunks at threads = 1 against the parent commit"
                    );
                }
                let first = first.get_or_insert_with(|| got.clone());
                assert!(
                    *first == got,
                    "{name} over {chunks} chunks: threads = {threads} differs from threads = 1"
                );
            }
            // The default (every core but one) is one more thread count.
            db.execute("SET threads = 0").unwrap();
            assert!(
                first.as_deref() == Some(&bits(db.execute(&sql))),
                "{name} at the default"
            );
        }
    }
    assert_eq!(golden.next(), None, "golden lines left over");
}

#[test]
fn ten_repeats_at_two_threads_are_bit_identical() {
    let db = database(300);
    db.execute("SET threads = 2").unwrap();
    for (name, sql) in statements() {
        let first = bits(db.execute(&sql));
        for repeat in 1..10 {
            assert!(
                first == bits(db.execute(&sql)),
                "{name}: repeat {repeat} differs — the hand-out order shows"
            );
        }
    }
}

/// With every helper permit of the process held by someone else (here: the
/// test; in production: other sessions' statements) a statement runs on
/// its own thread, says so, and returns the same bits.
#[test]
fn an_exhausted_helper_budget_runs_inline_with_the_same_bits() {
    use hylite::common::morsel::{Budget, Permit};
    let db = database(300);
    let (name, sql) = &statements()[0];
    let free = bits(db.execute(sql));
    // Other tests of this binary hold permits now and then: take them as
    // they come back, until every one is held here.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut held = Vec::new();
    while held.iter().map(|p: &Permit| p.helpers()).sum::<usize>() < cores - 1 {
        held.push(Budget::process().try_acquire(usize::MAX));
        std::thread::yield_now();
    }
    let no_permit = |db: &Database| {
        db.metrics_snapshot()
            .counter("sched.inline_calls.no_permit")
    };
    // The default cap leaves a core free: ask for all of them.
    db.execute(&format!("SET threads = {cores}")).unwrap();
    let before = no_permit(&db);
    let starved = bits(db.execute(sql));
    drop(held);
    assert!(free == starved, "{name} without helpers");
    // On a one-core host there is no permit to hold and the cap is 1.
    if cores > 1 {
        assert!(no_permit(&db) > before, "the inline reason is counted");
    }
}

/// `threads = 1` is counted as such, `morsels` counts the chunks, and both
/// reach EXPLAIN ANALYZE's operator line and `hylite.metrics`.
#[test]
fn the_schedule_is_visible_in_explain_analyze_and_the_metrics_view() {
    let db = database(300);
    db.execute("SET threads = 1").unwrap();
    let sql = &statements()[4].1;
    let plan = db
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .to_table_string();
    let operator = plan
        .lines()
        .find(|l| l.contains("NaiveBayesTrain"))
        .unwrap_or_else(|| panic!("no operator line in:\n{plan}"));
    assert!(
        operator.contains("[morsels=300]") && operator.contains("[threads=1]"),
        "{operator}"
    );
    let single = db
        .execute("SELECT value FROM hylite.metrics WHERE name = 'sched.inline_calls.single_thread'")
        .unwrap();
    assert_eq!(single.scalar().unwrap(), Value::Int(1));
    let view = db
        .execute("SELECT name FROM hylite.metrics WHERE name LIKE 'sched.%' ORDER BY name")
        .unwrap()
        .to_table_string();
    for name in [
        "sched.helpers_busy",
        "sched.inline_calls.no_permit",
        "sched.inline_calls.one_morsel",
        "sched.morsels",
        "sched.parallel_calls",
    ] {
        assert!(view.contains(name), "{name} missing from:\n{view}");
    }
    // Plain EXPLAIN prints the plan only (tests/plan_algebra.rs pins it).
    let plain = db
        .execute(&format!("EXPLAIN {sql}"))
        .unwrap()
        .to_table_string();
    assert!(!plain.contains("threads="), "{plain}");
}

/// k-Means charges one `Locals` per input chunk, whatever runs them.
#[test]
fn kmeans_scratch_accounting_does_not_depend_on_threads() {
    let db = database(300);
    let sql = &statements()[0].1;
    // 300 chunks × (4 × 3 sums + 4 counts) × 8 bytes of scratch; a budget
    // below the inputs' own size fails the same way at every count.
    db.execute("SET memory_budget_mb = 1").unwrap();
    let mut peaks = Vec::new();
    for threads in THREADS {
        db.execute(&format!("SET threads = {threads}")).unwrap();
        let before = db.metrics_snapshot();
        db.execute(sql).unwrap();
        let after = db.metrics_snapshot();
        let peak = |s: &hylite::MetricsSnapshot| {
            s.histogram("governor.peak_reserved_bytes")
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let ((c0, s0), (c1, s1)) = (peak(&before), peak(&after));
        assert_eq!(c1 - c0, 1, "one statement, one peak");
        peaks.push(s1 - s0);
    }
    assert!(peaks.iter().all(|p| *p == peaks[0]), "{peaks:?}");
    assert!(peaks[0] >= 300 * (4 * 3 + 4) * 8, "{peaks:?}");
}
