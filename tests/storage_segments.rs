//! Larger-than-RAM storage integration: compressed column segments, the
//! buffer pool, zone-map pruning, and incremental checkpoints — driven
//! end to end through SQL on a durable database whose buffer pool is
//! deliberately smaller than the data.

use std::path::PathBuf;
use std::sync::Arc;

use hylite_common::faultfs::{FaultVfs, Vfs};
use hylite_common::Value;
use hylite_core::{Database, DurabilityOptions};

fn data_dir() -> PathBuf {
    PathBuf::from("data")
}

/// A pool two blocks wide: any multi-segment table is larger than RAM
/// from the cache's point of view.
fn tiny_pool() -> DurabilityOptions {
    DurabilityOptions {
        buffer_pool_bytes: 64 * 1024,
        ..DurabilityOptions::default()
    }
}

fn open(fault: &FaultVfs, options: DurabilityOptions) -> Database {
    Database::open_with(
        Arc::new(fault.clone()) as Arc<dyn Vfs>,
        &data_dir(),
        options,
    )
    .expect("open durable database")
}

/// Load `rows` rows of (id, id*2, 'name-<id%97>') in 1000-row batches.
fn load(db: &Database, rows: usize) {
    db.execute("CREATE TABLE big (id BIGINT, v BIGINT, name VARCHAR)")
        .unwrap();
    insert(db, 0, rows);
}

fn insert(db: &Database, start: usize, n: usize) {
    let mut i = start;
    while i < start + n {
        let batch = (start + n - i).min(1000);
        let values: Vec<String> = (i..i + batch)
            .map(|k| format!("({k}, {}, 'name-{}')", k * 2, k % 97))
            .collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(",")))
            .unwrap();
        i += batch;
    }
}

/// The full table, rendered — byte-identical comparison across restarts.
fn fingerprint(db: &Database) -> String {
    db.execute("SELECT id, v, name FROM big ORDER BY id")
        .unwrap()
        .to_table_string()
}

#[test]
fn larger_than_pool_table_restarts_byte_identical() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 40_000);
    db.checkpoint().unwrap();

    // The sealed segments dwarf the 64KiB pool: a full read must evict.
    let before = fingerprint(&db);
    let evictions = db
        .metrics_snapshot()
        .counters
        .get("storage.pool.evictions")
        .copied()
        .unwrap_or(0);
    assert!(evictions > 0, "pool never evicted — data fits the cache?");

    // Restart (clean shutdown already checkpointed; drop is a crash).
    drop(db);
    let db = open(&fault, tiny_pool());
    assert_eq!(fingerprint(&db), before, "restart changed query results");

    // The storage view sees the sealed segments and the pool.
    let r = db
        .execute(
            "SELECT segments, disk_segments, on_disk_bytes, logical_bytes \
             FROM hylite.storage WHERE table_name = 'big'",
        )
        .unwrap();
    assert_eq!(r.row_count(), 1);
    let disk_segments = r.value(0, 1).unwrap();
    assert!(
        matches!(disk_segments, Value::Int(n) if n > 0),
        "{disk_segments:?}"
    );
    let on_disk = r.value(0, 2).unwrap().as_int().unwrap();
    let logical = r.value(0, 3).unwrap().as_int().unwrap();
    assert!(on_disk > 0);
    assert!(
        on_disk < logical,
        "compression made the file bigger: {on_disk} disk vs {logical} logical"
    );
}

#[test]
fn kill_minus_nine_after_segmented_checkpoint_loses_nothing() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 20_000);
    db.checkpoint().unwrap();
    // Acknowledged post-checkpoint commits live only in the WAL tail.
    insert(&db, 20_000, 50);
    let before = fingerprint(&db);
    // kill -9: drop the process, then reboot the "machine" (unsynced
    // page-cache state is discarded; Commit mode fsynced every ack).
    drop(db);
    fault.reboot();
    let db = open(&fault, tiny_pool());
    let report = db.recovery_report().unwrap();
    assert!(report.checkpoint_loaded, "manifest was not found");
    assert!(report.replayed_records > 0, "WAL tail was not replayed");
    assert_eq!(fingerprint(&db), before, "crash recovery changed results");
    assert_eq!(
        db.execute("SELECT count(*) FROM big")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(20_050)
    );
}

#[test]
fn explain_analyze_counts_pruned_blocks() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 40_000);
    db.checkpoint().unwrap();

    // 40k sorted ids make ~10 zone-mapped blocks of 4096; a selective
    // range should scan 1 and prune the other 9.
    let r = db
        .execute("EXPLAIN ANALYZE SELECT count(*) FROM big WHERE id < 1000")
        .unwrap();
    let text = r.to_table_string();
    assert!(text.contains("blocks_scanned="), "{text}");
    let pruned: u64 = text
        .split("blocks_pruned=")
        .nth(1)
        .and_then(|s| {
            s.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or_else(|| panic!("no blocks_pruned note in: {text}"));
    assert!(
        pruned >= 8,
        "expected most blocks pruned, got {pruned}: {text}"
    );

    // Pruning must not change answers: compare against an unprunable
    // predicate form of the same question.
    assert_eq!(
        db.execute("SELECT count(*) FROM big WHERE id < 1000")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(1000)
    );
    assert_eq!(
        db.execute("SELECT count(*) FROM big WHERE id % 100000 < 1000")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(1000),
        "computed predicate (no pruning) disagrees with pruned scan"
    );

    // A range beyond every zone map prunes everything.
    assert_eq!(
        db.execute("SELECT count(*) FROM big WHERE id > 1000000")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(0)
    );
}

#[test]
fn projected_scan_loads_only_its_columns_blocks() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 40_000);
    db.checkpoint().unwrap();
    drop(db);
    // Two blocks fit the pool and a column has ten: every block read of
    // the scans below is a miss.
    let db = open(&fault, tiny_pool());
    let misses = |sql: &str| {
        let counter = |db: &Database| {
            let counters = db.metrics_snapshot().counters;
            counters.get("storage.pool.misses").copied().unwrap_or(0)
        };
        let before = counter(&db);
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        db.execute(sql).unwrap();
        (counter(&db) - before, plan.to_table_string())
    };
    let blocks_per_column = 40_000u64.div_ceil(4096);
    let (one, plan) = misses("SELECT v FROM big");
    assert!(plan.contains("cols=[1]"), "{plan}");
    assert_eq!(
        one, blocks_per_column,
        "cols=[1] read other columns' blocks"
    );
    let (all, _) = misses("SELECT id, v, name FROM big");
    assert_eq!(all, 3 * blocks_per_column);
}

#[test]
fn second_checkpoint_is_incremental() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 40_000);
    let first = db.checkpoint().unwrap();
    assert!(first.segments_sealed > 0);
    assert!(first.segment_bytes > 0);

    // A small delta: the second checkpoint must reuse the sealed prefix
    // and write only the new rows.
    insert(&db, 40_000, 100);
    let second = db.checkpoint().unwrap();
    assert_eq!(second.segments_sealed, 1, "delta should seal one segment");
    assert!(
        second.segment_bytes * 10 < first.segment_bytes,
        "incremental checkpoint rewrote the world: {} vs {}",
        second.segment_bytes,
        first.segment_bytes
    );

    // No delta at all: nothing to seal.
    let third = db.checkpoint().unwrap();
    assert_eq!(third.segments_sealed, 0, "no-op checkpoint sealed data");
    assert_eq!(third.segment_bytes, 0);

    // Deletes rewrite nothing either — they live in the manifest.
    db.execute("DELETE FROM big WHERE id < 10").unwrap();
    let fourth = db.checkpoint().unwrap();
    assert_eq!(fourth.segments_sealed, 0, "deletes resealed segments");
    assert_eq!(
        db.execute("SELECT count(*) FROM big")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(40_090)
    );
}

#[test]
fn updates_against_disk_segments_work() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 10_000);
    db.checkpoint().unwrap();
    // UPDATE reads target rows from disk segments (delete + append).
    let r = db
        .execute("UPDATE big SET v = v + 1 WHERE id < 100")
        .unwrap();
    assert_eq!(r.rows_affected, 100);
    assert_eq!(
        db.execute("SELECT sum(v) FROM big WHERE id < 100")
            .unwrap()
            .scalar()
            .unwrap(),
        // sum(2*id for id<100) + 100
        Value::Int(9900 + 100)
    );
    // Survives a restart (the delta replays over the manifest).
    drop(db);
    let db = open(&fault, tiny_pool());
    assert_eq!(
        db.execute("SELECT sum(v) FROM big WHERE id < 100")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(10_000)
    );
}

// ---- predicates on encoded blocks (`SET encoded_scan = on`) vs the same
// ---- scan with the switch off vs a never-checkpointed copy

fn set_encoded_scan(db: &Database, on: bool) {
    let value = if on { "on" } else { "off" };
    db.execute(&format!("SET encoded_scan = {value}")).unwrap();
}

#[test]
fn the_encoded_scan_switch_is_per_session_and_takes_on_off_one_zero() {
    let db = Database::in_memory();
    let mut session = db.session();
    assert!(!session.settings().encoded_scan, "off unless switched on");
    for (value, on) in [("on", true), ("off", false), ("1", true), ("0", false)] {
        session
            .execute(&format!("SET encoded_scan = {value}"))
            .unwrap();
        assert_eq!(session.settings().encoded_scan, on, "{value}");
    }
    session.execute("SET encoded_scan TO on").unwrap();
    for value in ["true", "2", "-1", "maybe"] {
        let sql = format!("SET encoded_scan = {value}");
        assert!(session.execute(&sql).is_err(), "{sql}");
    }
    assert!(
        session.settings().encoded_scan,
        "a rejected SET changes nothing"
    );
    assert!(
        !db.session().settings().encoded_scan,
        "other sessions keep theirs"
    );
}

/// `enc`: one column per block encoding, NULLs in the nullable ones, the
/// BIGINT extremes in `p`. Row `i` is a pure function of `i`.
fn enc_row(i: i64) -> String {
    let p = match i % 11 {
        0 => "(-9223372036854775807 - 1)".to_string(),
        1 => "9223372036854775807".to_string(),
        _ => (i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64)).to_string(),
    };
    let nullable = |every: i64, text: String| if i % every == 5 { "NULL".into() } else { text };
    format!(
        "({i}, {}, {}, {p}, {}, {}, 'u{}')",
        nullable(
            53,
            [-9_000_000_000_000_000_000i64, -5, 0, 7][(i / 211 % 4) as usize].to_string()
        ),
        nullable(47, (-1_000_000 - i * 13 % 4001).to_string()),
        nullable(43, format!("{:?}", (i * 37 % 1999) as f64 / 16.0 - 50.0)),
        nullable(41, format!("'t{:02}'", i * 7 % 23 * 3)),
        i * 7919 % 100_003,
    )
}

fn enc_insert(db: &Database, from: i64, to: i64) {
    for start in (from..to).step_by(500) {
        let rows: Vec<String> = (start..to.min(start + 500)).map(enc_row).collect();
        db.execute(&format!("INSERT INTO enc VALUES {}", rows.join(",")))
            .unwrap();
    }
}

/// The table's life, identical on every database it is built in; `seal`
/// runs where a durable one checkpoints.
fn enc_build(db: &Database, seal: &dyn Fn(&Database)) {
    db.execute(
        "CREATE TABLE enc (id BIGINT, r BIGINT, f BIGINT, p BIGINT, d DOUBLE, t VARCHAR, u VARCHAR)",
    )
    .unwrap();
    enc_insert(db, 0, 9000);
    seal(db);
    // A resident tail after the disk prefix, and deletes in both.
    enc_insert(db, 9000, 9400);
    db.execute("DELETE FROM enc WHERE id % 7 = 3").unwrap();
}

/// Every comparison operator per column against literals below, at,
/// between and above the stored values, then two-sided windows and
/// conjunctions across columns.
fn enc_predicates() -> Vec<String> {
    let literals: [(&str, &[&str]); 6] = [
        (
            "id",
            &["0", "4095", "4096", "8999", "9000", "9399", "20000", "-1"],
        ),
        ("r", &["-9000000000000000000", "-5", "0", "7", "6", "8"]),
        // The extremes: `literal - base` of a FOR block leaves i64.
        (
            "f",
            &[
                "-1000000",
                "-1004000",
                "-1002000",
                "-999999",
                "-1004001",
                "(-9223372036854775807 - 1)",
                "9223372036854775807",
            ],
        ),
        (
            "p",
            &[
                "(-9223372036854775807 - 1)",
                "9223372036854775807",
                "0",
                "-9223372036854775807",
            ],
        ),
        (
            "d",
            &["-50.0", "74.875", "0.0", "-0.0", "12.5", "1e300", "-1e300"],
        ),
        (
            "t",
            &["''", "'t00'", "'t01'", "'t33'", "'t66'", "'t67'", "'zz'"],
        ),
    ];
    let mut out = Vec::new();
    for (col, lits) in literals {
        for lit in lits {
            for op in ["=", "<", "<=", ">", ">="] {
                out.push(format!("{col} {op} {lit}"));
            }
        }
        for (a, b) in lits.iter().zip(lits.iter().skip(1)) {
            out.push(format!("{col} > {a} AND {col} <= {b}"));
            out.push(format!("{col} >= {b} AND {col} < {a}"));
        }
    }
    out.extend(
        [
            "t = 't33' AND f >= -1002000",
            "id >= 4000 AND id < 4200 AND d < 0.0",
            "r = 7 AND t >= 't30' AND p < 0",
            "id > 8990 AND u >= 'u5'",
            "d > 10 AND f < -1001000.5", // mixed BIGINT/DOUBLE: left to the filter
        ]
        .map(String::from),
    );
    out
}

fn enc_cells(db: &Database, predicate: &str) -> Vec<String> {
    let r = db
        .execute(&format!(
            "SELECT id, r, f, p, d, t, u FROM enc WHERE {predicate}"
        ))
        .unwrap_or_else(|e| panic!("{predicate}: {e}"));
    let mut cells = Vec::new();
    for row in 0..r.row_count() {
        for col in 0..7 {
            cells.push(match r.value(row, col).unwrap() {
                Value::Float(f) => format!("f{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            });
        }
    }
    cells
}

#[test]
fn encoded_scan_and_resident_copy_agree_cell_by_cell() {
    let fault = FaultVfs::new();
    let durable = open(&fault, tiny_pool());
    enc_build(&durable, &|db| {
        db.checkpoint().unwrap();
    });
    let resident = Database::in_memory();
    enc_build(&resident, &|_| {});

    // The sealed prefix exercises every encoding.
    let seg_dir = data_dir().join("segments");
    let mut encodings = std::collections::BTreeSet::new();
    for name in fault.list_dir(&seg_dir).unwrap() {
        let bytes = fault.read(&seg_dir.join(name)).unwrap();
        let meta = hylite_storage::segment::validate_segment_bytes(&bytes).unwrap();
        for (c, blocks) in meta.blocks.iter().enumerate() {
            encodings.extend(blocks.iter().map(|b| (c, b.encoding)));
        }
    }
    use hylite_storage::segment::encoding::{DICT_STR, FOR_INT, PLAIN, RLE_INT};
    for want in [
        (1, RLE_INT),
        (2, FOR_INT),
        (3, PLAIN),
        (4, PLAIN),
        (5, DICT_STR),
        (6, PLAIN),
    ] {
        assert!(
            encodings.contains(&want),
            "no block encoded as {want:?}: {encodings:?}"
        );
    }

    // What storage hands the filter: with the ranges evaluated on the
    // encoded blocks, the rows the filter keeps plus, at most, the live
    // rows of the resident tail (which has no encoded form to select on);
    // with the switch off (the default), every row the zone maps left.
    let notes = |predicate: &str| -> (usize, usize) {
        let plan = durable
            .execute(&format!(
                "EXPLAIN ANALYZE SELECT id FROM enc WHERE {predicate}"
            ))
            .unwrap()
            .to_table_string();
        let note = |name: &str| -> usize {
            let at = plan
                .find(name)
                .unwrap_or_else(|| panic!("no {name} in {plan}"));
            let digits = plan[at + name.len()..].split(']').next().unwrap();
            digits.parse().unwrap()
        };
        (note("rows_selected="), note("blocks_skipped_encoded="))
    };
    let tail_live = enc_cells(&resident, "id >= 9000").len() / 7;
    let (mut exact, mut emptied) = (0, 0);
    for predicate in enc_predicates() {
        let expect = enc_cells(&resident, &predicate);
        assert_eq!(enc_cells(&durable, &predicate), expect, "off: {predicate}");
        let (handed_over, skipped) = notes(&predicate);
        assert_eq!(skipped, 0, "off: {predicate}");
        set_encoded_scan(&durable, true);
        assert_eq!(enc_cells(&durable, &predicate), expect, "on: {predicate}");
        let (selected, skipped) = notes(&predicate);
        set_encoded_scan(&durable, false);
        assert!(selected <= handed_over, "{predicate}");
        exact += usize::from(selected <= expect.len() / 7 + tail_live);
        emptied += usize::from(skipped > 0);
    }
    // All but the mixed BIGINT/DOUBLE conjunction, which is the filter's.
    assert_eq!(exact, enc_predicates().len() - 1);
    assert!(emptied >= 10, "only {emptied} predicates emptied a block");

    // And after a restart, from the manifest, segments and WAL tail alone.
    drop(durable);
    let durable = open(&fault, tiny_pool());
    for on in [false, true] {
        set_encoded_scan(&durable, on);
        for predicate in enc_predicates().iter().step_by(7) {
            assert_eq!(
                enc_cells(&durable, predicate),
                enc_cells(&resident, predicate),
                "after restart, encoded_scan {on}: {predicate}"
            );
        }
    }
}

#[test]
fn count_star_loads_no_block() {
    let fault = FaultVfs::new();
    let db = open(&fault, tiny_pool());
    load(&db, 20_000);
    db.checkpoint().unwrap();
    db.execute("DELETE FROM big WHERE id % 10 = 0").unwrap();
    insert(&db, 20_000, 123); // resident tail
    db.execute("DELETE FROM big WHERE id = 20001").unwrap();
    let lookups = |db: &Database| {
        let counters = db.metrics_snapshot().counters;
        let get = |name: &str| counters.get(name).copied().unwrap_or(0);
        get("storage.pool.hits") + get("storage.pool.misses")
    };
    let before = lookups(&db);
    let plan = db.execute("EXPLAIN SELECT count(*) FROM big").unwrap();
    assert!(
        plan.to_table_string().contains("cols=[]"),
        "{}",
        plan.to_table_string()
    );
    let count = db.execute("SELECT count(*) FROM big").unwrap();
    assert_eq!(
        count.scalar().unwrap(),
        Value::Int(20_000 - 2_000 + 123 - 1)
    );
    assert_eq!(lookups(&db), before, "count(*) touched the buffer pool");
    // A count under a filter reads the filter's column and nothing else.
    let misses_before = db.metrics_snapshot().counters["storage.pool.misses"];
    let count = db
        .execute("SELECT count(*) FROM big WHERE v >= 20000")
        .unwrap();
    assert_eq!(
        count.scalar().unwrap(),
        Value::Int(10_000 - 1_000 + 123 - 1)
    );
    let loaded = db.metrics_snapshot().counters["storage.pool.misses"] - misses_before;
    assert!(
        loaded <= 20_000u64.div_ceil(4096),
        "{loaded} blocks for a one-column count"
    );
}

#[test]
fn updates_and_deletes_find_the_same_rows_on_encoded_blocks() {
    // UPDATE and DELETE locate their rows through the same pruning and
    // selection as a scan; a checkpointed copy of `enc`, with the switch
    // on and off, and a never-checkpointed one must end up identical.
    let writes = [
        "DELETE FROM enc WHERE t = 't33' AND id < 6000",
        "UPDATE enc SET d = d + 1.0 WHERE f >= -1002000 AND f < -1001000",
        "DELETE FROM enc WHERE r = 7 AND id >= 4090 AND id <= 4100",
        "UPDATE enc SET u = 'moved' WHERE p = 9223372036854775807",
        "DELETE FROM enc WHERE id > 9390",
        "UPDATE enc SET r = 1 WHERE d < -49.0",
    ];
    let build = |encoded_scan: Option<bool>| {
        let fault = FaultVfs::new();
        let db = match encoded_scan {
            Some(on) => {
                let db = open(&fault, tiny_pool());
                set_encoded_scan(&db, on);
                db
            }
            None => Database::in_memory(),
        };
        enc_build(&db, &|db| {
            if encoded_scan.is_some() {
                db.checkpoint().unwrap();
            }
        });
        let affected: Vec<usize> = writes
            .iter()
            .map(|sql| db.execute(sql).unwrap().rows_affected)
            .collect();
        (affected, enc_cells(&db, "id >= 0"), fault, db)
    };
    let (expect_affected, expect, _, _) = build(None);
    assert!(
        expect_affected.iter().all(|&n| n > 0),
        "{expect_affected:?}"
    );
    for on in [false, true] {
        let (affected, cells, fault, db) = build(Some(on));
        assert_eq!(affected, expect_affected, "encoded_scan {on}");
        assert_eq!(cells, expect, "encoded_scan {on}");
        // ... and the WAL recorded the same row ids: replay agrees.
        drop(db);
        let db = open(&fault, tiny_pool());
        assert_eq!(enc_cells(&db, "id >= 0"), expect, "after restart");
    }
}
