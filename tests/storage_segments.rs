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
