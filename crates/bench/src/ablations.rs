//! Measurements outside the paper's figures, run by `figures` on request:
//! the lambda and CSR ablations (A3, A4) and what checkpoints and replica
//! catch-up cost. Every timed region goes through `systems::time`, once (the
//! ablation statements after an untimed run); sizes are given at the
//! default `--scale 0.01` and grow linearly with it.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hylite_analytics::{pagerank, PageRankConfig};
use hylite_common::faultfs::{FaultVfs, Vfs};
use hylite_common::{Chunk, ColumnVector, DataType, Result, Value};
use hylite_core::{CheckpointStats, Database, DurabilityOptions, ReplRole, ReplTail};
use hylite_datagen::table1::KMeansExperiment;
use hylite_graph::{CsrGraph, LdbcConfig};
use hylite_storage::segment::encode_segment;
use hylite_storage::SEGMENT_ROWS;

use crate::queries;
use crate::report::Measurement;
use crate::systems::time;
use crate::workloads::{setup_kmeans, setup_pagerank};

/// `n` at `--scale 0.01`, in proportion at any other.
fn sized(n: usize, scale: f64) -> usize {
    (n as f64 * scale / 0.01) as usize
}

fn point(system: &str, x: impl ToString, runtime: Duration) -> Measurement {
    Measurement {
        system: system.to_string(),
        x: x.to_string(),
        runtime,
    }
}

/// Ablation A3 (§7), the cost of lambda flexibility in the KMEANS
/// operator: the hand-tuned default squared-L2 kernel against the *same*
/// metric as a user lambda (vectorized expression evaluation with
/// broadcast centers), the L1 (k-Medians) lambda and a weighted metric.
pub fn ablation_lambda(scale: f64) -> Result<Vec<Measurement>> {
    let (d, iterations) = (5, 3);
    let exp = KMeansExperiment {
        n: sized(40_000, scale),
        d,
        k: 5,
        iterations,
    };
    let ctx = setup_kmeans(exp, 42)?;
    let list = |term: &dyn Fn(usize) -> String, sep: &str| -> String {
        (0..d).map(term).collect::<Vec<_>>().join(sep)
    };
    let base = format!(
        "SELECT * FROM KMEANS((SELECT {} FROM data d), (SELECT {} FROM centers ct)",
        list(&|i| format!("d.c{i}"), ", "),
        list(&|i| format!("ct.c{i}"), ", "),
    );
    let l2 = list(&|i| format!("(a.c{i} - b.c{i})^2"), " + ");
    let l1 = list(&|i| format!("abs(a.c{i} - b.c{i})"), " + ");
    let weighted = list(&|i| format!("{}.0 * (a.c{i} - b.c{i})^2", i + 1), " + ");
    let mut out = Vec::new();
    for (name, sql) in [
        ("default_l2_kernel", format!("{base}, {iterations})")),
        (
            "lambda_l2",
            format!("{base}, LAMBDA(a, b) {l2}, {iterations})"),
        ),
        (
            "lambda_l1_kmedians",
            format!("{base}, LAMBDA(a, b) {l1}, {iterations})"),
        ),
        (
            "lambda_weighted",
            format!("{base}, LAMBDA(a, b) {weighted}, {iterations})"),
        ),
    ] {
        ctx.db.execute(&sql)?;
        let (t, _) = time(|| ctx.db.execute(&sql))?;
        out.push(point(name, exp.n, t));
    }
    Ok(out)
}

/// Ablation A4 (§6.3/§8.4.2), the CSR index benefit for PageRank: the
/// operator end to end, building the query-local CSR (with dense
/// re-labeling) alone, the iterations over it alone, and the join-based
/// ITERATE formulation that replaces neighbor traversal with hash joins.
pub fn ablation_csr(scale: f64) -> Result<Vec<Measurement>> {
    let config = LdbcConfig {
        vertices: sized(5_000, scale),
        edges: sized(40_000, scale),
        triangle_fraction: 0.3,
        seed: 42,
    };
    let ctx = setup_pagerank(&config)?;
    let pr_config = PageRankConfig {
        damping: 0.85,
        epsilon: 0.0,
        max_iterations: 45,
    };
    let x = format!("{}/{}", config.vertices, ctx.src.len());
    let operator = queries::pagerank_operator(0.85, 45);
    let iterate = queries::pagerank_iterate(config.vertices, 0.85, 10);
    let graph = CsrGraph::from_edges(&ctx.src, &ctx.dest)?;
    ctx.db.execute(&operator)?;
    ctx.db.execute(&iterate)?;
    Ok(vec![
        point(
            "operator_end_to_end",
            &x,
            time(|| ctx.db.execute(&operator))?.0,
        ),
        point(
            "csr_build_only",
            &x,
            time(|| CsrGraph::from_edges(&ctx.src, &ctx.dest))?.0,
        ),
        point(
            "iterations_only_on_csr",
            &x,
            time(|| Ok(pagerank(&graph, &pr_config)))?.0,
        ),
        point(
            "iterate_sql_joins",
            &x,
            time(|| ctx.db.execute(&iterate))?.0,
        ),
    ])
}

fn open(role: ReplRole) -> Result<Database> {
    Database::open_with(
        Arc::new(FaultVfs::new()) as Arc<dyn Vfs>,
        Path::new("data"),
        DurabilityOptions {
            role,
            ..DurabilityOptions::default()
        },
    )
}

/// One segment's worth of rows in each shape the encoder distinguishes.
fn shapes() -> Result<Vec<(&'static str, Chunk)>> {
    let n = SEGMENT_ROWS;
    let strings = |f: &dyn Fn(usize) -> String| -> Result<Chunk> {
        let values: Vec<Value> = (0..n).map(|i| Value::from(f(i).as_str())).collect();
        let column = ColumnVector::from_values(DataType::Varchar, &values)?;
        Ok(Chunk::new(vec![column]))
    };
    let ints = |f: &dyn Fn(i64) -> i64| {
        Chunk::new(vec![ColumnVector::from_i64((0..n as i64).map(f).collect())])
    };
    Ok(vec![
        // Monotonic ids: FOR bitpacking's best case.
        ("sorted_ints", ints(&|i| i)),
        // Long runs: RLE's best case.
        ("runny_ints", ints(&|i| i / 1024)),
        // Low-cardinality strings: dictionary encoding's best case.
        ("dict_strings", strings(&|i| format!("tag-{}", i % 97))?),
        // Unique strings: the incompressible worst case (plain encoding).
        (
            "unique_strings",
            strings(&|i| format!("row-{i:08}-{:016x}", (i as u64) * 0x9E3779B9))?,
        ),
    ])
}

/// Raw throughput of [`encode_segment`] per data shape — the dominant
/// cost of a full checkpoint — with the compression ratio each shape
/// achieves on a `checkpoint-report: encode` line.
pub fn segment_encode() -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for (shape, chunk) in shapes()? {
        let raw = chunk.heap_bytes();
        let encoded = encode_segment(1, &chunk)?.len();
        println!(
            "checkpoint-report: encode shape={shape} rows={} raw_kb={} disk_kb={} ratio_pct={}",
            chunk.len(),
            raw / 1024,
            encoded / 1024,
            raw * 100 / encoded
        );
        let (t, _) = time(|| encode_segment(1, &chunk))?;
        out.push(point("encode_segment", shape, t));
    }
    Ok(out)
}

/// Insert `row(k)` for every key of `keys` into `table`, a thousand rows
/// a statement (one wide commit per 1k rows keeps setup fast).
fn load(
    db: &Database,
    table: &str,
    keys: std::ops::Range<usize>,
    row: &dyn Fn(usize) -> String,
) -> Result<()> {
    for from in keys.clone().step_by(1000) {
        let values: Vec<String> = (from..(from + 1000).min(keys.end)).map(row).collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", values.join(",")))?;
    }
    Ok(())
}

fn report_phase(phase: &str, stats: &CheckpointStats) {
    let ratio = (stats.sealed_raw_bytes * 100)
        .checked_div(stats.segment_bytes)
        .map_or_else(|| "-".into(), |r| r.to_string());
    println!(
        "checkpoint-report: phase={phase:<9} segments={} disk_kb={} ratio_pct={ratio} ms={}",
        stats.segments_sealed,
        stats.segment_bytes / 1024,
        stats.duration_ms
    );
}

/// Full against incremental checkpoints. The first checkpoint of a table
/// seals everything, the second after a 100-row delta seals one segment, a
/// third seals none: reported on `checkpoint-report: phase=` lines and
/// asserted, not assumed. Then the steady-state costs a live system pays
/// repeatedly, timed: ten delta checkpoints, a hundred no-op ones.
pub fn checkpoint(scale: f64) -> Result<Vec<Measurement>> {
    // More than one segment, whatever the scale.
    let rows = sized(100_000, scale).max(SEGMENT_ROWS + 1);
    let db = open(ReplRole::Primary)?;
    db.execute("CREATE TABLE big (id BIGINT, v BIGINT, name VARCHAR)")?;
    // The workload the storage integration tests seal.
    let row = |k: usize| format!("({k}, {}, 'name-{}')", k * 2, k % 97);
    let grow = |from: usize, by: usize| load(&db, "big", from..from + by, &row);
    grow(0, rows)?;

    let full = db.checkpoint()?;
    assert!(full.segments_sealed > 1, "full checkpoint sealed nothing");
    report_phase("full", &full);

    grow(rows, 100)?;
    let delta = db.checkpoint()?;
    assert_eq!(delta.segments_sealed, 1, "delta resealed the world");
    assert!(
        delta.segment_bytes * 10 < full.segment_bytes,
        "incremental checkpoint not incremental: {} vs {} bytes",
        delta.segment_bytes,
        full.segment_bytes
    );
    report_phase("delta100", &delta);

    let noop = db.checkpoint()?;
    assert_eq!(noop.segments_sealed, 0, "noop checkpoint sealed data");
    report_phase("noop", &noop);

    // Every delta iteration grows the table by 100 rows and seals exactly
    // those, which is the invariant being timed.
    let (deltas, ()) = time(|| {
        for i in 1..=10 {
            grow(rows + i * 100, 100)?;
            assert_eq!(db.checkpoint()?.segments_sealed, 1);
        }
        Ok(())
    })?;
    let (noops, ()) = time(|| {
        for _ in 0..100 {
            assert_eq!(db.checkpoint()?.segments_sealed, 0);
        }
        Ok(())
    })?;
    Ok(vec![
        point("incremental_delta100 x10", rows, deltas),
        point("noop x100", rows, noops),
    ])
}

/// Stream apply: a fresh replica replaying a primary's WAL of N
/// single-row commits frame by frame through the redo path (CRC
/// re-verify, local fsync, table apply), which bounds how quickly a
/// replica closes a replication lag of N commits. No network: both sides
/// run on in-memory [`FaultVfs`] files, so this is the storage/apply cost
/// a wire transport is layered on.
pub fn repl_stream_apply(scale: f64) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for commits in [sized(200, scale), sized(1_000, scale)] {
        let primary = open(ReplRole::Primary)?;
        primary.execute("CREATE TABLE t (x BIGINT, s VARCHAR)")?;
        for i in 0..commits {
            primary.execute(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"))?;
        }
        let durability = primary.durability().expect("durable");
        // Never checkpointed, so the WAL is complete from LSN 1 and no
        // snapshot is needed.
        let (t, applied) = time(|| {
            let replica = open(ReplRole::Replica)?;
            let gate = replica.catalog().writer_gate();
            let (mut cursor, mut applied) = (1u64, 0usize);
            loop {
                let tail = durability.read_replication_tail(cursor, 64)?;
                let ReplTail::Frames { frames, .. } = tail else {
                    panic!("unexpected tail state");
                };
                if frames.is_empty() {
                    return Ok(applied);
                }
                let _g = gate.lock();
                for f in frames {
                    replica
                        .durability()
                        .expect("durable")
                        .apply_replicated_frame(replica.catalog(), f.lsn, f.crc, &f.payload)?;
                    cursor = f.lsn + 1;
                    applied += 1;
                }
            }
        })?;
        assert!(applied >= commits, "replayed {applied} of {commits}");
        out.push(point("stream_apply", commits, t));
    }
    Ok(out)
}

/// Bootstrap install: snapshot encode on the primary plus the replica's
/// whole-state install, which bounds failover re-seeding and the
/// epoch-fence re-bootstrap after a primary restart. The image carries
/// sealed segment files, so its size reflects segment compression, not raw
/// heap bytes: a `bootstrap-report:` line per size.
pub fn repl_bootstrap_install(scale: f64) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for rows in [sized(10_000, scale), sized(100_000, scale)] {
        // The snapshot cost depends on row volume, not commit count.
        let primary = open(ReplRole::Primary)?;
        primary.execute("CREATE TABLE t (x BIGINT, s VARCHAR)")?;
        load(&primary, "t", 0..rows, &|i| format!("({i}, 'row-{i}')"))?;
        let durability = primary.durability().expect("durable");
        let (_, image) = durability.bootstrap_snapshot(primary.catalog())?;
        let logical: u64 = primary
            .catalog()
            .table_names()
            .iter()
            .filter_map(|n| primary.catalog().get_table(n).ok())
            .map(|t| t.read().segment_storage().3)
            .sum();
        println!(
            "bootstrap-report: rows={rows} bundle_kb={} sealed_raw_kb={} ratio_pct={}",
            image.len() / 1024,
            logical / 1024,
            logical * 100 / image.len().max(1) as u64
        );
        let (t, _replica) = time(|| {
            let (_, image) = durability.bootstrap_snapshot(primary.catalog())?;
            let replica = open(ReplRole::Replica)?;
            {
                let _g = replica.catalog().writer_gate().lock();
                replica.durability().expect("durable").install_bootstrap(
                    replica.catalog(),
                    1,
                    &image,
                )?;
            }
            Ok(replica)
        })?;
        out.push(point("bootstrap_install", rows, t));
    }
    Ok(out)
}
