//! `wire.rw`: reads beside writes on one table, over the wire against a
//! durable database — snapshots, the writer gate, the commit lock and
//! checkpoints interacting. One connection reads in a closed loop; one
//! writes in an open loop at a fixed rate, so the table grows identically
//! on every commit under test and reader medians stay comparable.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{Event, Fingerprint};
use crate::layers::{self, Database, HyliteClient, Res, ServerHandle};
use crate::queries;
use crate::report::{Acc, KindReport, Metric, Tally, TraceReport, WorkloadReport};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::durable_write::{create_tables, trace_write, Ledger};
use crate::workloads::wire_read::{server_means, trace_wire_query};
use crate::workloads::{fresh_dir, repeated_setup, RunCfg};

const PRELOADED_ROWS: usize = 200_000;
/// Commits per second the writer is due to send.
const WRITE_RATE: f64 = 500.0;
/// The writer thread calls `Database::checkpoint()` this often.
const CHECKPOINT_EVERY_S: f64 = 2.0;
const LOAD_CHUNK_ROWS: usize = 64 * 1024;

const READER_KINDS: [&str; 2] = ["filter_agg", "group_agg"];

/// Fields drop in this order: connections, then the server, then the
/// database.
struct Served {
    reader: HyliteClient,
    writer: HyliteClient,
    _server: ServerHandle,
    db: Arc<Database>,
}

/// Create the tables, load `rows` events without going through the WAL,
/// checkpoint them into segments, and serve the database.
fn set_up(cfg: &RunCfg, rows: usize, rep: usize) -> Res<Served> {
    let dir = fresh_dir(cfg, &format!("wire.rw-{rep}"))?;
    let db = Arc::new(layers::open_durable(&dir, None)?);
    create_tables(&db)?;
    let chunks = (0..rows)
        .step_by(LOAD_CHUNK_ROWS)
        .map(|from| {
            let events =
                (from..(from + LOAD_CHUNK_ROWS).min(rows)).map(|id| Event { id: id as i64 });
            layers::chunk(vec![
                layers::int_column(events.clone().map(|e| e.id).collect()),
                layers::int_column(events.clone().map(Event::acct).collect()),
                layers::int_column(events.clone().map(Event::amount).collect()),
                layers::float_column(events.clone().map(Event::score).collect()),
                layers::text_column(events.map(Event::note).collect()),
            ])
        })
        .collect();
    layers::load_table(&db, "events", chunks)?;
    layers::checkpoint(&db)?;
    let server = layers::start_server(Arc::clone(&db))?;
    Ok(Served {
        reader: layers::connect(&server)?,
        writer: layers::connect(&server)?,
        _server: server,
        db,
    })
}

fn reader_sql() -> [String; 2] {
    [
        queries::events_filter_agg(),
        queries::EVENTS_GROUP_AGG.to_string(),
    ]
}

/// Rows the statement saw: `count(*)` of `filter_agg` (half the accounts,
/// so half the rows), summed `count(*)` of `group_agg`.
fn rows_seen(kind: usize, result: &layers::RemoteResult) -> Option<i64> {
    let column = if kind == 0 { 0 } else { 1 };
    let mut total = 0;
    for chunk in &result.chunks {
        total += chunk.column(column).as_i64().ok()?.iter().sum::<i64>();
    }
    Some(total)
}

struct ReaderRun {
    latencies_ms: Vec<Vec<f64>>,
    tally: Tally,
}

/// Closed loop until `stop`. The writer only adds rows, so the row count
/// a kind sees may never shrink, never fall below the preloaded rows, and
/// never exceed what the writer has sent.
fn reader_loop(
    client: &mut HyliteClient,
    preloaded: i64,
    sent: &AtomicI64,
    stop: &AtomicBool,
) -> ReaderRun {
    let sql = reader_sql();
    let mut run = ReaderRun {
        latencies_ms: vec![Vec::new(); READER_KINDS.len()],
        tally: Tally::default(),
    };
    // filter_agg sees the events of half the accounts: floor at half.
    let floors = [preloaded / 2, preloaded];
    let mut last_seen = floors;
    while !stop.load(Ordering::Acquire) {
        for (kind, text) in sql.iter().enumerate() {
            let t = Instant::now();
            let result = layers::query(client, text);
            run.latencies_ms[kind].push(t.elapsed().as_secs_f64() * 1e3);
            let ceiling = preloaded + sent.load(Ordering::Acquire);
            run.tally
                .record(match result.as_ref().map(|r| rows_seen(kind, r)) {
                    Err(e) => Err(format!("{}: {e}", READER_KINDS[kind])),
                    Ok(None) => Err(format!("{}: unexpected result shape", READER_KINDS[kind])),
                    Ok(Some(seen)) if seen < last_seen[kind] || seen > ceiling => Err(format!(
                        "{}: saw {seen} rows, outside [{}, {ceiling}]",
                        READER_KINDS[kind], last_seen[kind]
                    )),
                    Ok(Some(seen)) => {
                        last_seen[kind] = seen;
                        Ok(())
                    }
                });
        }
    }
    run
}

struct WriterRun {
    /// From the due time to the acknowledgement.
    latencies_ms: Vec<f64>,
    /// How long after its due time each insert was sent.
    lateness_ms: Vec<f64>,
    checkpoints_ms: Vec<f64>,
    acked: std::ops::Range<i64>,
    tally: Tally,
}

/// Open loop: insert `i` is due at `i / WRITE_RATE` seconds. A stall — a
/// slow commit, a checkpoint on this thread — delays the inserts behind
/// it, and their latency counts from when they were due.
fn writer_loop(
    client: &mut HyliteClient,
    db: &Database,
    first_id: i64,
    seconds: f64,
    sent: &AtomicI64,
) -> WriterRun {
    let mut run = WriterRun {
        latencies_ms: Vec::new(),
        lateness_ms: Vec::new(),
        checkpoints_ms: Vec::new(),
        acked: first_id..first_id,
        tally: Tally::default(),
    };
    let started = Instant::now();
    let mut next_checkpoint_s = CHECKPOINT_EVERY_S;
    for i in 0.. {
        let due_s = stats::due_s(i, WRITE_RATE);
        if due_s >= seconds {
            break;
        }
        let now_s = started.elapsed().as_secs_f64();
        if now_s < due_s {
            std::thread::sleep(Duration::from_secs_f64(due_s - now_s));
        }
        let id = first_id + i as i64;
        let sql = queries::insert_events(id..id + 1);
        sent.fetch_add(1, Ordering::AcqRel);
        let sent_s = started.elapsed().as_secs_f64();
        let outcome = layers::query(client, &sql);
        let (latency_s, lateness_s) =
            stats::open_loop(due_s, sent_s, started.elapsed().as_secs_f64());
        run.latencies_ms.push(latency_s * 1e3);
        run.lateness_ms.push(lateness_s * 1e3);
        if outcome.is_ok() && run.acked.end == id {
            run.acked.end = id + 1;
        }
        run.tally.record(outcome.map(|_| ()));
        if started.elapsed().as_secs_f64() >= next_checkpoint_s {
            next_checkpoint_s += CHECKPOINT_EVERY_S;
            let t = Instant::now();
            let outcome = layers::checkpoint(db);
            run.checkpoints_ms.push(t.elapsed().as_secs_f64() * 1e3);
            run.tally.record(outcome.map(|_| ()));
        }
    }
    run
}

pub fn run(cfg: &RunCfg) -> Res<WorkloadReport> {
    let rows = cfg.size(PRELOADED_ROWS);
    let (mut served, setup_s) = repeated_setup(|rep| set_up(cfg, rows, rep))?;
    let mut fp = Fingerprint::new();
    reader_sql().iter().for_each(|s| fp.str(s));
    fp.str(&queries::insert_events(0..1));
    (0..rows as i64).for_each(|id| {
        let e = Event { id };
        fp.i64s(&[e.id, e.acct(), e.amount()]);
        fp.f64s(&[e.score()]);
        fp.str(&e.note());
    });

    // The ledger holds what was preloaded and what gets acknowledged.
    let mut ledger = Ledger::opening();
    ledger.credit_events(0..rows as i64);
    let mut tally = Tally::default();
    let db = Arc::clone(&served.db);

    // Warm-up: each reader kind once, and the preloaded table against the
    // ledger.
    for (kind, sql) in reader_sql().iter().enumerate() {
        let result = layers::query(&mut served.reader, sql);
        let want = if kind == 0 {
            rows as i64 / 2
        } else {
            rows as i64
        };
        tally.record(match result.as_ref().map(|r| rows_seen(kind, r)) {
            Ok(Some(seen)) if seen == want => Ok(()),
            Ok(other) => Err(format!(
                "{}: warm-up saw {other:?} rows, want {want}",
                READER_KINDS[kind]
            )),
            Err(e) => Err(e.clone()),
        });
    }
    tally.record(match ledger.lost_in(&db) {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!("preloaded table is off the ledger by {n}")),
        Err(e) => Err(e),
    });

    let mut report = WorkloadReport::new("wire.rw", fp.finish(), setup_s, "reads_per_s");
    report.sizes = vec![
        ("preloaded_rows", rows as f64),
        ("write_rate_per_s", WRITE_RATE),
        ("checkpoint_every_s", CHECKPOINT_EVERY_S),
        ("connections", 2.0),
    ];

    let seconds = if cfg.trace {
        cfg.seconds * 0.25
    } else {
        cfg.seconds
    };
    let sent = AtomicI64::new(0);
    let stop = AtomicBool::new(false);
    let Served { reader, writer, .. } = &mut served;
    let (reader_run, writer_run) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| reader_loop(reader, rows as i64, &sent, &stop));
        let writing = scope.spawn(|| writer_loop(writer, &db, rows as i64, seconds, &sent));
        let written = writing.join();
        stop.store(true, Ordering::Release);
        (reading.join(), written)
    });
    let reader_run = reader_run.map_err(|_| "the reader thread panicked".to_string())?;
    let writer_run = writer_run.map_err(|_| "the writer thread panicked".to_string())?;

    // Every acknowledged insert must be there, and nothing else.
    ledger.credit_events(writer_run.acked.clone());
    tally.record(match ledger.lost_in(&db) {
        Ok(0) => Ok(()),
        Ok(n) => Err(format!(
            "{n} acknowledged inserts missing or wrong after the run"
        )),
        Err(e) => Err(e),
    });

    let reads: usize = reader_run.latencies_ms.iter().map(Vec::len).sum();
    let read_busy_s = reader_run.latencies_ms.iter().flatten().sum::<f64>() / 1e3;
    report.work_per_s = reads as f64 / read_busy_s;
    for (kind, latencies) in READER_KINDS.iter().zip(&reader_run.latencies_ms) {
        report
            .kinds
            .extend(KindReport::from_ms(kind, latencies.clone(), true));
    }
    let writes = writer_run.latencies_ms.len() as u64;
    report.kinds.extend(KindReport::from_ms(
        "insert1",
        writer_run.latencies_ms,
        true,
    ));
    report.kinds.extend(KindReport::from_ms(
        "checkpoint",
        writer_run.checkpoints_ms,
        false,
    ));
    let lateness = stats::sorted(writer_run.lateness_ms);
    report.extras = vec![
        Metric::new(
            "writer_lateness_p50_ms",
            "ms",
            stats::median(&lateness),
            writes,
        ),
        Metric::new(
            "writer_lateness_max_ms",
            "ms",
            lateness[lateness.len() - 1],
            writes,
        ),
        Metric::new(
            "writes_acked",
            "count",
            (writer_run.acked.end - writer_run.acked.start) as f64,
            writes,
        ),
    ];
    tally.merge(reader_run.tally);
    tally.merge(writer_run.tally);

    if cfg.trace {
        let first_id = rows as i64 + writes as i64;
        traced(cfg, &mut served, first_id, &mut report, &mut tally)?;
    }
    report.tally = tally;
    layers::close(&served.db)?;
    Ok(report)
}

const TRACED_CYCLES: usize = 5;

/// The traced run, one statement at a time on one connection, so that WAL
/// bytes and fsyncs per commit are exact: each reader statement over the
/// wire and then embedded phase by phase; each insert over the wire and
/// then embedded with its phases measured beside it.
fn traced(
    cfg: &RunCfg,
    served: &mut Served,
    first_id: i64,
    report: &mut WorkloadReport,
    tally: &mut Tally,
) -> Res<()> {
    let db: &Database = &served.db;
    let client = &mut served.writer;
    let kinds = ["filter_agg", "group_agg", "insert1"];
    let mut tracer = Tracer::new();
    let mut per_kind = vec![Acc::default(); kinds.len()];
    let mut stmt = 0u32;
    let mut next_id = first_id;
    let before = layers::counters(db);
    let started = Instant::now();
    for _ in 0..TRACED_CYCLES {
        for (kind, sql) in reader_sql().iter().enumerate() {
            stmt += 1;
            let (sample, result) = trace_wire_query(client, db, &mut tracer, stmt, sql)?;
            tally.record(result.map(|_| ()));
            per_kind[kind].add(&sample);
        }
        // One insert over the wire, one embedded; both are commits.
        stmt += 1;
        let wire_span = tracer.open("statement.wire", None, stmt);
        let result = layers::query(client, &queries::insert_events(next_id..next_id + 1));
        let wire_us = tracer.close(wire_span);
        tally.record(result.map(|_| ()));
        let mut sample = trace_write(
            db,
            &mut tracer,
            stmt,
            &queries::insert_events(next_id + 1..next_id + 2),
        )?;
        sample.push(("roundtrip_overhead_us", wire_us - sample[0].1));
        per_kind[2].add(&sample);
        next_id += 2;
        if started.elapsed().as_secs_f64() >= cfg.seconds * 0.5 {
            break;
        }
    }
    let after = layers::counters(db);
    let names_and_accs: Vec<(&str, &Acc)> = kinds.iter().copied().zip(&per_kind).collect();
    // No trace_overhead_ratio: the paced box has no untraced twin of these
    // one-at-a-time statements to compare with.
    report.trace = Some(TraceReport::build(
        &names_and_accs,
        &layers::wal_deltas(&before, &after),
        server_means(&before, &after),
        &tracer,
    ));
    Ok(())
}
