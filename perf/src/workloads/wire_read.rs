//! `wire.read`: short read statements over the wire protocol against an
//! in-process server and an in-memory database — two connections, closed
//! loop. Fixed per-statement cost (parse, plan, frame, socket) is a visible
//! share here: `tiny` is all overhead, `fetch` is all encode/socket/decode.

use std::sync::Arc;
use std::time::Instant;

use crate::check::Digest;
use crate::gen::{Fingerprint, Rng};
use crate::layers::{self, Database, HyliteClient, Res, ServerHandle};
use crate::queries;
use crate::report::{Acc, KindReport, Sample, Tally, TraceReport, WorkloadReport};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::embedded;
use crate::workloads::relational::Tables;
use crate::workloads::{repeated_setup, RunCfg};

const ROWS: usize = 200_000;
const DIM_ROWS: usize = 1_000;
const FETCH_ROWS: usize = 50_000;
/// At most `nproc` on the two-core reference sandbox.
const CLIENTS: usize = 2;

const KINDS: [&str; 7] = [
    "tiny",
    "point",
    "filter_agg",
    "group_agg",
    "join_agg",
    "topk",
    "fetch",
];

/// Fields drop in this order: connections close before the server stops,
/// and dropping the server's handle stops it and joins its threads.
struct Served {
    clients: Vec<HyliteClient>,
    _server: ServerHandle,
    db: Arc<Database>,
    tables: Tables,
}

fn set_up(cfg: &RunCfg, rows: usize) -> Res<Served> {
    let tables = Tables::generate(rows, DIM_ROWS, cfg.seed);
    let db = Arc::new(layers::open_memory());
    tables.load(&db)?;
    let server = layers::start_server(Arc::clone(&db))?;
    let clients = (0..CLIENTS)
        .map(|_| layers::connect(&server))
        .collect::<Res<_>>()?;
    Ok(Served {
        db,
        _server: server,
        clients,
        tables,
    })
}

/// The statements with fixed text, and their recomputed answers; `point`
/// draws a fresh id per statement.
struct Fixed {
    sql: Vec<Option<String>>,
    want: Vec<Option<Digest>>,
}

fn fixed(tables: &Tables, fetch_rows: usize) -> Fixed {
    let mut sql = Vec::new();
    let mut want = Vec::new();
    for kind in KINDS {
        let (s, w) = match kind {
            "tiny" => {
                let mut one = Digest::with_rows(1);
                one.add_int(1);
                (queries::TINY.to_string(), one)
            }
            "filter_agg" => (queries::filter_agg(DIM_ROWS), tables.filter_agg()),
            "group_agg" => (queries::GROUP_AGG.to_string(), tables.group_agg()),
            "join_agg" => (queries::join_agg(), tables.join_agg()),
            "topk" => (queries::topk(), tables.topk()),
            "fetch" => (queries::fetch(fetch_rows), tables.fetch(fetch_rows)),
            _ => {
                sql.push(None);
                want.push(None);
                continue;
            }
        };
        sql.push(Some(s));
        want.push(Some(w));
    }
    Fixed { sql, want }
}

/// Text and expected answer of statement kind `i`, drawing the id of a
/// `point` from `rng`.
fn statement(
    fixed: &Fixed,
    expected: &[Option<Digest>],
    tables: &Tables,
    rng: &mut Rng,
    i: usize,
) -> (String, Digest) {
    match (&fixed.sql[i], expected[i]) {
        (Some(sql), Some(want)) => (sql.clone(), want),
        _ => {
            let id = rng.below(tables.data.rows() as u64) as i64;
            (queries::point(id), tables.point(id))
        }
    }
}

fn check(kind: &str, result: &Res<layers::RemoteResult>, want: &Digest) -> Result<(), String> {
    match result {
        Err(e) => Err(format!("{kind}: {e}")),
        Ok(r) => {
            let got = Digest::of(&r.chunks);
            if got.matches(want) {
                Ok(())
            } else {
                Err(format!(
                    "{kind}: answer {} differs from expected {}",
                    got.describe(),
                    want.describe()
                ))
            }
        }
    }
}

/// One client's closed loop: whole cycles, starting at a kind of its own
/// so the connections do not run in lockstep.
struct ClientRun {
    latencies_ms: Vec<Vec<f64>>,
    tally: Tally,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut HyliteClient,
    index: usize,
    fixed: &Fixed,
    expected: &[Option<Digest>],
    tables: &Tables,
    seed: u64,
    seconds: f64,
    max_cycles: usize,
) -> ClientRun {
    let mut rng = Rng::new(seed, 10 + index as u64);
    let mut run = ClientRun {
        latencies_ms: vec![Vec::new(); KINDS.len()],
        tally: Tally::default(),
    };
    let offset = index * KINDS.len() / CLIENTS;
    let started = Instant::now();
    for _ in 0..max_cycles {
        for step in 0..KINDS.len() {
            let i = (step + offset) % KINDS.len();
            let (sql, want) = statement(fixed, expected, tables, &mut rng, i);
            let t = Instant::now();
            let result = layers::query(client, &sql);
            run.latencies_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            run.tally.record(check(KINDS[i], &result, &want));
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    run
}

pub fn run(cfg: &RunCfg) -> Res<WorkloadReport> {
    let rows = cfg.size(ROWS);
    let fetch_rows = cfg.size(FETCH_ROWS);
    let (mut served, setup_s) = repeated_setup(|_| set_up(cfg, rows))?;
    let fixed = fixed(&served.tables, fetch_rows);
    let mut fp = Fingerprint::new();
    fixed.sql.iter().flatten().for_each(|s| fp.str(s));
    fp.str(&queries::point(0));
    served.tables.fingerprint(&mut fp);

    // Warm-up over the first connection: every fixed answer against its
    // recomputation; timed answers are then compared with the warm-up's.
    let mut tally = Tally::default();
    let mut expected = fixed.want.clone();
    for (i, kind) in KINDS.iter().enumerate() {
        let Some(sql) = &fixed.sql[i] else { continue };
        let result = layers::query(&mut served.clients[0], sql);
        tally.record(check(
            kind,
            &result,
            &fixed.want[i].expect("fixed kinds have answers"),
        ));
        if let Ok(r) = &result {
            expected[i] = Some(Digest::of(&r.chunks));
        }
    }

    let mut report = WorkloadReport::new("wire.read", fp.finish(), setup_s, "stmts_per_s");
    report.sizes = vec![
        ("rows", rows as f64),
        ("dim_rows", DIM_ROWS as f64),
        ("fetch_rows", fetch_rows as f64),
        ("connections", CLIENTS as f64),
    ];

    let runs: Vec<ClientRun> = if cfg.trace {
        vec![traced(
            cfg,
            &mut served,
            &fixed,
            &expected,
            &mut report,
            &mut tally,
        )?]
    } else {
        let tables = &served.tables;
        let (fixed, expected) = (&fixed, &expected);
        std::thread::scope(|scope| {
            let handles: Vec<_> = served
                .clients
                .iter_mut()
                .enumerate()
                .map(|(index, client)| {
                    scope.spawn(move || {
                        client_loop(
                            client,
                            index,
                            fixed,
                            expected,
                            tables,
                            cfg.seed,
                            cfg.seconds,
                            usize::MAX,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
                .collect::<Res<Vec<_>>>()
        })?
    };

    // Statements per second of client busy time, summed over connections.
    let mut merged = vec![Vec::new(); KINDS.len()];
    for run in runs {
        let statements: usize = run.latencies_ms.iter().map(Vec::len).sum();
        let busy_s: f64 = run.latencies_ms.iter().flatten().sum::<f64>() / 1e3;
        report.work_per_s += statements as f64 / busy_s;
        for (all, mine) in merged.iter_mut().zip(run.latencies_ms) {
            all.extend(mine);
        }
        tally.merge(run.tally);
    }
    report.kinds = KINDS
        .iter()
        .zip(merged)
        .filter_map(|(k, l)| KindReport::from_ms(k, l, true))
        .collect();
    report.tally = tally;
    Ok(report)
}

const REFERENCE_CYCLES: usize = 3;
const TRACED_CYCLES: usize = 5;

/// The traced run, on one connection: each statement goes over the wire,
/// then embedded on the same database phase by phase, then its result is
/// encoded to frames and decoded again by the harness.
fn traced(
    cfg: &RunCfg,
    served: &mut Served,
    fixed: &Fixed,
    expected: &[Option<Digest>],
    report: &mut WorkloadReport,
    tally: &mut Tally,
) -> Res<ClientRun> {
    let client = &mut served.clients[0];
    let reference = client_loop(
        client,
        0,
        fixed,
        expected,
        &served.tables,
        cfg.seed,
        cfg.seconds * 0.25,
        REFERENCE_CYCLES,
    );

    let db: &Database = &served.db;
    let mut rng = Rng::new(cfg.seed, 20);
    let mut tracer = Tracer::new();
    let mut per_kind = vec![Acc::default(); KINDS.len()];
    let mut wire_ms = vec![Vec::new(); KINDS.len()];
    let mut stmt = 0u32;
    let server_before = layers::counters(db);
    let started = Instant::now();
    for _ in 0..TRACED_CYCLES {
        for (i, kind) in KINDS.iter().enumerate() {
            stmt += 1;
            let (sql, want) = statement(fixed, expected, &served.tables, &mut rng, i);
            let (sample, result) = trace_wire_query(client, db, &mut tracer, stmt, &sql)?;
            tally.record(check(kind, &result, &want));
            wire_ms[i].push(embedded::value(&sample, "wire_us") / 1e3);
            per_kind[i].add(&sample);
        }
        if started.elapsed().as_secs_f64() >= cfg.seconds * 0.75 {
            break;
        }
    }
    let mut direct = server_means(&server_before, &layers::counters(db));
    direct.push((
        "trace_overhead_ratio",
        stats::median_ratio(&wire_ms, &reference.latencies_ms),
        u64::from(stmt),
    ));
    let names_and_accs: Vec<(&str, &Acc)> = KINDS.iter().copied().zip(&per_kind).collect();
    report.trace = Some(TraceReport::build(&names_and_accs, &[], direct, &tracer));
    Ok(reference)
}

/// One read statement over the wire, then embedded on the same database
/// phase by phase, then its result encoded to frames and decoded again by
/// the harness. `roundtrip_overhead_us` is wire minus embedded latency.
pub fn trace_wire_query(
    client: &mut HyliteClient,
    db: &Database,
    tracer: &mut Tracer,
    stmt: u32,
    sql: &str,
) -> Res<(Sample, Res<layers::RemoteResult>)> {
    let wire_span = tracer.open("statement.wire", None, stmt);
    let result = layers::query(client, sql);
    let wire_us = tracer.close(wire_span);

    let (mut sample, executed) = embedded::trace_query(db, tracer, stmt, sql, &[])?;
    let (frames, encode_us) = tracer.beside("wire.encode", wire_span, stmt, || {
        layers::encode_result(&executed.schema, &executed.chunks)
    });
    let (decoded, decode_us) = tracer.beside("wire.decode", wire_span, stmt, || {
        layers::decode_result(&frames)
    });
    sample.extend([
        ("wire_us", wire_us),
        (
            "roundtrip_overhead_us",
            wire_us - embedded::value(&sample, "plain_us"),
        ),
        ("encode_us", encode_us),
        ("decode_us", decode_us),
        (
            "wire_bytes",
            frames.iter().map(Vec::len).sum::<usize>() as f64,
        ),
        ("wire_rows", decoded? as f64),
    ]);
    Ok((sample, result))
}

/// The server's own view of the traced statements: mean admission wait and
/// mean statement time from its registry histograms.
pub fn server_means(
    before: &layers::MetricsSnapshot,
    after: &layers::MetricsSnapshot,
) -> Vec<(&'static str, f64, u64)> {
    let (queue_wait_us, queued) = layers::histogram_mean(before, after, "server.queue_wait_us");
    let (statement_us, statements) = layers::histogram_mean(before, after, "server.statement_us");
    vec![
        ("server_queue_wait_us", queue_wait_us, queued),
        ("server_statement_us", statement_us, statements),
    ]
}
