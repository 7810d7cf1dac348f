//! `durable.write`: the write side — `core`'s commit path and `storage`'s
//! WAL, checkpoint and segment encoder — on a durable database with
//! `SyncMode::Commit`, one client, no timers, so byte, fsync and segment
//! counts per operation repeat exactly.
//!
//! The timed database lives on the in-memory `FaultVfs`. On the sandbox's
//! disk the cost of an fsync moves between 0.05 and 0.11 ms from one
//! minute to the next, which swung every latency here by a sixth between
//! runs of the same code; what a flush costs is the device's property, how
//! many flushes and bytes a commit needs is the program's, and the latter
//! is counted exactly. The real file system is still exercised, after the
//! box, by a fixed replay of the stream's start (`real_fs_*` numbers).
//!
//! Operations come in seeded rounds of a fixed mix; the box ends at the
//! first round boundary after `--seconds`. After the box, two durability
//! checks: power is cut inside the next commit of the timed database
//! (every unsynced byte of every file is discarded), and the replay on the
//! real file system is dropped without `close()` (the process dies, the OS
//! cache survives). Either way every acknowledged commit must be there.

use std::path::Path;
use std::time::Instant;

use crate::gen::{Event, Fingerprint, Rng, ACCOUNTS, OPENING_BALANCE};
use crate::layers::{self, Bound, Database, Res};
use crate::queries;
use crate::report::{Acc, KindReport, Metric, Sample, Tally, TraceReport, WorkloadReport};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{dir_bytes, fresh_dir, repeated_setup, RunCfg};

/// One round: 70 % one-row inserts, 10 % 200-row inserts, 10 %
/// transactions, 5 % updates, 5 % delete-and-reinsert, shuffled.
const ROUND: [(OpKind, usize); 5] = [
    (OpKind::Insert1, 700),
    (OpKind::InsertBatch, 100),
    (OpKind::Txn, 100),
    (OpKind::Update, 50),
    (OpKind::Delete, 50),
];
const BATCH_ROWS: i64 = 200;
const TXN_INSERTS: i64 = 4;
/// `Database::checkpoint()` after this many rounds (5,000 operations).
const CHECKPOINT_EVERY_ROUNDS: usize = 5;
/// Operations replayed on the real file system.
const REAL_FS_OPS: usize = 2_000;
/// Bytes of user data in a row of `acct(id, balance)`.
const ACCT_USER_BYTES: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert1,
    InsertBatch,
    Txn,
    Update,
    Delete,
}

impl OpKind {
    /// Position in [`ROUND`], which orders the per-kind tables.
    fn slot(self) -> usize {
        ROUND
            .iter()
            .position(|(kind, _)| *kind == self)
            .expect("ROUND lists every kind")
    }

    fn name(self) -> &'static str {
        match self {
            OpKind::Insert1 => "insert1",
            OpKind::InsertBatch => "insert_batch",
            OpKind::Txn => "txn",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Op {
    kind: OpKind,
    /// First event id the operation inserts.
    first_id: i64,
    /// The account an update, delete or transaction touches.
    acct: i64,
}

impl Op {
    fn events(&self) -> std::ops::Range<i64> {
        let n = match self.kind {
            OpKind::Insert1 => 1,
            OpKind::InsertBatch => BATCH_ROWS,
            OpKind::Txn => TXN_INSERTS,
            OpKind::Update | OpKind::Delete => 0,
        };
        self.first_id..self.first_id + n
    }

    fn statements(&self) -> Vec<String> {
        match self.kind {
            OpKind::Insert1 | OpKind::InsertBatch => vec![queries::insert_events(self.events())],
            OpKind::Txn => {
                let mut sql = vec![queries::BEGIN.to_string()];
                sql.extend(self.events().map(|id| queries::insert_events(id..id + 1)));
                sql.push(queries::update_balance(self.acct, 1));
                sql.push(queries::COMMIT.to_string());
                sql
            }
            OpKind::Update => vec![queries::update_balance(self.acct, -1)],
            OpKind::Delete => vec![
                queries::delete_account(self.acct),
                queries::insert_accounts(self.acct..self.acct + 1, OPENING_BALANCE),
            ],
        }
    }
}

/// The seeded operation stream.
pub struct OpStream {
    rng: Rng,
    next_id: i64,
}

impl OpStream {
    pub fn new(seed: u64) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 3),
            next_id: 0,
        }
    }

    fn round(&mut self) -> Vec<Op> {
        let mut kinds: Vec<OpKind> = ROUND
            .iter()
            .flat_map(|(kind, n)| std::iter::repeat_n(*kind, *n))
            .collect();
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|kind| {
                let op = Op {
                    kind,
                    first_id: self.next_id,
                    acct: self.rng.below(ACCOUNTS as u64) as i64,
                };
                self.next_id = op.events().end;
                op
            })
            .collect()
    }
}

/// What the acknowledged operations add up to; the database must agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    pub events: i64,
    pub amount: i64,
    balances: Vec<i64>,
    /// Rows written and their user bytes, for the amplification ratios.
    pub rows_written: u64,
    pub user_bytes: u64,
}

impl Ledger {
    pub fn opening() -> Ledger {
        Ledger {
            events: 0,
            amount: 0,
            balances: vec![OPENING_BALANCE; ACCOUNTS as usize],
            rows_written: ACCOUNTS as u64,
            user_bytes: ACCOUNTS as u64 * ACCT_USER_BYTES,
        }
    }

    pub fn credit_events(&mut self, ids: std::ops::Range<i64>) {
        for id in ids {
            self.events += 1;
            self.amount += Event { id }.amount();
            self.rows_written += 1;
            self.user_bytes += Event::USER_BYTES;
        }
    }

    fn credit(&mut self, op: &Op) {
        self.credit_events(op.events());
        let balance = &mut self.balances[op.acct as usize];
        match op.kind {
            OpKind::Txn => *balance += 1,
            OpKind::Update => *balance -= 1,
            OpKind::Delete => *balance = OPENING_BALANCE,
            OpKind::Insert1 | OpKind::InsertBatch => return,
        }
        self.rows_written += 1;
        self.user_bytes += ACCT_USER_BYTES;
    }

    /// Commits the database lost or invented, against this ledger: row
    /// count differences, or 1 where the counts agree but a sum does not.
    pub fn lost_in(&self, db: &Database) -> Res<u64> {
        let pair = |sql: &str| -> Res<(i64, i64)> {
            let result = layers::execute(db, sql)?;
            let cell = |col: usize| -> i64 {
                result
                    .chunks()
                    .first()
                    .and_then(|c| c.column(col).as_i64().ok().map(|v| v[0]))
                    .unwrap_or(0)
            };
            Ok((cell(0), cell(1)))
        };
        let mut lost = 0;
        for ((count, sum), (want_count, want_sum)) in [
            (pair(queries::EVENTS_LEDGER)?, (self.events, self.amount)),
            (
                pair(queries::ACCT_LEDGER)?,
                (ACCOUNTS, self.balances.iter().sum()),
            ),
        ] {
            lost += count.abs_diff(want_count);
            if count == want_count && sum != want_sum {
                lost += 1;
            }
        }
        Ok(lost)
    }
}

pub fn create_tables(db: &Database) -> Res<()> {
    layers::execute(db, queries::CREATE_EVENTS)?;
    layers::execute(db, queries::CREATE_ACCT)?;
    layers::execute(db, &queries::insert_accounts(0..ACCOUNTS, OPENING_BALANCE))?;
    Ok(())
}

/// What a set-up leaves behind: the database with the first round of the
/// stream applied, and the harness's side of it.
struct Loaded {
    fs: layers::PowerLossFs,
    db: Database,
    stream: OpStream,
    ledger: Ledger,
    tally: Tally,
    fingerprint: u32,
}

/// Create the tables and apply the stream's first round (21,100 rows) as
/// initial content: it doubles as the warm-up, and it gives `setup_s`
/// something to measure besides three file creations.
fn set_up(seed: u64) -> Res<Loaded> {
    let fs = layers::PowerLossFs::new();
    let db = fs.open()?;
    create_tables(&db)?;
    let mut stream = OpStream::new(seed);
    let mut ledger = Ledger::opening();
    let mut tally = Tally::default();
    let first = stream.round();
    run_round(&db, &first, &mut ledger, &mut tally, None);
    let mut fp = Fingerprint::new();
    first
        .iter()
        .flat_map(Op::statements)
        .for_each(|sql| fp.str(&sql));
    Ok(Loaded {
        fs,
        db,
        stream,
        ledger,
        tally,
        fingerprint: fp.finish(),
    })
}

/// Run one operation; its latency is that of all its statements.
fn run_op(db: &Database, op: &Op) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let outcome = op
        .statements()
        .iter()
        .try_for_each(|sql| layers::execute(db, sql).map(|_| ()));
    (started.elapsed().as_secs_f64() * 1e3, outcome)
}

struct Timed {
    /// Per operation kind, then checkpoints.
    latencies_ms: Vec<Vec<f64>>,
    checkpoints: Vec<layers::CheckpointStats>,
}

impl Timed {
    fn new() -> Timed {
        Timed {
            latencies_ms: vec![Vec::new(); ROUND.len() + 1],
            checkpoints: Vec::new(),
        }
    }

    fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().flatten().sum::<f64>() / 1e3
    }
}

fn run_round(
    db: &Database,
    ops: &[Op],
    ledger: &mut Ledger,
    tally: &mut Tally,
    mut timed: Option<&mut Timed>,
) {
    for op in ops {
        let (ms, outcome) = run_op(db, op);
        if outcome.is_ok() {
            ledger.credit(op);
        }
        tally.record(outcome.map_err(|e| format!("{}: {e}", op.kind.name())));
        if let Some(t) = timed.as_deref_mut() {
            t.latencies_ms[op.kind.slot()].push(ms);
        }
    }
}

fn timed_checkpoint(db: &Database, tally: &mut Tally, timed: &mut Timed) {
    let started = Instant::now();
    let outcome = layers::checkpoint(db);
    timed.latencies_ms[ROUND.len()].push(started.elapsed().as_secs_f64() * 1e3);
    match outcome {
        Ok(stats) => {
            tally.pass();
            timed.checkpoints.push(stats);
        }
        Err(e) => tally.fail(e),
    }
}

fn check_ledger(db: &Database, ledger: &Ledger, when: &str, tally: &mut Tally) -> u64 {
    match ledger.lost_in(db) {
        Ok(0) => {
            tally.pass();
            0
        }
        Ok(lost) => {
            tally.fail(format!(
                "{when}: {lost} acknowledged commits missing or wrong"
            ));
            lost
        }
        Err(e) => {
            tally.fail(format!("{when}: {e}"));
            1
        }
    }
}

/// Cut power inside the next commit, reboot, recover, and count what the
/// recovered database misses of the acknowledged commits.
fn power_loss_check(
    fs: &layers::PowerLossFs,
    db: Database,
    next_id: i64,
    ledger: &Ledger,
    tally: &mut Tally,
) -> Res<u64> {
    fs.cut_power_at_next_commit();
    // The commit that dies in the crash is never acknowledged.
    let doomed = queries::insert_events(next_id..next_id + 1);
    if layers::execute(&db, &doomed).is_ok() || !fs.lost_power() {
        tally.fail("power loss: the crash did not fire inside the commit".into());
    }
    drop(db);
    fs.reboot();
    let recovered = fs.open()?;
    Ok(check_ledger(&recovered, ledger, "after power loss", tally))
}

/// What the replay on the real file system found.
struct RealFs {
    acked_lost: u64,
    disk_bytes_per_user_byte: f64,
    insert1: Option<KindReport>,
}

/// The first `ops` operations of the same stream on the real file system:
/// dropped without `close()`, reopened, compared with the ledger; then a
/// final checkpoint, and the directory's size against the user bytes.
fn real_fs_replay(dir: &Path, seed: u64, ops: usize, tally: &mut Tally) -> Res<RealFs> {
    let db = layers::open_durable(dir, None)?;
    create_tables(&db)?;
    let mut stream = OpStream::new(seed);
    let mut ledger = Ledger::opening();
    let mut timed = Timed::new();
    let mut done = 0;
    while done < ops {
        let mut round = stream.round();
        round.truncate(ops - done);
        done += round.len();
        run_round(&db, &round, &mut ledger, tally, Some(&mut timed));
    }
    drop(db);
    let reopened = layers::open_durable(dir, None)?;
    let acked_lost = check_ledger(&reopened, &ledger, "after drop without close", tally);
    layers::checkpoint(&reopened)?;
    let disk_bytes = dir_bytes(dir);
    layers::close(&reopened)?;
    Ok(RealFs {
        acked_lost,
        disk_bytes_per_user_byte: disk_bytes as f64 / ledger.user_bytes as f64,
        insert1: KindReport::from_ms(
            "real_fs_insert1",
            std::mem::take(&mut timed.latencies_ms[OpKind::Insert1.slot()]),
            false,
        ),
    })
}

pub fn run(cfg: &RunCfg) -> Res<WorkloadReport> {
    let (loaded, setup_s) = repeated_setup(|_| set_up(cfg.seed))?;
    let Loaded {
        fs,
        db,
        mut stream,
        mut ledger,
        mut tally,
        fingerprint,
    } = loaded;
    // The first round was the warm-up: the database must match the ledger.
    check_ledger(&db, &ledger, "after set-up", &mut tally);
    let (rows_before, user_bytes_before) = (ledger.rows_written, ledger.user_bytes);

    let counters_before = layers::counters(&db);
    let mut timed = Timed::new();
    let mut traced = None;
    let mut rounds = 0;
    let timed_rows;
    if cfg.trace {
        let reference = stream.round();
        run_round(&db, &reference, &mut ledger, &mut tally, Some(&mut timed));
        rounds += 1;
        timed_rows = ledger.rows_written - rows_before;
        traced = Some(traced_rounds(
            &db,
            &mut stream,
            &mut ledger,
            &mut tally,
            &timed,
        )?);
    } else {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < cfg.seconds {
            let ops = stream.round();
            run_round(&db, &ops, &mut ledger, &mut tally, Some(&mut timed));
            rounds += 1;
            if rounds % CHECKPOINT_EVERY_ROUNDS == 0 {
                timed_checkpoint(&db, &mut tally, &mut timed);
            }
        }
        timed_rows = ledger.rows_written - rows_before;
    }
    let counters_after = layers::counters(&db);
    let wal_bytes = layers::wal_deltas(&counters_before, &counters_after)[0].1;
    let wal_per_user = wal_bytes / (ledger.user_bytes - user_bytes_before) as f64;

    // Durability, first model: power loss under the timed database.
    check_ledger(&db, &ledger, "before the power cut", &mut tally);
    let mut acked_lost = power_loss_check(&fs, db, stream.next_id, &ledger, &mut tally)?;
    // Second model, and the space numbers: the real file system.
    let dir = fresh_dir(cfg, "durable.write")?;
    let real_fs = real_fs_replay(&dir, cfg.seed, cfg.size(REAL_FS_OPS), &mut tally)?;
    acked_lost += real_fs.acked_lost;
    let disk_per_user = real_fs.disk_bytes_per_user_byte;

    let round_ops: usize = ROUND.iter().map(|(_, n)| n).sum();
    let operations = (rounds * round_ops) as u64;
    let mut report =
        WorkloadReport::new("durable.write", fingerprint, setup_s, "rows_ingested_per_s");
    report.sizes = vec![
        ("round_ops", round_ops as f64),
        ("batch_rows", BATCH_ROWS as f64),
        ("accounts", ACCOUNTS as f64),
        (
            "checkpoint_every_ops",
            (CHECKPOINT_EVERY_ROUNDS * round_ops) as f64,
        ),
        ("real_fs_ops", cfg.size(REAL_FS_OPS) as f64),
    ];
    report.work_per_s = timed_rows as f64 / timed.busy_s();
    report.kinds = ROUND
        .iter()
        .zip(&timed.latencies_ms)
        .filter_map(|((kind, _), l)| KindReport::from_ms(kind.name(), l.clone(), true))
        .collect();
    // A handful of checkpoints per run: printed, not part of the geomean.
    report.kinds.extend(KindReport::from_ms(
        "checkpoint",
        timed.latencies_ms[ROUND.len()].clone(),
        false,
    ));
    report.kinds.extend(real_fs.insert1);
    report.extras = vec![
        Metric::new("acked_lost", "count", acked_lost as f64, operations),
        Metric::new("wal_bytes_per_user_byte", "ratio", wal_per_user, operations),
        Metric::new(
            "disk_bytes_per_user_byte",
            "ratio",
            disk_per_user,
            operations,
        ),
        Metric::new("rounds", "count", rounds as f64, operations),
        Metric::new(
            "segments_sealed",
            "count",
            timed
                .checkpoints
                .iter()
                .map(|c| c.segments_sealed)
                .sum::<usize>() as f64,
            timed.checkpoints.len() as u64,
        ),
    ];
    report.trace = traced.map(|mut t| {
        // The two ratios are exact counts; they join the per-layer list.
        t.direct.extend([
            ("wal_bytes_per_user_byte", wal_per_user, operations),
            ("disk_bytes_per_user_byte", disk_per_user, operations),
        ]);
        let names_and_accs: Vec<(&str, &Acc)> = ROUND
            .iter()
            .map(|(kind, _)| kind.name())
            .zip(&t.per_kind)
            .collect();
        TraceReport::build(&names_and_accs, &t.workload, t.direct, &t.tracer)
    });
    report.tally = tally;
    Ok(report)
}

/// Rounds of the traced run: a fixed count, so that bytes and fsyncs per
/// commit are the same numbers on every run of the same code.
const TRACED_ROUNDS: usize = 2;

/// What the traced rounds recorded; the report is built once the
/// amplification ratios are known.
struct TracedRounds {
    per_kind: Vec<Acc>,
    /// Counter deltas over the rounds, and the checkpoint after them.
    workload: Sample,
    direct: Vec<(&'static str, f64, u64)>,
    tracer: Tracer,
}

/// Every statement runs as the plain call; its parse, bind, optimize and
/// source-plan execution are then measured beside it, and what is left of
/// the plain call is the commit path (`core` + WAL).
fn traced_rounds(
    db: &Database,
    stream: &mut OpStream,
    ledger: &mut Ledger,
    tally: &mut Tally,
    reference: &Timed,
) -> Res<TracedRounds> {
    let mut tracer = Tracer::new();
    let mut per_kind = vec![Acc::default(); ROUND.len()];
    let mut op_ms = vec![Vec::new(); ROUND.len()];
    let mut stmt = 0u32;
    let before = layers::counters(db);
    for _ in 0..TRACED_ROUNDS {
        for op in stream.round() {
            let slot = op.kind.slot();
            let mut op_us = 0.0;
            for sql in op.statements() {
                stmt += 1;
                let sample = trace_write(db, &mut tracer, stmt, &sql)?;
                op_us += sample[0].1;
                per_kind[slot].add(&sample);
            }
            op_ms[slot].push(op_us / 1e3);
            ledger.credit(&op);
            tally.pass();
        }
    }
    let after = layers::counters(db);
    let started = Instant::now();
    let checkpoint = layers::checkpoint(db)?;
    let checkpoint_us = started.elapsed().as_secs_f64() * 1e6;

    let mut workload = layers::wal_deltas(&before, &after).to_vec();
    workload.extend([
        ("segment_bytes", checkpoint.segment_bytes as f64),
        ("sealed_raw_bytes", checkpoint.sealed_raw_bytes as f64),
        ("segments_sealed", checkpoint.segments_sealed as f64),
        ("checkpoint_us", checkpoint_us),
    ]);
    let overhead = stats::median_ratio(&op_ms, &reference.latencies_ms);
    Ok(TracedRounds {
        per_kind,
        workload,
        direct: vec![("trace_overhead_ratio", overhead, u64::from(stmt))],
        tracer,
    })
}

/// One write statement, traced. The first entry of the sample is the
/// plain call's duration.
pub fn trace_write(db: &Database, tracer: &mut Tracer, stmt: u32, sql: &str) -> Res<Sample> {
    let plain = tracer.open("statement.plain", None, stmt);
    let outcome = layers::execute(db, sql);
    let plain_us = tracer.close(plain);
    outcome?;

    let (parsed, parse_us) = tracer.beside("sql.parse", plain, stmt, || layers::parse(sql));
    let parsed = parsed?;
    let (bound, bind_us) =
        tracer.beside("planner.bind", plain, stmt, || layers::bind(db, &parsed[0]));
    let (mut optimize_us, mut execute_us) = (0.0, 0.0);
    if let Bound::InsertSource(plan) = bound? {
        let (plan, us) = tracer.beside("planner.optimize", plain, stmt, || layers::optimize(plan));
        optimize_us = us;
        let plan = plan?;
        let (rows, us) = tracer.beside("exec.execute", plain, stmt, || layers::run_plan(db, &plan));
        execute_us = us;
        rows?;
    }
    let commit_us = (plain_us - parse_us - bind_us - optimize_us - execute_us).max(0.0);
    Ok(vec![
        ("write_plain_us", plain_us),
        ("parse_us", parse_us),
        ("bind_us", bind_us),
        ("optimize_us", optimize_us),
        ("execute_us", execute_us),
        ("commit_us", commit_us),
    ])
}
