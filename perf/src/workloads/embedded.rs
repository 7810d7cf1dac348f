//! The closed loop shared by the embedded query workloads: one client
//! calling `Database::execute`, kinds cycled in equal counts, every answer
//! checked — and the traced variant that runs each statement phase by phase.

use std::time::Instant;

use crate::check::Digest;
use crate::layers::{self, Bound, Database, QueryResult, Res};
use crate::report::{Acc, KindReport, Sample, Tally, TraceReport, WorkloadReport};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::RunCfg;

/// A kernel the traced run measures beside `exec.execute` by calling the
/// layer below directly on pre-extracted input.
pub struct Beside {
    pub span: &'static str,
    /// Measurement key: `kernel_us` or `csr_build_us`.
    pub key: &'static str,
    pub run: Box<dyn Fn() -> Res<()>>,
}

pub struct Kind {
    pub name: &'static str,
    pub sql: String,
    /// Input tuples the statement consumes; 0 keeps a reference kind out
    /// of `tuples_per_s`.
    pub units: u64,
    /// The answer, recomputed in plain Rust from the generated data.
    pub want: Digest,
    pub beside: Vec<Beside>,
    /// Tuples and bytes the kernel touches, computed from the sizes.
    pub kernel_tuples: f64,
    pub kernel_bytes: f64,
    /// Statements of this kind sent back to back in each cycle; 1 except
    /// where a kind is about what stays cached between repetitions.
    pub burst: usize,
}

impl Kind {
    pub fn query(name: &'static str, sql: String, units: u64, want: Digest) -> Kind {
        Kind {
            name,
            sql,
            units,
            want,
            beside: Vec::new(),
            kernel_tuples: 0.0,
            kernel_bytes: 0.0,
            burst: 1,
        }
    }
}

fn check(
    kind: &Kind,
    result: &Res<QueryResult>,
    want: &Digest,
    against: &str,
) -> Result<(), String> {
    match result {
        Err(e) => Err(format!("{}: {e}", kind.name)),
        Ok(r) => {
            let got = Digest::of(r.chunks());
            if got.matches(want) {
                Ok(())
            } else {
                Err(format!(
                    "{}: answer {} differs from {against} {}",
                    kind.name,
                    got.describe(),
                    want.describe()
                ))
            }
        }
    }
}

/// One untimed cycle: caches fill, and each answer is checked against the
/// plain-Rust recomputation. Returns the results for the checks that
/// compare kinds with each other.
pub fn warm_up(db: &Database, kinds: &[Kind], tally: &mut Tally) -> Vec<Option<QueryResult>> {
    kinds
        .iter()
        .map(|kind| {
            let result = layers::execute(db, &kind.sql);
            tally.record(check(kind, &result, &kind.want, "the recomputed"));
            result.ok()
        })
        .collect()
}

/// What timed answers are compared with: the warm-up's, or the recomputed
/// one where the warm-up itself failed.
pub fn expectations(kinds: &[Kind], warm: &[Option<QueryResult>]) -> Vec<Digest> {
    kinds
        .iter()
        .zip(warm)
        .map(|(k, w)| w.as_ref().map_or(k.want, |r| Digest::of(r.chunks())))
        .collect()
}

/// Whole cycles until the box is used up. Returns per-kind latencies in ms.
pub fn timed_cycles(
    db: &Database,
    kinds: &[Kind],
    expected: &[Digest],
    seconds: f64,
    max_cycles: usize,
    tally: &mut Tally,
) -> Vec<Vec<f64>> {
    let mut latencies = vec![Vec::new(); kinds.len()];
    let started = Instant::now();
    for _ in 0..max_cycles {
        for (i, kind) in kinds.iter().enumerate() {
            for _ in 0..kind.burst {
                let t = Instant::now();
                let result = layers::execute(db, &kind.sql);
                latencies[i].push(t.elapsed().as_secs_f64() * 1e3);
                tally.record(check(kind, &result, &expected[i], "the warm-up's"));
            }
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    latencies
}

pub fn kind_reports(kinds: &[Kind], latencies: Vec<Vec<f64>>) -> Vec<KindReport> {
    kinds
        .iter()
        .zip(latencies)
        .filter_map(|(k, l)| KindReport::from_ms(k.name, l, true))
        .collect()
}

/// Input tuples consumed per second of statement time, reference kinds
/// left out of both.
pub fn tuples_per_s(kinds: &[Kind], latencies: &[Vec<f64>]) -> f64 {
    let mut tuples = 0.0;
    let mut busy_s = 0.0;
    for (kind, l) in kinds.iter().zip(latencies) {
        if kind.units > 0 {
            tuples += kind.units as f64 * l.len() as f64;
            busy_s += l.iter().sum::<f64>() / 1e3;
        }
    }
    tuples / busy_s
}

pub struct Traced {
    pub report: TraceReport,
    /// Latencies of the untraced reference cycles, the traced run's
    /// end-to-end numbers.
    pub reference_ms: Vec<Vec<f64>>,
}

/// Cycles of the untraced reference and of the traced run: fixed and
/// small, cut short only when the box runs out.
const REFERENCE_CYCLES: usize = 3;
const TRACED_CYCLES: usize = 5;

/// The traced run. A few untraced cycles give the reference; then every
/// statement runs once as the plain end-to-end call and once phase by
/// phase from the harness, each phase a span.
pub fn traced(
    db: &Database,
    kinds: &[Kind],
    expected: &[Digest],
    cfg: &RunCfg,
    tally: &mut Tally,
) -> Res<Traced> {
    let reference_ms = timed_cycles(
        db,
        kinds,
        expected,
        cfg.seconds * 0.25,
        REFERENCE_CYCLES,
        tally,
    );
    let mut tracer = Tracer::new();
    let mut per_kind = vec![Acc::default(); kinds.len()];
    let mut plain_ms = vec![Vec::new(); kinds.len()];
    let mut stmt = 0u32;
    let started = Instant::now();
    for _ in 0..TRACED_CYCLES {
        for (i, kind) in kinds.iter().enumerate() {
            for _ in 0..kind.burst {
                stmt += 1;
                let (mut sample, _) = trace_query(db, &mut tracer, stmt, &kind.sql, &kind.beside)?;
                if !kind.beside.is_empty() {
                    sample.push(("kernel_tuples", kind.kernel_tuples));
                    sample.push(("kernel_bytes", kind.kernel_bytes));
                }
                plain_ms[i].push(value(&sample, "plain_us") / 1e3);
                per_kind[i].add(&sample);
                tally.pass();
            }
        }
        if started.elapsed().as_secs_f64() >= cfg.seconds * 0.75 {
            break;
        }
    }
    let names_and_accs: Vec<(&str, &Acc)> = kinds.iter().map(|k| k.name).zip(&per_kind).collect();
    let overhead = stats::median_ratio(&plain_ms, &reference_ms);
    Ok(Traced {
        report: TraceReport::build(
            &names_and_accs,
            &[],
            vec![("trace_overhead_ratio", overhead, u64::from(stmt))],
            &tracer,
        ),
        reference_ms,
    })
}

pub fn value(sample: &[(&'static str, f64)], key: &str) -> f64 {
    sample
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// One query, traced: the plain call with counter deltas sampled around
/// it, then parse → bind → optimize → execute as child spans of a
/// `statement` span, then the kernels beside `exec.execute`.
pub fn trace_query(
    db: &Database,
    tracer: &mut Tracer,
    stmt: u32,
    sql: &str,
    beside: &[Beside],
) -> Res<(Sample, layers::Executed)> {
    let counters_before = layers::counters(db);
    let pool_before = layers::pool_stats(db);
    let (plain, plain_us) = tracer.span("statement.plain", None, stmt, || layers::execute(db, sql));
    plain?;
    let counters_after = layers::counters(db);
    let pool_after = layers::pool_stats(db);
    let delta = |name: &str| (counters_after.counter(name) - counters_before.counter(name)) as f64;

    let root = tracer.open("statement", None, stmt);
    let (parsed, parse_us) = tracer.span("sql.parse", Some(root), stmt, || layers::parse(sql));
    let parsed = parsed?;
    let (bound, bind_us) = tracer.span("planner.bind", Some(root), stmt, || {
        layers::bind(db, &parsed[0])
    });
    let Bound::Query(plan) = bound? else {
        return Err(format!("not a query: {}", layers::clip(sql)));
    };
    let (plan, optimize_us) = tracer.span("planner.optimize", Some(root), stmt, || {
        layers::optimize(plan)
    });
    let plan = plan?;
    let execute_span = tracer.open("exec.execute", Some(root), stmt);
    let executed = layers::run_plan(db, &plan);
    let execute_us = tracer.close(execute_span);
    tracer.close(root);
    let executed = executed?;

    let mut sample = vec![
        ("plain_us", plain_us),
        ("parse_us", parse_us),
        ("bind_us", bind_us),
        ("optimize_us", optimize_us),
        ("execute_us", execute_us),
        (
            "phase_sum_us",
            parse_us + bind_us + optimize_us + execute_us,
        ),
        (
            "rows_out",
            executed.chunks.iter().map(|c| c.len()).sum::<usize>() as f64,
        ),
        ("peak_working_rows", executed.peak_working_rows as f64),
        ("blocks_scanned", delta("scan.blocks_scanned")),
        ("blocks_pruned", delta("scan.blocks_pruned")),
        ("pool_hits", (pool_after.hits - pool_before.hits) as f64),
        (
            "pool_misses",
            (pool_after.misses - pool_before.misses) as f64,
        ),
        (
            "pool_evictions",
            (pool_after.evictions - pool_before.evictions) as f64,
        ),
    ];
    for b in beside {
        let (outcome, us) = tracer.beside(b.span, execute_span, stmt, || (b.run)());
        outcome?;
        sample.push((b.key, us));
    }
    Ok((sample, executed))
}

/// Warm-up, then the timed box or the traced run.
pub fn run(
    cfg: &RunCfg,
    name: &'static str,
    db: &Database,
    kinds: Vec<Kind>,
    fingerprint: u32,
    setup_s: Vec<f64>,
    cross_check: impl Fn(&[Option<QueryResult>], &mut Tally),
) -> Res<WorkloadReport> {
    let mut tally = Tally::default();
    let warm = warm_up(db, &kinds, &mut tally);
    cross_check(&warm, &mut tally);
    let expected = expectations(&kinds, &warm);
    drop(warm);

    let mut report = WorkloadReport::new(name, fingerprint, setup_s, "tuples_per_s");
    let latencies = if cfg.trace {
        let traced = traced(db, &kinds, &expected, cfg, &mut tally)?;
        report.trace = Some(traced.report);
        traced.reference_ms
    } else {
        timed_cycles(db, &kinds, &expected, cfg.seconds, usize::MAX, &mut tally)
    };
    report.work_per_s = tuples_per_s(&kinds, &latencies);
    report.kinds = kind_reports(&kinds, latencies);
    report.tally = tally;
    Ok(report)
}
