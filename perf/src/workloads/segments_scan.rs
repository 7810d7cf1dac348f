//! `segments.scan`: the relational reads of `wire.read`, embedded, over
//! encoded segments on disk behind a buffer pool a quarter the size of the
//! decoded table — the one workload larger than the program's own cache.
//! Block decode and the pool do nearly all the work.

use crate::gen::{self, Fingerprint};
use crate::layers::{self, Database, Res};
use crate::queries;
use crate::report::{Metric, WorkloadReport};
use crate::workloads::embedded::{self, Kind};
use crate::workloads::relational::Tables;
use crate::workloads::{fresh_dir, repeated_setup, RunCfg};

const ROWS: usize = 1_000_000;
const DIM_ROWS: usize = 1_000;
const POOL_BYTES: usize = 16 << 20;
/// `hot_range` is sent this many times in a row per cycle: after the
/// first, its blocks (a twentieth of the table) are pool-resident, which
/// is what the kind is there to show. The scans around it evict them again.
const HOT_BURST: usize = 8;

/// Generate, load, checkpoint (which seals the rows into encoded
/// segments), close, and reopen behind the small pool.
fn set_up(cfg: &RunCfg, rows: usize, rep: usize) -> Res<(Database, Tables)> {
    let tables = Tables::generate(rows, DIM_ROWS, cfg.seed);
    let dir = fresh_dir(cfg, &format!("segments.scan-{rep}"))?;
    let db = layers::open_durable(&dir, Some(POOL_BYTES))?;
    tables.load(&db)?;
    layers::checkpoint(&db)?;
    layers::close(&db)?;
    drop(db);
    Ok((layers::open_durable(&dir, Some(POOL_BYTES))?, tables))
}

pub fn run(cfg: &RunCfg) -> Res<WorkloadReport> {
    let rows = cfg.size(ROWS);
    let ((db, tables), setup_s) = repeated_setup(|rep| set_up(cfg, rows, rep))?;

    let (hot_from, hot_to) = (rows / 2, rows / 2 + rows / 20);
    let tag = gen::tag(7);
    let kinds = vec![
        Kind::query(
            "full_agg",
            queries::FULL_AGG.into(),
            rows as u64,
            tables.full_agg(),
        ),
        Kind {
            burst: HOT_BURST,
            ..Kind::query(
                "hot_range",
                queries::hot_range(hot_from, hot_to),
                (hot_to - hot_from) as u64,
                tables.hot_range(hot_from, hot_to),
            )
        },
        Kind::query(
            "dict_eq",
            queries::dict_eq(&tag),
            rows as u64,
            tables.dict_eq(&tag),
        ),
        Kind::query(
            "group_agg",
            queries::GROUP_AGG.into(),
            rows as u64,
            tables.group_agg(),
        ),
    ];
    let mut fp = Fingerprint::new();
    kinds.iter().for_each(|k| fp.str(&k.sql));
    tables.fingerprint(&mut fp);

    let mut report = embedded::run(
        cfg,
        "segments.scan",
        &db,
        kinds,
        fp.finish(),
        setup_s,
        |_, _| {},
    )?;
    let decoded = tables.data.decoded_bytes();
    report.sizes = vec![
        ("rows", rows as f64),
        ("dim_rows", DIM_ROWS as f64),
        ("decoded_bytes", decoded as f64),
        ("buffer_pool_bytes", POOL_BYTES as f64),
        ("hot_range_rows", (hot_to - hot_from) as f64),
        ("hot_burst", HOT_BURST as f64),
    ];
    report.extras.push(Metric::new(
        "data_over_pool",
        "ratio",
        decoded as f64 / POOL_BYTES as f64,
        1,
    ));
    layers::close(&db)?;
    Ok(report)
}
