//! Every engine symbol the harness touches, in one place: an API change
//! in the engine is then one obvious, separately reviewed edit here.
//! The rest of the harness names engine items only through this module.
//!
//! Layer = crate. Each function below is the boundary at which the traced
//! run opens a span; the comment names the crate it enters.

use std::path::Path;
use std::sync::Arc;

pub use hylite::common::{Chunk, ColumnVector, MetricsSnapshot, Schema, CHUNK_ROWS};
pub use hylite::planner::LogicalPlan;
pub use hylite::storage::{CheckpointStats, PoolStats};
pub use hylite::{Database, HyliteClient, QueryResult, RemoteResult, ServerHandle};

use hylite::analytics::{kmeans, pagerank, KMeansConfig, NaiveBayesModel, PageRankConfig};
use hylite::common::wire::{decode_frame, encode_frame, Frame};
use hylite::common::{CrashSpec, FaultVfs, StdVfs, Vfs};
use hylite::datagen::VectorDataset;
use hylite::exec::{ExecContext, ExecStats, Executor};
use hylite::graph::{CsrGraph, LdbcConfig, LdbcGraph};
use hylite::planner::binder::BoundStatement;
use hylite::planner::{Binder, Optimizer};
use hylite::sql::{parse_sql, Statement};
use hylite::storage::wal::CP_WAL_APPEND;
use hylite::storage::{DurabilityOptions, SyncMode};
use hylite::{Server, ServerConfig};

pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

// ---- core: databases -------------------------------------------------------

pub fn open_memory() -> Database {
    Database::new()
}

/// A durable database on the real file system. `SyncMode::Commit` (write
/// and fsync before every acknowledgement) is stated here because the
/// flush policy is part of the write workloads.
pub fn open_durable(dir: &Path, buffer_pool_bytes: Option<usize>) -> Res<Database> {
    Database::open_with(
        Arc::new(StdVfs) as Arc<dyn Vfs>,
        dir,
        durability_options(buffer_pool_bytes),
    )
    .map_err(err("open durable database"))
}

fn durability_options(buffer_pool_bytes: Option<usize>) -> DurabilityOptions {
    let defaults = DurabilityOptions::default();
    DurabilityOptions {
        sync_mode: SyncMode::Commit,
        buffer_pool_bytes: buffer_pool_bytes.unwrap_or(defaults.buffer_pool_bytes),
        ..defaults
    }
}

/// An in-memory file system that forgets unsynced bytes when it crashes.
#[derive(Clone)]
pub struct PowerLossFs(FaultVfs);

impl PowerLossFs {
    pub fn new() -> PowerLossFs {
        PowerLossFs(FaultVfs::new())
    }

    pub fn open(&self) -> Res<Database> {
        Database::open_with(
            Arc::new(self.0.clone()) as Arc<dyn Vfs>,
            Path::new("data"),
            durability_options(None),
        )
        .map_err(err("open database on the fault file system"))
    }

    /// Lose power inside the next commit's WAL append: that commit is
    /// never acknowledged, and every unsynced byte of every file is gone.
    pub fn cut_power_at_next_commit(&self) {
        self.0.arm_crash(CrashSpec::first(CP_WAL_APPEND));
    }

    pub fn lost_power(&self) -> bool {
        self.0.crashed()
    }

    pub fn reboot(&self) {
        self.0.reboot();
    }
}

pub fn execute(db: &Database, sql: &str) -> Res<QueryResult> {
    db.execute(sql)
        .map_err(|e| format!("{e} in: {}", clip(sql)))
}

pub fn clip(sql: &str) -> &str {
    match sql.char_indices().nth(120) {
        Some((i, _)) => &sql[..i],
        None => sql,
    }
}

pub fn checkpoint(db: &Database) -> Res<CheckpointStats> {
    db.checkpoint().map_err(err("checkpoint"))
}

pub fn close(db: &Database) -> Res<()> {
    db.close().map(|_| ()).map_err(err("close"))
}

pub fn counters(db: &Database) -> MetricsSnapshot {
    db.metrics_snapshot()
}

/// storage (pool): hit/miss/eviction counts of the block cache; zeros for
/// an in-memory database, which has none.
pub fn pool_stats(db: &Database) -> PoolStats {
    match db.durability() {
        Some(d) => d.buffer_pool().stats(),
        None => PoolStats {
            cap_bytes: 0,
            used_bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        },
    }
}

/// storage: append column data to a table in one commit, the way the
/// repository's own loaders do (no SQL text, no WAL record: the durable
/// workloads checkpoint right after loading).
pub fn load_table(db: &Database, table: &str, chunks: Vec<Chunk>) -> Res<()> {
    let table = db
        .catalog()
        .get_table(table)
        .map_err(err("look up table to load"))?;
    let mut guard = table.write();
    for chunk in chunks {
        guard.insert_chunk(chunk).map_err(err("load chunk"))?;
    }
    guard.commit();
    Ok(())
}

pub fn int_column(values: Vec<i64>) -> ColumnVector {
    ColumnVector::from_i64(values)
}

pub fn float_column(values: Vec<f64>) -> ColumnVector {
    ColumnVector::from_f64(values)
}

pub fn text_column(values: Vec<String>) -> ColumnVector {
    ColumnVector::from_str(values)
}

pub fn chunk(columns: Vec<ColumnVector>) -> Chunk {
    Chunk::new(columns)
}

/// Prefix a chunk with a running `id` column starting at `first_id`.
pub fn with_id_column(first_id: i64, chunk: &Chunk) -> Chunk {
    let ids = ColumnVector::from_i64((first_id..first_id + chunk.len() as i64).collect());
    let mut columns = vec![Arc::new(ids)];
    columns.extend(chunk.columns().iter().cloned());
    Chunk::from_arc_columns(columns)
}

// ---- datagen, graph: the repository's generators ---------------------------

/// datagen: `n` uniform `d`-vectors.
pub fn points(n: usize, d: usize, seed: u64) -> Vec<Chunk> {
    VectorDataset::new(n, d, seed).chunks()
}

/// datagen: `n` `d`-vectors with a 0/1 label as the last column, the two
/// classes' means half a unit apart.
pub fn labeled_points(n: usize, d: usize, seed: u64) -> Vec<Chunk> {
    VectorDataset::new(n, d, seed).labeled_chunks(0.5)
}

/// datagen: `k` initial centres sampled from [`points`] of the same shape.
pub fn initial_centers(n: usize, d: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
    VectorDataset::new(n, d, seed).initial_centers(k)
}

/// graph: an LDBC-like friendship graph as a directed edge list holding
/// both directions of each of `friendships` friendships.
pub fn ldbc_edges(vertices: usize, friendships: usize, seed: u64) -> (Vec<i64>, Vec<i64>) {
    let graph = LdbcGraph::generate(&LdbcConfig {
        vertices,
        edges: friendships,
        triangle_fraction: 0.3,
        seed,
    });
    (graph.src, graph.dest)
}

// ---- the statement path, phase by phase ------------------------------------

/// sql: text to syntax trees.
pub fn parse(sql: &str) -> Res<Vec<Statement>> {
    parse_sql(sql).map_err(err("parse"))
}

pub enum Bound {
    Query(LogicalPlan),
    /// INSERT: the plan producing the rows to insert.
    InsertSource(LogicalPlan),
    /// A statement with no plan of its own to run (UPDATE, DELETE, BEGIN,
    /// COMMIT): everything after binding happens inside `core`.
    Other,
}

/// planner: names resolved, types inferred.
pub fn bind(db: &Database, stmt: &Statement) -> Res<Bound> {
    let bound = Binder::new(db.catalog())
        .bind_statement(stmt)
        .map_err(err("bind"))?;
    Ok(match bound {
        BoundStatement::Query(plan) => Bound::Query(plan),
        BoundStatement::Insert { source, .. } => Bound::InsertSource(source),
        _ => Bound::Other,
    })
}

/// planner: rewrite rules.
pub fn optimize(plan: LogicalPlan) -> Res<LogicalPlan> {
    Optimizer::new().optimize(plan).map_err(err("optimize"))
}

/// What `exec` reports about one plan execution.
pub struct Executed {
    pub chunks: Vec<Chunk>,
    pub schema: Schema,
    pub peak_working_rows: usize,
}

/// exec (+ expr): run an optimized plan to materialized chunks, set up as
/// `core`'s session does it.
pub fn run_plan(db: &Database, plan: &LogicalPlan) -> Res<Executed> {
    let ctx = ExecContext::new(Arc::clone(db.catalog()))
        .with_metrics(Arc::clone(db.metrics()))
        .with_system_views(Arc::clone(db.system_views()));
    let mut executor = Executor::new(ctx);
    let chunks = executor.execute(plan).map_err(err("execute"))?;
    let ExecStats {
        peak_working_rows, ..
    } = executor.ctx.stats;
    Ok(Executed {
        chunks,
        schema: plan.schema().without_qualifiers(),
        peak_working_rows,
    })
}

// ---- analytics, graph: the kernels under the operators ---------------------

/// analytics: Lloyd iterations over pre-extracted chunks.
pub fn kernel_kmeans(
    data: &[Chunk],
    centers: Vec<Vec<f64>>,
    iterations: usize,
) -> Res<Vec<Vec<f64>>> {
    kmeans(
        data,
        centers,
        None,
        &KMeansConfig {
            max_iterations: iterations,
        },
    )
    .map(|r| r.centers)
    .map_err(err("kmeans kernel"))
}

/// analytics: Naive Bayes training over pre-extracted chunks whose last
/// column is the label.
pub fn kernel_naive_bayes(labeled: &[Chunk], feature_names: &[String]) -> Res<usize> {
    NaiveBayesModel::train(labeled, feature_names)
        .map(|m| m.to_rows().len())
        .map_err(err("naive bayes kernel"))
}

pub struct Csr(CsrGraph);

/// graph: CSR build with dense re-labelling, as the PAGERANK operator
/// does per query.
pub fn csr_build(src: &[i64], dest: &[i64]) -> Res<Csr> {
    CsrGraph::from_edges(src, dest)
        .map(Csr)
        .map_err(err("csr build"))
}

/// analytics: power iterations over a built CSR.
pub fn kernel_pagerank(graph: &Csr, damping: f64, iterations: usize) -> Vec<f64> {
    pagerank(
        &graph.0,
        &PageRankConfig {
            damping,
            epsilon: 0.0,
            max_iterations: iterations,
        },
    )
    .ranks
}

// ---- common::wire ----------------------------------------------------------

/// common::wire: the frames a server sends for a result — schema, one
/// data frame per `CHUNK_ROWS` rows, completion — encoded to bytes.
pub fn encode_result(schema: &Schema, chunks: &[Chunk]) -> Vec<Vec<u8>> {
    let mut frames = vec![encode_frame(&Frame::ResultSchema {
        schema: schema.clone(),
    })];
    let mut total_rows = 0u64;
    for chunk in chunks.iter().filter(|c| !c.is_empty()) {
        for offset in (0..chunk.len()).step_by(CHUNK_ROWS) {
            let part = chunk.slice(offset, CHUNK_ROWS.min(chunk.len() - offset));
            total_rows += part.len() as u64;
            frames.push(encode_frame(&Frame::DataChunk { chunk: part }));
        }
    }
    frames.push(encode_frame(&Frame::CommandComplete {
        rows_affected: 0,
        total_rows,
        lsn: 0,
    }));
    frames
}

/// common::wire: what a client does with those bytes; returns the rows
/// decoded.
pub fn decode_result(frames: &[Vec<u8>]) -> Res<usize> {
    let mut rows = 0;
    for bytes in frames {
        // 4-byte length prefix, 1-byte tag, body.
        let frame = decode_frame(bytes[4], &bytes[5..]).map_err(err("decode frame"))?;
        if let Frame::DataChunk { chunk } = frame {
            rows += chunk.len();
        }
    }
    Ok(rows)
}

// ---- server, client --------------------------------------------------------

/// server: an in-process server on an OS-assigned localhost port.
pub fn start_server(db: Arc<Database>) -> Res<ServerHandle> {
    Server::start(ServerConfig::ephemeral(), db).map_err(err("start server"))
}

/// client: one blocking connection.
pub fn connect(server: &ServerHandle) -> Res<HyliteClient> {
    HyliteClient::connect(server.local_addr()).map_err(err("connect"))
}

pub fn query(client: &mut HyliteClient, sql: &str) -> Res<RemoteResult> {
    client
        .query(sql)
        .map_err(|e| format!("{e} in: {}", clip(sql)))
}

/// storage (wal): bytes, commits and fsyncs between two snapshots, under
/// the measurement keys of the per-layer table.
pub fn wal_deltas(before: &MetricsSnapshot, after: &MetricsSnapshot) -> [(&'static str, f64); 3] {
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    [
        ("wal_bytes", delta("wal.bytes_written")),
        ("wal_commits", delta("wal.commits")),
        ("wal_fsyncs", delta("wal.fsyncs")),
    ]
}

/// Mean of a registry histogram between two snapshots, and its sample count.
pub fn histogram_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let (c0, s0) = before.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c1, s1) = after.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let count = c1 - c0;
    if count == 0 {
        (0.0, 0)
    } else {
        ((s1 - s0) as f64 / count as f64, count)
    }
}
