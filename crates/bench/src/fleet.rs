//! Router-fronted fleet variant of the `concurrent-clients` workload:
//! one durable primary plus N WAL-streaming replicas, with every client
//! speaking through [`HyliteRouter`] instead of a direct connection.
//!
//! The measurement is a **read-throughput scaling curve**: the same
//! read-only statement mix is driven first directly against the primary
//! (the single-node baseline), then through the router against growing
//! slices of the replica fleet (1 primary + 1 replica, + 2, ...). All
//! storms hit the *same* running fleet and dataset, so the only variable
//! is how many nodes serve reads.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_client::{Consistency, HyliteClient, HyliteRouter, RouterConfig, RouterStats};
use hylite_common::faultfs::{FaultVfs, Vfs};
use hylite_common::{HyError, Result};
use hylite_core::{Database, DurabilityOptions, ReplRole};
use hylite_datagen::VectorDataset;
use hylite_server::{Replica, ReplicaConfig, ReplicaHandle, Server, ServerConfig, ServerHandle};

use crate::concurrent::ConcurrentConfig;
use crate::queries;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Client/statement/dataset sizing, shared with the single-node
    /// workload.
    pub base: ConcurrentConfig,
    /// Read replicas to attach to the primary.
    pub replicas: usize,
    /// Staleness contract of the routed storms.
    pub consistency: Consistency,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            base: ConcurrentConfig::default(),
            replicas: 3,
            consistency: Consistency::Session,
        }
    }
}

impl FleetConfig {
    /// A CI-sized configuration: seconds, not minutes.
    pub fn smoke() -> FleetConfig {
        FleetConfig {
            base: ConcurrentConfig {
                clients: 4,
                statements_per_client: 6,
                tuples: 500,
                dims: 2,
                clusters: 2,
                edges: 200,
                max_active: 0,
            },
            replicas: 2,
            consistency: Consistency::Session,
        }
    }
}

/// Throughput of one storm.
#[derive(Debug, Clone, Copy)]
pub struct StormOutcome {
    /// Statements that completed successfully.
    pub completed: usize,
    /// Statements that returned an error.
    pub errors: usize,
    /// Wall-clock of the storm.
    pub wall: Duration,
}

impl StormOutcome {
    /// Statements per second.
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// One point of the scaling curve: the routed storm against the first
/// `replicas_used` replicas.
#[derive(Debug, Clone, Copy)]
pub struct FleetPoint {
    /// Replicas in the router's rotation for this storm.
    pub replicas_used: usize,
    /// Throughput outcome.
    pub outcome: StormOutcome,
    /// Aggregated router counters across all clients of the storm.
    pub stats: RouterStats,
}

impl FleetPoint {
    /// Fraction of reads served by replicas (0.0 when everything fell
    /// back to the primary).
    pub fn replica_share(&self) -> f64 {
        let total = self.stats.reads_replica + self.stats.reads_primary;
        if total == 0 {
            return 0.0;
        }
        self.stats.reads_replica as f64 / total as f64
    }
}

/// The scaling curve of one fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// The configuration that produced it.
    pub config: FleetConfig,
    /// Single-node baseline: direct connections to the primary, no
    /// router.
    pub direct: StormOutcome,
    /// Routed storms with 1, 2, ... replicas in rotation.
    pub points: Vec<FleetPoint>,
}

impl FleetReport {
    /// Render the curve as the harness's usual text block.
    pub fn render(&self) -> String {
        let mut out = format!(
            "concurrent-clients fleet: {} connections x {} statements, read-only mix, {} consistency\n",
            self.config.base.clients, self.config.base.statements_per_client, self.config.consistency,
        );
        out.push_str(&format!(
            "direct (primary only, no router):      {:8.1} statements/s ({} ok, {} errors)\n",
            self.direct.throughput(),
            self.direct.completed,
            self.direct.errors
        ));
        for p in &self.points {
            out.push_str(&format!(
                "routed 1 primary + {} replica{}:          {:8.1} statements/s \
                 ({} ok, {} errors, {:.2}x vs direct, {:.0}% replica reads)\n",
                p.replicas_used,
                if p.replicas_used == 1 { " " } else { "s" },
                p.outcome.throughput(),
                p.outcome.completed,
                p.outcome.errors,
                p.outcome.throughput() / self.direct.throughput().max(1e-9),
                p.replica_share() * 100.0
            ));
        }
        out
    }
}

/// Load the read-mix dataset (`data`, `centers`, `edges`) through plain
/// SQL so every row goes through the WAL and replicates.
fn load_dataset(db: &Database, config: &ConcurrentConfig) -> Result<()> {
    let dataset = VectorDataset::new(config.tuples, config.dims, 42);
    let cols: Vec<String> = (0..config.dims).map(|i| format!("c{i} DOUBLE")).collect();
    db.execute(&format!(
        "CREATE TABLE data (id BIGINT, {})",
        cols.join(", ")
    ))?;
    let mut next_id = 0i64;
    for chunk in dataset.chunks() {
        let col_slices: Vec<&[f64]> = (0..config.dims)
            .map(|i| chunk.column(i).as_f64())
            .collect::<Result<_>>()?;
        let mut values = Vec::with_capacity(chunk.len());
        for r in 0..chunk.len() {
            let nums: Vec<String> = col_slices.iter().map(|c| format!("{:?}", c[r])).collect();
            values.push(format!("({}, {})", next_id, nums.join(", ")));
            next_id += 1;
        }
        for batch in values.chunks(1024) {
            db.execute(&format!("INSERT INTO data VALUES {}", batch.join(",")))?;
        }
    }
    db.execute(&format!(
        "CREATE TABLE centers (cid BIGINT, {})",
        cols.join(", ")
    ))?;
    let centers = dataset.initial_centers(config.clusters);
    let rows: Vec<String> = centers
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let nums: Vec<String> = c.iter().map(|v| format!("{v:?}")).collect();
            format!("({i}, {})", nums.join(", "))
        })
        .collect();
    db.execute(&format!("INSERT INTO centers VALUES {}", rows.join(",")))?;
    db.execute("CREATE TABLE edges (src BIGINT, dest BIGINT)")?;
    let vertices = (config.edges / 2).max(8);
    let mut values = Vec::with_capacity(config.edges);
    for v in 0..vertices as i64 {
        values.push(format!("({v}, {})", (v + 1) % vertices as i64));
        values.push(format!("({v}, {})", (v * 7 + 3) % vertices as i64));
    }
    for batch in values.chunks(1024) {
        db.execute(&format!("INSERT INTO edges VALUES {}", batch.join(",")))?;
    }
    Ok(())
}

fn statement_mix(config: &ConcurrentConfig) -> Vec<(&'static str, String)> {
    vec![
        ("count", "SELECT count(*) FROM data".to_string()),
        (
            "filter-agg",
            "SELECT count(*), sum(d.c0) FROM data d WHERE d.c0 > 0.5".to_string(),
        ),
        ("scan", "SELECT * FROM data d WHERE d.id < 512".to_string()),
        ("kmeans", queries::kmeans_operator(config.dims, 2)),
        ("pagerank", queries::pagerank_operator(0.85, 3)),
    ]
}

struct Fleet {
    primary: ServerHandle,
    replicas: Vec<ReplicaHandle>,
}

impl Fleet {
    fn replica_addrs(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| r.local_addr().to_string())
            .collect()
    }

    fn shutdown(self) {
        for r in self.replicas {
            r.shutdown();
        }
        self.primary.shutdown();
    }
}

/// Start 1 durable primary + N replicas on FaultVfs-backed storage, load
/// the dataset, and wait until every replica has applied it.
fn start_fleet(config: &FleetConfig) -> Result<Fleet> {
    let data_dir = PathBuf::from("data");
    let primary_vfs = FaultVfs::new();
    let primary_db = Arc::new(Database::open_with(
        Arc::new(primary_vfs) as Arc<dyn Vfs>,
        &data_dir,
        DurabilityOptions::default(),
    )?);
    load_dataset(&primary_db, &config.base)?;

    let server_config = ServerConfig {
        max_connections: config.base.clients * 2 + 16,
        max_active_statements: config.base.clients.max(1),
        statement_queue_depth: config.base.clients * 2,
        queue_wait: Duration::from_secs(60),
        repl_poll_interval: Duration::from_millis(1),
        ..ServerConfig::ephemeral()
    };
    let primary = Server::start(server_config.clone(), Arc::clone(&primary_db))?;
    let primary_addr = primary.local_addr().to_string();

    let mut replicas = Vec::new();
    for _ in 0..config.replicas {
        let vfs = FaultVfs::new();
        let db = Arc::new(Database::open_with(
            Arc::new(vfs) as Arc<dyn Vfs>,
            &data_dir,
            DurabilityOptions {
                role: ReplRole::Replica,
                ..DurabilityOptions::default()
            },
        )?);
        replicas.push(Replica::start(
            db,
            server_config.clone(),
            ReplicaConfig::new(&primary_addr),
        )?);
    }

    // Catch-up barrier: the primary's durable LSN rides on every
    // CommandComplete; poll each replica until its applied LSN reaches
    // it, so the storms below measure serving, not bootstrap.
    let mut client = HyliteClient::connect(primary.local_addr())?;
    let target_lsn = client.query("SELECT 1")?.lsn;
    client.close()?;
    let deadline = Instant::now() + Duration::from_secs(60);
    for r in &replicas {
        loop {
            if let Ok(mut c) = HyliteClient::connect(r.local_addr()) {
                let caught_up = c.query("SELECT 1").map(|r| r.lsn >= target_lsn);
                let _ = c.close();
                if caught_up.unwrap_or(false) {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err(HyError::Internal(format!(
                    "replica {} did not catch up to lsn {target_lsn} within 60s",
                    r.local_addr()
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(Fleet { primary, replicas })
}

/// Run the full scaling curve: direct baseline, then routed storms over
/// growing replica subsets.
pub fn run_fleet(config: FleetConfig) -> Result<FleetReport> {
    let fleet = start_fleet(&config)?;
    let primary_addr = fleet.primary.local_addr().to_string();
    let replica_addrs = fleet.replica_addrs();

    // Baseline: direct connections, no router.
    let (direct, _) = storm_direct(&config.base, &primary_addr)?;

    let mut points = Vec::new();
    for used in 1..=replica_addrs.len() {
        let (outcome, stats) = storm_routed(
            &config.base,
            &primary_addr,
            &replica_addrs[..used],
            config.consistency,
        )?;
        points.push(FleetPoint {
            replicas_used: used,
            outcome,
            stats,
        });
    }
    fleet.shutdown();
    Ok(FleetReport {
        config,
        direct,
        points,
    })
}

fn storm_direct(config: &ConcurrentConfig, addr: &str) -> Result<(StormOutcome, ())> {
    let mix = Arc::new(statement_mix(config));
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<bool>();
    let mut workers = Vec::new();
    for client_id in 0..config.clients {
        let tx = tx.clone();
        let mix = Arc::clone(&mix);
        let addr = addr.to_string();
        let statements = config.statements_per_client;
        workers.push(std::thread::spawn(move || -> Result<()> {
            let policy = hylite_client::RetryPolicy::default();
            let mut client = HyliteClient::connect_with_retry(addr.as_str(), &policy)?;
            for i in 0..statements {
                let (_kind, sql) = &mix[(client_id + i) % mix.len()];
                let ok = client.query_with_retry(sql, &policy).is_ok();
                let _ = tx.send(ok);
            }
            client.close()
        }));
    }
    drop(tx);
    let oks: Vec<bool> = rx.iter().collect();
    for w in workers {
        w.join()
            .map_err(|_| HyError::Internal("direct client thread panicked".into()))??;
    }
    let completed = oks.iter().filter(|ok| **ok).count();
    Ok((
        StormOutcome {
            completed,
            errors: oks.len() - completed,
            wall: started.elapsed(),
        },
        (),
    ))
}

fn storm_routed(
    config: &ConcurrentConfig,
    primary_addr: &str,
    replica_addrs: &[String],
    consistency: Consistency,
) -> Result<(StormOutcome, RouterStats)> {
    let mix = Arc::new(statement_mix(config));
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<bool>();
    let (stats_tx, stats_rx) = mpsc::channel::<RouterStats>();
    let mut workers = Vec::new();
    for client_id in 0..config.clients {
        let tx = tx.clone();
        let stats_tx = stats_tx.clone();
        let mix = Arc::clone(&mix);
        let statements = config.statements_per_client;
        let router_config = RouterConfig::new(primary_addr)
            .replicas(replica_addrs.iter().cloned())
            .consistency(consistency);
        workers.push(std::thread::spawn(move || -> Result<()> {
            let mut router = HyliteRouter::connect(router_config)?;
            for i in 0..statements {
                let (_kind, sql) = &mix[(client_id + i) % mix.len()];
                let ok = router.query(sql).is_ok();
                let _ = tx.send(ok);
            }
            let _ = stats_tx.send(*router.stats());
            router.close();
            Ok(())
        }));
    }
    drop(tx);
    drop(stats_tx);
    let oks: Vec<bool> = rx.iter().collect();
    for w in workers {
        w.join()
            .map_err(|_| HyError::Internal("routed client thread panicked".into()))??;
    }
    let mut stats = RouterStats::default();
    for s in stats_rx.iter() {
        stats.writes += s.writes;
        stats.reads_replica += s.reads_replica;
        stats.reads_primary += s.reads_primary;
        stats.primary_fallbacks += s.primary_fallbacks;
        stats.probes += s.probes;
        stats.ejections += s.ejections;
        stats.failovers += s.failovers;
    }
    let completed = oks.iter().filter(|ok| **ok).count();
    Ok((
        StormOutcome {
            completed,
            errors: oks.len() - completed,
            wall: started.elapsed(),
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_scales_reads_over_replicas() {
        let report = run_fleet(FleetConfig::smoke()).expect("fleet run");
        assert_eq!(report.points.len(), 2);
        let expected = report.config.base.clients * report.config.base.statements_per_client;
        assert_eq!(report.direct.completed, expected);
        for p in &report.points {
            assert_eq!(
                p.outcome.completed, expected,
                "errors: {}",
                p.outcome.errors
            );
            assert!(
                p.stats.reads_replica > 0,
                "replicas served no reads: {:?}",
                p.stats
            );
            assert_eq!(p.stats.failovers, 0);
        }
        let rendered = report.render();
        assert!(rendered.contains("direct"), "{rendered}");
        assert!(rendered.contains("replica reads"), "{rendered}");
    }
}
